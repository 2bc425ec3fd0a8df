"""Command-line front end.

    wittlab suite <name> [--seed N] [--json PATH] [--csv PATH]
    wittlab stable-rank --ring <ref> [--nmax K]
    wittlab usr --ring <ref> [--epsilon E] [--lambda G,G,...] [--nmax K]
                [--eu-mode transvection|full-u]
    wittlab straighten --ring <ref> --qm H^g --seq JSON --k K [...]
    wittlab transitive-move --ring <ref> --qm H^g --v JSON [--r E]
    wittlab cancel --ring <ref> --qm <ref> --qn <ref>
    wittlab complex {build,verify} --theorem ID --instance JSON

Exit codes: 0 verified/ok, 1 inconclusive, 2 critical finding.
Set WITTLAB_CACHE_DIR to cache complex verify runs by instance digest;
the cache key also covers the package version and sources.
"""

import argparse
import functools
import hashlib
import json
import os
import pathlib
import sys
import tempfile

import wittlab
from wittlab import blocks as B
from wittlab import catalog as C
from wittlab import stable_range as S
from wittlab import verify as V
from wittlab.modules import CapExceeded
from wittlab.posets import PosetCapExceeded
from wittlab.reports import render_csv, render_table
from wittlab.suites import SUITES, run_suite


def _ring_from_args(args):
    """Ring plus any (epsilon, lambda_generators) embedded in a JSON spec."""
    ref = args.ring
    spec = None
    if ref and ref.strip().startswith("{"):
        spec = json.loads(ref)
        ring = C.resolve_ring(spec)
    else:
        ring = C.resolve_ring(ref)
    args._ring_spec = spec
    return ring


def _param_from_args(args, ring):
    spec = getattr(args, "_ring_spec", None) or {}
    eps = getattr(args, "epsilon", None)
    if eps is None:
        eps = spec.get("epsilon")
    lam = getattr(args, "lambda_generators", None)
    if lam is not None:
        gens = [int(x) for x in lam.split(",") if x]
    else:
        gens = spec.get("lambda_generators", ())
    return C.resolve_parameter(ring, eps, gens)


def _qm_from_args(args, param, field="qm"):
    ref = getattr(args, field)
    if ref.strip().startswith("{"):
        ref = json.loads(ref)
    return C.resolve_quadratic(param, ref)


def _json_list(value):
    if not isinstance(value, list):
        raise ValueError("expected a JSON list, got %s" % json.dumps(value))
    return value


def _element(module, blocks):
    """A module element from a JSON list of ring indices."""
    if not all(isinstance(b, int) and not isinstance(b, bool)
               for b in _json_list(blocks)):
        raise ValueError("an element is a JSON list of integer ring "
                         "indices, got %s" % json.dumps(blocks))
    return module.element(blocks)


USR_NMAX = 2


class Inconclusive(Exception):
    """A run that ends without a verdict; main prints the reason, exit 1."""


def _usr_from_args(args, ring, param):
    """An explicit --usr as given, otherwise usr(R) measured up to
    USR_NMAX; raises Inconclusive when the measurement finds none."""
    if args.usr is not None:
        return args.usr
    usr = S.unitary_stable_rank(ring, param, USR_NMAX).value
    if usr is None:
        raise Inconclusive("usr(R) > %d: no bound to run the pipeline with"
                           % USR_NMAX)
    return usr


def cmd_suite(args):
    config = None
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ValueError("cannot read --config: %s" % exc) from exc
        if not isinstance(config, dict):
            raise ValueError("--config must hold a JSON object, got %s"
                             % type(config).__name__)
    rep = run_suite(args.name, config=config, seed=args.seed)
    print(render_table(rep))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(rep.to_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render_csv(rep))
    return rep.exit_code


def cmd_stable_rank(args):
    ring = _ring_from_args(args)
    res = S.stable_rank(ring, args.nmax)
    out = {
        "ring": ring.name,
        "sr": res.value,
        "reports": [r.to_dict() for r in res.reports],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if res.value is not None else 1


def cmd_usr(args):
    ring = _ring_from_args(args)
    param = _param_from_args(args, ring)
    res = S.unitary_stable_rank(ring, param, args.nmax, mode=args.eu_mode)
    out = {
        "ring": ring.name,
        "epsilon": param.epsilon,
        "lambda_size": len(param.lam),
        "usr": res.value,
        "semi_local_bound_ok": res.semi_local_ok,
        "reports": [r.to_dict() for r in res.reports],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if res.value is not None else 1


def cmd_straighten(args):
    from wittlab.quadratic import unitary_word

    ring = _ring_from_args(args)
    param = _param_from_args(args, ring)
    Q = _qm_from_args(args, param)
    seq = [_element(Q.module, blocks)
           for blocks in _json_list(json.loads(args.seq))]
    usr = _usr_from_args(args, ring, param)
    phi = B.hyperbolic_straighten(Q, seq, args.k, usr=usr)
    images = [[int(b) for b in phi(v).ring_blocks()] for v in seq]
    print(json.dumps({"images": images, "moves": unitary_word(phi),
                      "verified": True}, sort_keys=True))
    return 0


def cmd_transitive_move(args):
    ring = _ring_from_args(args)
    param = _param_from_args(args, ring)
    Q = _qm_from_args(args, param)
    v = _element(Q.module, json.loads(args.v))
    r = int(args.r) if args.r is not None else Q.mu_rep(v)
    usr = _usr_from_args(args, ring, param)
    phi, target = B.transitive_move(Q, v, r, usr=usr)
    from wittlab.quadratic import unitary_word

    print(json.dumps({
        "image": [int(b) for b in phi(v).ring_blocks()],
        "target": [int(b) for b in target.ring_blocks()],
        "moves": unitary_word(phi),
        "verified": True,
    }, sort_keys=True))
    return 0


def cmd_cancel(args):
    ring = _ring_from_args(args)
    param = _param_from_args(args, ring)
    Qm = _qm_from_args(args, param, "qm")
    Qn = _qm_from_args(args, param, "qn")
    from wittlab.quadratic import direct_sum_quadratic, hyperbolic, \
        is_quad_isomorphic

    H1 = hyperbolic(param, 1)
    MH, _, _ = direct_sum_quadratic(Qm, H1)
    NH, _, _ = direct_sum_quadratic(Qn, H1)
    iso = is_quad_isomorphic(MH, NH)
    if iso is None:
        print(json.dumps({"error": "M + H and N + H are not isometric"}))
        return 2
    usr = _usr_from_args(args, ring, param)
    beta = B.cancel_H(Qm, Qn, iso, sums=(MH, NH), usr=usr)
    print(json.dumps({
        "isometry": [[int(b) for b in beta(g).ring_blocks()]
                     for g in Qm.module.gens()],
        "verified": True,
    }, sort_keys=True))
    return 0


def _instance_digest(theorem, instance):
    payload = json.dumps({"theorem": theorem, "instance": instance},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _source_digest():
    """sha256 over the package's Python sources (paths and contents)."""
    root = pathlib.Path(wittlab.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _cache_key(digest):
    """The instance digest bound to the code that computes the verdict, so a
    cached verdict never outlives that code."""
    payload = "%s:%s:%s" % (digest, wittlab.__version__, _source_digest())
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_atomic(path, data):
    """Write JSON to path through a temp file in the same directory."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_cached(path):
    """The cached verify output at path, or None on a miss: no file, or one
    that is not JSON holding a dict with a verdict dict (say, truncated)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if isinstance(data, dict) and isinstance(data.get("verdict"), dict):
        return data
    return None


def _resolve_instance(instance):
    ring = C.resolve_ring(instance["ring"])
    param = C.resolve_parameter(ring, instance.get("epsilon"),
                                instance.get("lambda"))
    out = {"ring": ring, "param": param}
    if "quadratic" in instance:
        out["Q"] = C.resolve_quadratic(param, instance["quadratic"])
    if "module" in instance:
        out["M"] = C.resolve_module(ring, instance["module"])
    return out


def _exit_code(verdict):
    """0 when the verdict holds, 2 when it is refuted, 1 otherwise."""
    result = verdict.get("result")
    return 0 if result in V.PROVED else 2 if result == "refuted" else 1


def cmd_complex(args):
    instance = json.loads(args.instance)
    _name, entry = V.lookup(args.theorem)
    key = "module" if entry.rank == "sr" else "quadratic"
    if not isinstance(instance, dict) or key not in instance:
        raise ValueError("%s needs an instance with a %r key"
                         % (args.theorem, key))
    digest = _instance_digest(args.theorem, instance)
    cache_dir = os.environ.get("WITTLAB_CACHE_DIR")
    cache_path = None
    if cache_dir and args.action == "verify":
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, _cache_key(digest) + ".json")
        data = None if args.no_cache else _read_cached(cache_path)
        if data is not None:
            data["cached"] = True
            print(json.dumps(data, indent=2, sort_keys=True))
            return _exit_code(data["verdict"])
    parts = _resolve_instance(instance)
    if entry.rank == "sr":
        X = module = parts["M"]
        rank = S.stable_rank(parts["ring"], 2).value
    else:
        X = parts["Q"]
        module = X.module
        rank = S.unitary_stable_rank(parts["ring"], parts["param"], 2).value
    base = [tuple(_element(module, b) for b in _json_list(blocks))
            if entry.base == "pair" else _element(module, blocks)
            for blocks in _json_list(instance.get("base") or [])]
    if args.action == "build":
        # the vertices of the poset verify checks, linked at the base
        out = {"theorem": args.theorem, "instance_digest": digest}
        try:
            _bound, poset = V.theorem_poset(args.theorem, X, rank, base)
            out["vertices"] = len(poset.vertex_ids)
        except (CapExceeded, PosetCapExceeded) as exc:
            out["verdict"] = {"result": "inconclusive",
                              "detail": {"reason": str(exc)}}
        print(json.dumps(out, indent=2, sort_keys=True))
        return _exit_code(out["verdict"]) if "verdict" in out else 0
    out = V.verify(args.theorem, X, rank, base=base).to_dict()
    out["instance_digest"] = digest
    if cache_path:
        _write_atomic(cache_path, out)
    print(json.dumps(out, indent=2, sort_keys=True))
    return _exit_code(out["verdict"])


def build_parser():
    p = argparse.ArgumentParser(
        prog="wittlab",
        description="workbench for quadratic modules over finite rings")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("suite", help="run a verification suite")
    ps.add_argument("name", choices=sorted(SUITES))
    ps.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized cases (default 0)")
    ps.add_argument("--config", help="JSON config file for the suite")
    ps.add_argument("--json", help="write the JSON report here")
    ps.add_argument("--csv", help="write the CSV report here")
    ps.set_defaults(func=cmd_suite)

    pr = sub.add_parser("stable-rank", help="compute sr(R)")
    pr.add_argument("--ring", required=True)
    pr.add_argument("--nmax", type=int, default=3)
    pr.set_defaults(func=cmd_stable_rank)

    pu = sub.add_parser("usr", help="compute usr(R) for (R, eps, Lambda)")
    pu.add_argument("--ring", required=True)
    pu.add_argument("--epsilon", type=int, default=None)
    pu.add_argument("--lambda", dest="lambda_generators", default=None,
                    help="comma-separated Lambda generators")
    pu.add_argument("--nmax", type=int, default=2)
    pu.add_argument("--eu-mode", choices=["transvection", "full-u"],
                    default="transvection")
    pu.set_defaults(func=cmd_usr)

    pst = sub.add_parser("straighten", help="hyperbolic straightening")
    pst.add_argument("--ring", required=True)
    pst.add_argument("--epsilon", type=int, default=None)
    pst.add_argument("--lambda", dest="lambda_generators", default=None)
    pst.add_argument("--qm", required=True, help='e.g. "H^3"')
    pst.add_argument("--seq", required=True,
                     help="JSON list of elements (lists of ring indices)")
    pst.add_argument("--k", type=int, required=True)
    pst.add_argument("--usr", type=int, default=None)
    pst.set_defaults(func=cmd_straighten)

    pt = sub.add_parser("transitive-move", help="move v to e_1 + f_1 r")
    pt.add_argument("--ring", required=True)
    pt.add_argument("--epsilon", type=int, default=None)
    pt.add_argument("--lambda", dest="lambda_generators", default=None)
    pt.add_argument("--qm", required=True)
    pt.add_argument("--v", required=True, help="JSON element")
    pt.add_argument("--r", default=None)
    pt.add_argument("--usr", type=int, default=None)
    pt.set_defaults(func=cmd_transitive_move)

    pc = sub.add_parser("cancel", help="cancel a hyperbolic summand")
    pc.add_argument("--ring", required=True)
    pc.add_argument("--epsilon", type=int, default=None)
    pc.add_argument("--lambda", dest="lambda_generators", default=None)
    pc.add_argument("--qm", required=True)
    pc.add_argument("--qn", required=True)
    pc.add_argument("--usr", type=int, default=None)
    pc.set_defaults(func=cmd_cancel)

    px = sub.add_parser("complex", help="build/verify sequence posets")
    px.add_argument("action", choices=["build", "verify"])
    px.add_argument("--theorem", required=True, choices=V.NAMES,
                    help="a registry theorem; a -link name takes the "
                         "instance's base")
    px.add_argument("--instance", required=True, help="JSON instance")
    px.add_argument("--no-cache", action="store_true")
    px.set_defaults(func=cmd_complex)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (Inconclusive, MemoryError) as exc:
        detail = {"reason": V.exit_reason(exc)}
        print(json.dumps({"verdict": {"result": "inconclusive",
                                      "detail": detail}}, sort_keys=True))
        return 1
    except (CapExceeded, PosetCapExceeded, S.BudgetExceeded) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except (B.BlockError, KeyError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
