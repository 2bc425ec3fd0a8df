"""Batch verification suites driving the whole workbench.

Each suite returns a SuiteReport; a "critical" case is an in-hypothesis
refutation or a replay mismatch, "inconclusive" marks budget/cap exits.
"""

import itertools
import random

from wittlab import blocks as B
from wittlab import catalog as C
from wittlab import stable_range as S
from wittlab.modules import free_module
from wittlab.posets import _PairTables
from wittlab.quadratic import (
    direct_sum_quadratic,
    hyperbolic,
    is_lambda_unimodular,
    is_quad_isomorphic,
    witt_index,
)
from wittlab.reports import SuiteReport
from wittlab.verify import verify, verify_link_isos


def _quad_axiom_sweep(Q, cap=2048):
    """Exhaustive axiom (1)-(3) check over all element pairs (vectorized
    for free presentations, elementwise otherwise)."""
    if Q.size > cap:
        return "skipped(cap)"
    if Q.module.relators:
        return _quad_axiom_sweep_slow(Q, cap=min(cap, 256))
    import numpy as np

    ring = Q.ring
    m, d = ring.base_mod, ring.base_dim
    eps = Q.param.epsilon
    tables = _PairTables(Q, cap=cap)
    lam = tables.lam
    mul, add, conj = ring.mul, ring.add, ring.conj
    if not np.array_equal(lam, mul[eps][conj[lam.T]]):
        return "axiom1-fails"
    X = np.array([x.vec for x in tables.elems], dtype=np.int64)
    powers = np.array([m ** t for t in range(d)], dtype=np.int64)
    qcoords = [np.einsum("ij,jk,ik->i", X,
                         np.array(Q._q_pair[t], dtype=np.int64), X) % m
               for t in range(d)]
    qxx = sum(c * p for c, p in zip(qcoords, powers))
    rep = Q.param._rep
    # free module: canonical form is the raw sum and the enumeration order
    # is mixed-radix with the last coordinate fastest
    nd = Q.module.nd
    powers_rev = np.array([m ** (nd - 1 - t) for t in range(nd)],
                          dtype=np.int64)
    if not np.array_equal(X @ powers_rev, np.arange(len(X))):
        return _quad_axiom_sweep_slow(Q, cap=min(cap, 256))
    Sidx = np.empty((len(X), len(X)), dtype=np.int64)
    for i in range(len(X)):
        Sidx[i] = ((X[i] + X) % m) @ powers_rev
    lhs = rep[add[add[qxx[:, None], qxx[None, :]], lam]]
    rhs = rep[qxx[Sidx]]
    if not np.array_equal(lhs, rhs):
        return "axiom3-fails"
    for a in range(ring.size):
        Ra = np.zeros((nd, nd), dtype=np.int64)
        for b in range(Q.module.ngens):
            Ra[b * d:(b + 1) * d, b * d:(b + 1) * d] = ring.Rmat[a]
        idxA = ((X @ Ra.T) % m) @ powers_rev
        lhs2 = rep[qxx[idxA]]
        rhs2 = rep[mul[mul[conj[a], qxx], a]]
        if not np.array_equal(lhs2, rhs2):
            return "axiom2-fails"
    return "pass"


def _quad_axiom_sweep_slow(Q, cap=256):
    if Q.size > cap:
        return "skipped(cap)"
    ring = Q.ring
    eps = Q.param.epsilon
    elems = list(Q.module.elements(cap=cap))
    for x in elems:
        for a in range(ring.size):
            lhs = Q.mu_rep(x * a)
            r = Q.q_vec(x.vec, x.vec)
            rhs = int(ring.mul[ring.mul[ring.conj[a], r], a])
            if Q.param.coset_rep(rhs) != lhs:
                return "axiom2-fails"
        for y in elems:
            if Q.lam(x, y) != int(ring.mul[eps, ring.conj[Q.lam(y, x)]]):
                return "axiom1-fails"
            s = Q.q_vec(x.vec, x.vec)
            t = Q.q_vec(y.vec, y.vec)
            rhs = int(ring.add[ring.add[s, t], Q.lam(x, y)])
            if Q.param.coset_rep(rhs) != Q.mu_rep(x + y):
                return "axiom3-fails"
    return "pass"


def suite_axioms(config=None, seed=0):
    rep = SuiteReport("axioms", seed=seed, config=config)
    for rname in C.ring_names():
        try:
            ring = C.catalog_ring(rname)
            rep.add("ring:%s" % rname, "pass", {"size": ring.size})
        except Exception as exc:  # construction must never fail
            rep.add("ring:%s" % rname, "construction-failed",
                    {"error": str(exc)}, critical=True)
            continue
        for pname, param in C.catalog_parameters(rname):
            rep.add("param:%s" % pname, "pass",
                    {"lambda_size": len(param.lam)})
        for mname, module in C.catalog_modules(rname):
            rep.add("module:%s:%s" % (rname, mname), "pass",
                    {"size": module.size})
        for qname, build in C.catalog_quadratics(rname):
            try:
                Q = build()
            except Exception as exc:
                rep.add("quad:%s" % qname, "construction-failed",
                        {"error": str(exc)}, critical=True)
                continue
            status = _quad_axiom_sweep(Q)
            rep.add("quad:%s" % qname, status,
                    {"size": Q.size},
                    critical=status.endswith("fails"))
    return rep.finish()


def suite_stable_rank(config=None, seed=0):
    rep = SuiteReport("stable-rank", seed=seed, config=config)
    for rname in C.ring_names():
        ring = C.catalog_ring(rname)
        res = S.stable_rank(ring, 2)
        ok = res.value == 1  # finite rings are semi-local: sr = 1
        rep.add("sr:%s" % rname, "sr=%s" % res.value,
                {"expected": 1}, critical=not ok)
        for pname, param in C.catalog_parameters(rname):
            try:
                usr = S.unitary_stable_rank(ring, param, 2)
            except S.BudgetExceeded as exc:
                rep.add("usr:%s" % pname, "budget", {"error": str(exc)},
                        inconclusive=True)
                continue
            ok = usr.value is not None and usr.value <= 2
            rep.add("usr:%s" % pname, "usr=%s" % usr.value,
                    {"modes": [r.mode for r in usr.reports if r.mode]},
                    critical=not ok)
    return rep.finish()


def measured_usr(ring_name, param):
    res = S.unitary_stable_rank(C.catalog_ring(ring_name), param, 2)
    if res.value is None:
        raise S.BudgetExceeded("usr undetermined for %s" % ring_name)
    return res.value


def _all_antifunctionals(M):
    ring = M.ring
    out = []
    for values in itertools.product(range(ring.size), repeat=M.ngens):
        try:
            out.append(B.AntiFunctional(M, values))
        except B.BlockError:
            pass
    return out


def _exhaustive_blocks(ring, M, n, k):
    funcs = _all_antifunctionals(M)
    for entries in itertools.product(range(ring.size), repeat=n * k):
        mat = [list(entries[i * k:(i + 1) * k]) for i in range(n)]
        for fs in itertools.product(funcs, repeat=k):
            yield B.Block(M, mat, list(fs))


def suite_blocks(config=None, seed=0):
    rep = SuiteReport("blocks", seed=seed, config=config)
    rng = random.Random(seed)
    GF2 = C.catalog_ring("gf2")
    M2 = free_module(GF2, 1)
    checked = reduced = 0
    for n, k in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        if k + 1 > n + 1:
            continue
        for A in _exhaustive_blocks(GF2, M2, n, k):
            checked += 1
            if B.is_unimodular_block(A) is None:
                continue
            try:
                cert = B.matrix_reduce(A, sr=1)
            except B.BlockError as exc:
                rep.add("gf2:%dx%d" % (n, k), "reduce-failed",
                        {"error": str(exc)}, critical=True)
                break
            if not cert.replay_ok():
                rep.add("gf2:%dx%d" % (n, k), "replay-mismatch", {},
                        critical=True)
                break
            reduced += 1
    rep.add("gf2:sweep", "pass", {"blocks": checked, "reduced": reduced})
    # sampled Z/4 sweep with the brute-force unimodularity oracle
    Z4 = C.catalog_ring("z4")
    from wittlab.modules import Module

    MZ = Module(Z4, 1, ((2,),))
    funcs = _all_antifunctionals(MZ)
    agree = 0
    for _ in range(150):
        n, k = rng.choice([(2, 1), (3, 1), (2, 2), (3, 2)])
        mat = [[rng.randrange(4) for _ in range(k)] for _ in range(n)]
        fs = [rng.choice(funcs) for _ in range(k)]
        A = B.Block(MZ, mat, fs)
        fast = B.is_unimodular_block(A) is not None
        slow = B.is_unimodular_block_bruteforce(A)
        if fast != slow:
            rep.add("z4:oracle", "oracle-mismatch",
                    {"matrix": mat}, critical=True)
            return rep.finish()
        agree += 1
        if fast and k + 1 <= n + 1:
            cert = B.matrix_reduce(A, sr=1)
            if not cert.replay_ok():
                rep.add("z4:replay", "replay-mismatch", {}, critical=True)
                return rep.finish()
    rep.add("z4:oracle", "pass", {"cases": agree})
    return rep.finish()


def random_in_hypothesis_instance(rng, param, usr, k=1, max_g=3,
                                  size_cap=8192):
    """A random quadratic module P + H^g with g >= usr + k and a random
    lambda-unimodular length-k sequence in it."""
    ring = param.ring
    g = rng.randrange(usr + k, max_g + 1) if max_g >= usr + k else usr + k
    Q = hyperbolic(param, g)
    if rng.random() < 0.5 and Q.size * ring.size <= size_cap:
        Q, _, _ = direct_sum_quadratic(Q, C.degenerate_point(param))
    elems = list(Q.module.elements(cap=size_cap))
    for _ in range(400):
        seq = [elems[rng.randrange(len(elems))] for _ in range(k)]
        if len({x.vec for x in seq}) < k:
            continue
        if is_lambda_unimodular(Q, seq) is not None:
            return Q, seq, g
    raise RuntimeError("failed to sample a lambda-unimodular sequence")


def suite_straighten(config=None, seed=0, per_ring=None):
    config = config or {}
    per_ring = per_ring or config.get("per_ring", 25)
    rep = SuiteReport("straighten", seed=seed, config=config)
    rng = random.Random(seed)
    for rname in C.ring_names():
        ring = C.catalog_ring(rname)
        # keep H^g (and H^g + degenerate) within the enumeration cap
        max_g = 1
        while max_g < 3 and ring.size ** (2 * (max_g + 1)) <= 8192:
            max_g += 1
        pname, param = C.catalog_parameters(rname)[0]
        try:
            usr = measured_usr(rname, param)
        except S.BudgetExceeded:
            rep.add("%s" % pname, "usr-budget", {}, inconclusive=True)
            continue
        if max_g < usr + 1:
            rep.add("%s" % pname, "skipped(cap)", {}, inconclusive=True)
            continue
        failures = 0
        done = 0
        for i in range(per_ring):
            k = 2 if (max_g >= usr + 2 and ring.size <= 3 and i % 3 == 0) \
                else 1
            try:
                Q, seq, g = random_in_hypothesis_instance(
                    rng, param, usr, k=k, max_g=max_g)
                phi = B.hyperbolic_straighten(Q, seq, k, usr=usr, cap=8192)
            except B.BlockError as exc:
                failures += 1
                rep.add("%s:case%d" % (pname, i), "failed",
                        {"error": str(exc)}, critical=True)
                continue
            done += 1
        rep.add("%s" % pname, "pass" if not failures else "failures",
                {"instances": done}, critical=failures > 0)
    return rep.finish()


def suite_transitivity(config=None, seed=0):
    rep = SuiteReport("transitivity", seed=seed, config=config)
    for rname in ("gf2", "z4"):
        pname, param = C.catalog_parameters(rname)[0]
        ring = param.ring
        usr = measured_usr(rname, param)
        for g in range(usr + 1, usr + 3):
            if ring.size ** (2 * g) > 1024:
                break
            Q = hyperbolic(param, g)
            frame = B.frame_for(Q, usr=usr)
            classes = {}
            for x in Q.module.elements(cap=2048):
                if x.is_zero():
                    continue
                if is_lambda_unimodular(Q, [x]) is None:
                    continue
                classes.setdefault(Q.mu_rep(x), []).append(x)
            bad = 0
            total = 0
            for r, members in sorted(classes.items()):
                for v in members:
                    total += 1
                    phi, target = B.transitive_move(Q, v, r, frame=frame,
                                                    usr=usr)
                    e1, f1 = frame.pairs[0]
                    if phi(v) != e1 + f1 * r:
                        bad += 1
            rep.add("%s:H^%d" % (pname, g),
                    "single-orbit" if bad == 0 else "orbit-failure",
                    {"classes": len(classes), "elements": total},
                    critical=bad > 0)
    return rep.finish()


def suite_cancellation(config=None, seed=0):
    rep = SuiteReport("cancellation", seed=seed, config=config)
    for rname in ("gf2", "z4"):
        pname, param = C.catalog_parameters(rname)[0]
        usr = measured_usr(rname, param)
        cases = []
        H = hyperbolic(param, 1)
        cases.append(("H~H", H, H))
        D = C.degenerate_point(param)
        Qm, _, _ = direct_sum_quadratic(H, D)
        Qn, _, _ = direct_sum_quadratic(D, H)
        cases.append(("H+deg", Qm, Qn))
        for cname, A, Bq in cases:
            if witt_index(A, usr=usr).g < usr:
                rep.add("%s:%s" % (pname, cname), "skipped(hypothesis)",
                        {}, inconclusive=True)
                continue
            H1 = hyperbolic(param, 1)
            AH, _, _ = direct_sum_quadratic(A, H1)
            BH, _, _ = direct_sum_quadratic(Bq, H1)
            iso = is_quad_isomorphic(AH, BH)
            if iso is None:
                rep.add("%s:%s" % (pname, cname), "no-sum-isometry", {},
                        critical=True)
                continue
            try:
                beta = B.cancel_H(A, Bq, iso, sums=(AH, BH), usr=usr)
            except B.BlockError as exc:
                rep.add("%s:%s" % (pname, cname), "cancel-failed",
                        {"error": str(exc)}, critical=True)
                continue
            cross = is_quad_isomorphic(A, Bq) is not None
            rep.add("%s:%s" % (pname, cname),
                    "pass" if cross else "cross-check-failed",
                    {}, critical=not cross)
    return rep.finish()


def _add_theorem(rep, case, report):
    rep.add(case, report.verdict.result, {"bound": report.bound},
            critical=report.critical,
            inconclusive=report.verdict.result == "inconclusive")


def suite_gl_connectivity(config=None, seed=0, n_max=4):
    rep = SuiteReport("gl-connectivity", seed=seed, config=config)
    GF2 = C.catalog_ring("gf2")
    sr = S.stable_rank(GF2, 2).value
    for n in range(2, n_max + 1):
        M = free_module(GF2, n)
        _add_theorem(rep, "gf2^%d" % n, verify("gl", M, sr))
        _add_theorem(rep, "gf2^%d:link" % n,
                     verify("gl-link", M, sr, base=[M.gen(0)]))
    return rep.finish()


def suite_quad_connectivity(config=None, seed=0, g_max=4):
    rep = SuiteReport("quad-connectivity", seed=seed, config=config)
    pname, param = C.catalog_parameters("gf2")[0]
    usr = measured_usr("gf2", param)
    rep.add("usr", "usr=%d" % usr, {})
    for g in range(1, g_max + 1):
        Q = hyperbolic(param, g)
        for theorem in ("iu", "hu"):
            _add_theorem(rep, "%s:H^%d" % (theorem, g),
                         verify(theorem, Q, usr))
    return rep.finish()


def suite_link_isos(config=None, seed=0):
    rep = SuiteReport("link-isos", seed=seed, config=config)
    pname, param = C.catalog_parameters("gf2")[0]
    usr = measured_usr("gf2", param)
    for g in (2, 3):
        Q = hyperbolic(param, g)
        if g < usr + 1:
            rep.add("H^%d" % g, "skipped(hypothesis)", {}, inconclusive=True)
            continue
        e1, f1 = Q.hyperbolic_pairs[0]
        res = verify_link_isos(Q, [(e1, f1)], usr=usr)
        if res.get("result") == "inconclusive":
            rep.add("H^%d" % g, "inconclusive", res, inconclusive=True)
            continue
        ok = res["iu"] and res["hu"] and res["decoration_count"]
        rep.add("H^%d" % g, "pass" if ok else "iso-failure",
                {k: v for k, v in res.items() if k != "Y_size"},
                critical=not ok)
    return rep.finish()


SUITES = {
    "axioms": suite_axioms,
    "stable-rank": suite_stable_rank,
    "blocks": suite_blocks,
    "straighten": suite_straighten,
    "transitivity": suite_transitivity,
    "cancellation": suite_cancellation,
    "gl-connectivity": suite_gl_connectivity,
    "quad-connectivity": suite_quad_connectivity,
    "link-isos": suite_link_isos,
}


def run_suite(name, config=None, seed=0):
    if name not in SUITES:
        raise KeyError("unknown suite %r (have: %s)" %
                       (name, ", ".join(sorted(SUITES))))
    return SUITES[name](config=config, seed=seed)
