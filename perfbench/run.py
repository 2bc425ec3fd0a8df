"""wittlab benchmark: closed-loop passes over one workload's op list.

    python3 perfbench/run.py --workload gl-certify --seed 1 --seconds 40 \
        --trace 0

Run from the root of a wittlab source tree (the package is imported from
`src/`).  One client, one op at a time.  Every pass runs in a fresh
interpreter with WITTLAB_CACHE_DIR unset, so no cache or in-process memo
carries a result from one pass to the next; passes repeat while the next
one is expected to end within --seconds.  Three set-up-only processes
before the passes add samples to setup_s.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
the tracing overhead, and self-checks of the tracing.  The last stdout
line is the JSON result; the lines before it are a readable report and
the run's stamp.  The full record (stamp, every op, spans of traced
passes) is written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

HARD_LIMIT_S = 170.0        # a run must end within 180 s
SETUP_PROBES = 3
OUT_DIR = os.path.join(HERE, "out")
E2E = ("setup_s", "pass_s", "peak_rss_mb", "route_a_s", "route_b_s")

# per-layer metrics that must be > 0 on a workload, proving the wrappers
# took effect
MUST_COUNT = {
    "gl-certify": ("kernels.howell_calls", "modules.is_unimodular_calls",
                   "posets.member_calls"),
    "quad-certify": ("posets.neighbors_calls",
                     "quadratic.lam_unimodular_calls"),
    "unitary": ("stable_range.eu_generators_calls",),
}
MIN_COVERAGE = 0.8
COUNT_SUFFIXES = ("_calls", "_cells", "_builds", "_bytes", "orbit_visits",
                  "fully_verified", "accept_ratio", "homology.cells")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("WITTLAB_CACHE_DIR", None)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, trace, deadline, setup_only=False, spans=None):
    """One worker process; returns its setup record, ops and end record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--spawned", repr(time.time())]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
        reason = "worker exited with code %d" % proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
        reason = "worker killed at the run's time limit"
    wall = time.perf_counter() - started
    record = {"setup": None, "ops": [], "end": None, "wall_s": wall,
              "trace": trace, "returncode": proc.returncode}
    for line in stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:    # a line cut off by a kill
            continue
        for key in ("setup", "end"):
            if key in msg:
                record[key] = msg[key]
        if "op" in msg:
            record["ops"].append(msg["op"])
    if record["setup"] is None:
        raise BenchError("worker failed before its first op (%s)" % reason)
    if not setup_only:
        done = {op["name"] for op in record["ops"]}
        for name in record["setup"]["ops"]:
            if name not in done:
                record["ops"].append({"name": name, "role": None,
                                      "seconds": None, "ref_s": None,
                                      "ok": False,
                                      "reason": reason, "digest": None})
    return record


def stats(values):
    """median, first and third quartile, sample count."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def pass_times(record, key):
    """Summed op times of one pass (key "ref_s": at reference speed,
    "seconds": wall): all ops, route a, route b.  Route a of a pass with
    moves is its median move latency."""
    ops = [op for op in record["ops"] if op[key] is not None]
    route = {r: sum(op[key] for op in ops if op["role"] == r)
             for r in ("a", "b")}
    moves = [op[key] for op in ops if op["role"] == "move"]
    if moves:
        route["a"] = statistics.median(moves)
    return sum(op[key] for op in ops), route, moves


def end_to_end(processes, passes, key):
    """Samples per metric: one per pass (setup_s: one per process)."""
    timed = [pass_times(p, key) for p in passes]
    setup_key = "setup_ref_s" if key == "ref_s" else "setup_s"
    series = {
        "setup_s": ([p["setup"][setup_key] for p in processes], "s"),
        "pass_s": ([t for t, _r, _m in timed], "s"),
        "peak_rss_mb": ([max(p["end"]["rss_mb"] for p in passes
                             if p["end"])], "MB"),
        "route_a_s": ([r["a"] for _t, r, _m in timed], "s"),
        "route_b_s": ([r["b"] for _t, r, _m in timed], "s"),
    }
    moves = [m for _t, _r, ms in timed for m in ms]
    if len(moves) > 1:
        series["move_p90_s"] = ([statistics.quantiles(moves, n=10)[8]], "s")
    return series


def layer_metrics(untraced, traced, workload):
    """Per-layer metrics (medians over traced passes) plus tracing
    overhead, coverage and self-check failures."""
    problems = []
    names = list(traced[0]["end"]["layers"])
    layers = {k: statistics.median(p["end"]["layers"][k] for p in traced)
              for k in names}
    for k in names:
        if k.endswith(COUNT_SUFFIXES):
            seen = {p["end"]["layers"][k] for p in traced}
            if len(seen) > 1:
                problems.append("count %s differs between traced passes: %s"
                                % (k, sorted(seen)))
    for k in MUST_COUNT[workload]:
        if not layers[k] > 0:
            problems.append("wrapper took no effect: %s = %s" % (k, layers[k]))
    digests = {}
    for p in untraced + traced:
        for op in p["ops"]:
            digests.setdefault(op["name"], set()).add(op["digest"])
    for name, ds in sorted(digests.items()):
        if len(ds) > 1:
            problems.append("op %s output differs between passes" % name)
    traced_s = statistics.median(pass_times(p, "ref_s")[0] for p in traced)
    untraced_s = statistics.median(pass_times(p, "ref_s")[0]
                                   for p in untraced)
    layers["trace.pass_s"] = traced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.coverage"] = statistics.median(p["end"]["coverage"]
                                                 for p in traced)
    if layers["trace.coverage"] < MIN_COVERAGE:
        problems.append("spans below the ops cover %.3f of op time"
                        % layers["trace.coverage"])
    return layers, problems


def git_stamp():
    def git(*cmd):
        try:
            res = subprocess.run(("git",) + cmd, capture_output=True,
                                 text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return sha, (bool(dirty) if sha is not None else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "wittlab", "__init__.py")):
        sys.exit("run.py: no src/wittlab here; run it from the root of a "
                 "wittlab source tree")

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        probes = [run_worker(args, 0, deadline, setup_only=True)
                  for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            trace = args.trace and len(passes) % 2 == 1
            spans = (os.path.join(OUT_DIR, "%s-pass%d-spans.json"
                                  % (tag, len(passes))) if trace else None)
            passes.append(run_worker(args, int(trace), deadline, spans=spans))
            if any(op["seconds"] is None for op in passes[-1]["ops"]):
                break           # the time limit cut the pass short
            if args.trace and len(passes) < 2:
                continue        # a traced run has at least one of each
            elapsed = time.perf_counter() - start
            expected = statistics.median(p["wall_s"] for p in passes)
            if elapsed + expected > min(args.seconds, HARD_LIMIT_S):
                break
    except BenchError as exc:
        sys.exit("run.py: %s" % exc)

    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    if args.trace and not traced:
        sys.exit("run.py: the time limit left no traced pass")
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    first = passes[0]["setup"]
    sha, dirty = git_stamp()
    stamp = {"git_sha": sha, "dirty": dirty,
             "implementation": first["implementation"],
             "python": first["python"], "numpy": first["numpy"],
             "nproc": os.cpu_count(), "seed": args.seed,
             "workload": args.workload, "trace": args.trace,
             "seconds": args.seconds,
             "op_list_digest": _digest(first["ops"])}
    problems = []
    if args.trace:
        layers, problems = layer_metrics(untraced, traced, args.workload)
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in layers.items()}
    else:
        series = end_to_end(probes + untraced, untraced, "ref_s")
        wall = end_to_end(probes + untraced, untraced, "seconds")
        metrics = {k: {"value": max(v) if k == "peak_rss_mb"
                       else statistics.median(v), "unit": u}
                   for k, (v, u) in series.items() if k in E2E}

    print("stamp %s" % json.dumps(stamp, sort_keys=True))
    print("%s: %d passes (%d traced), %d ops, %d failed"
          % (args.workload, len(passes), len(traced), len(ops), len(failed)))
    for op in failed:
        print("  FAILED %s: %s" % (op["name"], op["reason"]))
    for msg in problems:
        print("  SELF-CHECK %s" % msg)
    if args.trace:
        for k, m in metrics.items():
            print("  %-40s %14.6g %s" % (k, m["value"], m["unit"]))
    else:
        print("  %-12s %11s    %-34s %s" % ("", "median", "q1 .. q3 (n)",
                                               "wall median"))
        for k, (values, unit) in series.items():
            med, q1, q3, n = stats(values)
            print("  %-12s %11.6g %-2s %-34s %.6g" % (
                k, med, unit, "%.6g .. %.6g (%d)" % (q1, q3, n),
                stats(wall[k][0])[0]))
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump({"stamp": stamp, "probes": probes, "passes": passes,
                   "problems": problems, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": not failed and not problems,
                      "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("accept_ratio", "coverage")):
        return "ratio"
    return "count"


def _digest(names):
    return hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]


if __name__ == "__main__":
    main()
