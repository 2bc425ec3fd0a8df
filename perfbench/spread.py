"""Run-to-run spread of the end-to-end metrics, and repeatability of the
per-layer counts.

    python3 perfbench/spread.py --seeds 1-10 [--workloads gl-certify,unitary]
    python3 perfbench/spread.py --repeat-traced 7

The first form runs every workload once per seed with tracing off and
prints, per workload and metric, the median of the runs, the distance
between their first and third quartiles as a share of the median, and
whether that spread is below a third of the metric's bound in
BENCHMARK.json.  With --seeds 1 it is the one-line-per-metric summary of
every workload.  The second form runs each workload twice traced with the
same seed and reports every per-layer count that differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if res.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), res.stderr))
    return json.loads(res.stdout.strip().splitlines()[-1])


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spreads(cfg, workloads, seeds):
    bounds = {m["name"]: m for m in cfg["end_to_end"]}
    steady = True
    for w in workloads:
        results = [run(w, s, cfg["run_seconds"], 0) for s in seeds]
        bad = sum(not r["correct"] for r in results)
        print("%s: %d runs, %d not correct, %d ops failed"
              % (w, len(results), bad, sum(r["failed"] for r in results)))
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / med
            else:
                share = 0.0
            ok = name == "setup_s" or share < m["bound"] / 3
            steady &= ok and not bad
            print("  %-12s median %11.6g %-4s spread %6.3f  bound %.2f  %s"
                  % (name, med, m["unit"], share, m["bound"],
                     "ok" if ok else "WIDE"))
    return steady


def repeat_traced(cfg, workloads, seed):
    same = True
    for w in workloads:
        a, b = (run(w, seed, cfg["run_seconds"], 1) for _ in range(2))
        diff = [k for k in a["metrics"]
                if not k.endswith("_s") and k != "trace.coverage"
                and a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        same &= not diff and a["correct"] and b["correct"]
        print("%s: traced runs correct %s/%s, counts differing: %s"
              % (w, a["correct"], b["correct"], diff or "none"))
    return same


def main():
    sys.stdout.reconfigure(line_buffering=True)
    cfg = bench()
    names = [w["name"] for w in cfg["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat-traced", type=int, metavar="SEED")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if args.repeat_traced is not None:
        ok = repeat_traced(cfg, workloads, args.repeat_traced)
    else:
        ok = spreads(cfg, workloads, seed_list(args.seeds))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
