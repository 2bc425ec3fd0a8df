"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --spawned EPOCH_SECONDS [--setup-only] [--spans FILE]

Writes JSON lines to stdout: {"setup": ...} once the inputs are built,
one {"op": ...} per op, then {"end": ...}.  `run.py` starts it; the
set-up time runs from `--spawned`, taken just before the process started.
Each op is timed alone, in wall seconds and in seconds at the reference
speed of `speed.py`; its output check runs afterwards with tracing off,
and a failing op (an exception, a failed verdict, a failed check) is
recorded with its reason without stopping the pass.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402


def digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    probe = speed.SpeedProbe()
    probe.start()
    probe_t0 = time.perf_counter()
    before_probe_s = time.time() - args.spawned

    # protocol lines go to the real stdout; anything the program prints
    # goes to stderr
    out = sys.stdout
    sys.stdout = sys.stderr

    def emit(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    tracer = None
    if args.trace:
        import tracing

        import wittlab.blocks  # noqa: F401  (bind every traced name first)
        import wittlab.verify  # noqa: F401
        import wittlab.catalog  # noqa: F401
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        tracer.open("setup")

    import numpy

    import workloads
    from wittlab import kernels

    ops = workloads.setup(args.workload, args.seed)
    setup_end = time.perf_counter()
    setup_s = time.time() - args.spawned
    if tracer:
        tracer.close()
    setup_ref_s = before_probe_s + probe.ref_seconds(probe_t0, setup_end)
    emit({"setup": {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
                    "ops": [op.name for op in ops],
                    "implementation": kernels.IMPLEMENTATION,
                    "python": platform.python_version(),
                    "numpy": numpy.__version__}})
    if args.setup_only:
        return

    for op in ops:
        if tracer:
            tracer.open("op")
        t0 = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # PosetCapExceeded, BudgetExceeded,
            output = None          # BlockError, MemoryError, ...
            error = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        if tracer:
            tracer.close()
            tracer.enabled = False
        if error is None:
            try:
                error = op.check(output)
                out_digest = digest(op.summary(output))
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
                out_digest = None
        else:
            out_digest = None
        if tracer:
            tracer.enabled = True
        emit({"op": {"name": op.name, "role": op.role, "seconds": t1 - t0,
                     "ref_s": probe.ref_seconds(t0, t1),
                     "ok": error is None, "reason": error,
                     "digest": out_digest}})
        output = None

    probe.stop()
    end = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.enabled = False
        end["layers"] = tracer.layer_metrics()
        end["coverage"], end["op_s"] = tracer.coverage()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.span_records(), fh)
    emit({"end": end})


if __name__ == "__main__":
    main()
