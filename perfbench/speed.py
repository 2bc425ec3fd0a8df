"""The machine's speed, sampled during the ops, to state times at a
reference speed.

On a shared machine the same pure-Python loop runs up to twice as slow in
some phases as in others, and the phases last from seconds to minutes, so
raw wall times of identical work spread by tens of percent between runs.
`SpeedProbe` runs a fixed small loop every PERIOD_S seconds from a SIGALRM
handler, on the interpreter thread that runs the ops, and records how long
it took.  `ref_seconds(a, b)` divides each stretch of [a, b] between probes
by the speed the probes on either side of it measured, and leaves out the
probes' own time: the seconds the interval would have taken at the speed
where the probe loop takes REF_S.
"""

import bisect
import signal
import time

PERIOD_S = 0.01
REF_S = 0.0002


def _probe_work():
    """Dict, tuple and integer work, like the interpreter-bound code of
    the ops; about 0.1-0.2 ms."""
    acc = 0
    table = {}
    for i in range(600):
        key = (i, i & 7)
        table[key] = acc
        acc = (acc + table[key] + i * i) % 1000003
    return acc


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.lengths = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe_work()
        self.lengths.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def ref_seconds(self, a, b):
        """Seconds at reference speed worth of the interval [a, b] of
        perf_counter time, the probes inside it excluded."""
        starts = self.starts[:]
        lengths = self.lengths[:len(starts)]
        lo = max(bisect.bisect_left(starts, a) - 1, 0)
        hi = bisect.bisect_right(starts, b) + 1
        total = 0.0
        cursor = a
        before = None
        for s, length in zip(starts[lo:hi], lengths[lo:hi]):
            if s < a:
                before = length
                continue
            pace = length if before is None else (before + length) / 2
            end = min(s, b)
            total += max(end - cursor, 0.0) * REF_S / pace
            if s > b:
                return total
            cursor = s + length
            before = length
        if before is None:
            raise RuntimeError("no speed probe ran")
        return total + max(b - cursor, 0.0) * REF_S / before
