"""Scaling measured times to a nominal processor speed.

On a shared virtual machine the processor's speed drifts by tens of percent
within seconds and between runs (see the README).  `SpeedProbe` samples that
speed on a timer: every PERIOD_S a SIGALRM handler normalises eight fixed
two-design nets with `reference.normalise`, pure Python that never touches
groundkit, once to warm the caches and once timed, so that neither the
program's code nor its data can change the probe's cost.  `scaled` turns
a measured interval into the time it would take on a machine that runs the
probe in NOMINAL_NS, using the probes taken during the interval (at least
MIN_SAMPLES, widened to the nearest ones for short intervals).  The handler
runs on the measuring thread between bytecodes; its own time is taken out of
the intervals it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter_ns

import reference as ref

PERIOD_S = 0.005
#: the probe's median time on the machine the README's figures come from
NOMINAL_NS = 26_000
MIN_SAMPLES = 9


class SpeedProbe:
    def __init__(self):
        pos = ref.universe(None, {(0,)}, 2, ref.full_pool(1))
        neg = ref.universe((0,), frozenset(), 2, ref.full_pool(1))
        self.nets = [(p, n) for p in pos[-40:-38] for n in neg[:4]]
        self.at = array("q")             # when each probe ended
        self.took = array("q")           # how long it took
        self.spent = array("q", [0])     # running total of time in probes

    def _sample(self, signum, frame) -> None:
        start = perf_counter_ns()
        for net in self.nets:            # warm-up: the program evicted these
            ref.normalise(net)
        t0 = perf_counter_ns()
        for net in self.nets:
            ref.normalise(net)
        t1 = perf_counter_ns()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self.spent.append(self.spent[-1] + t1 - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_ns(self) -> float:
        return statistics.median(self.took)

    def scaled(self, start_ns: int, end_ns: int) -> float:
        """Seconds from start_ns to end_ns, less the probes inside, at the
        nominal speed."""
        lo = bisect.bisect_left(self.at, start_ns)
        hi = bisect.bisect_right(self.at, end_ns)
        own = self.spent[hi] - self.spent[lo]
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        local = statistics.median(self.took[lo:hi])
        return (end_ns - start_ns - own) * NOMINAL_NS / local / 1e9
