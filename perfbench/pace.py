"""Host speed, sampled while the benchmark runs, to express times in
reference seconds.

The benchmark machine is a few vCPUs of a shared host.  Its speed moves by
up to 1.7x, for stretches of a second to a few minutes, for every process on
it: the same job, with the same inputs and the same hash seed, has taken
0.18 s in one run and 0.33 s in the next.  The process CPU time moves with
the wall time, so the cause is the host core, not steal, and the medians of
a run cannot average it out.

`Pace` times a fixed probe (pure-Python `Fraction` and dict work like
mustab's, and a sort of a list larger than a core's private caches)
`GAP_PROBES` times before every job and about every `INTERVAL_S` of process CPU time from a SIGPROF
handler, and records each probe's start and duration.  A wall span is
converted to reference seconds by

    (span - probes that ran inside it) * REFERENCE_PROBE_S / local probe mean

where the local mean is over the probes that started within `WINDOW_S` of
the span (at least the `MIN_PROBES` nearest ones), leaving out probes that
took more than twice their median, which were interrupted.
`REFERENCE_PROBE_S` is the probe's median on the reference machine when the
host was fast (see README.md), so a time in reference seconds is the wall
time the span would have taken there.  The probe is part of the benchmark,
so the program under test cannot change it; a program that does more work
takes more reference seconds.

On that host, over ten seeds of the plane_puiseux workload, jobs per
second spread by 17.6% (interquartile range over median) in wall time and
by 2.2% in reference seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.0021
INTERVAL_S = 0.1
WINDOW_S = 0.05
MIN_PROBES = 3
GAP_PROBES = 3

_P = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
_Q = {(i, j): Fraction(j - 3, i + 5) for i in range(4) for j in range(5)}
_ITEMS = [((i * 7919) % 10007, str(i)) for i in range(4000)]


def probe_work() -> int:
    product: dict = {}
    for (a, b), c in _P.items():
        for (d, e), f in _Q.items():
            key = (a + d, b + e)
            product[key] = product.get(key, 0) + c * f
    return len(product) + sorted(_ITEMS)[0][0]


class Pace:
    """Probe samples of one run, and the conversion of wall spans."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._probing = False

    def probe(self) -> None:
        self._probing = True
        try:
            t0 = time.perf_counter()
            probe_work()
            t1 = time.perf_counter()
        finally:
            self._probing = False
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def gap(self) -> None:
        """The probes between two timed spans."""
        for _ in range(GAP_PROBES):
            self.probe()

    def _on_prof(self, signum, frame) -> None:
        if not self._probing:
            self.probe()

    def start(self) -> None:
        """Probe about every INTERVAL_S of CPU time until stop()."""
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.gap()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the local probe mean around [t0, t1]."""
        a = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        b = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        while b - a < MIN_PROBES and (a > 0 or b < len(self.starts)):
            a, b = max(0, a - 1), min(len(self.starts), b + 1)
        local = self.durations[a:b]
        cap = 2 * statistics.median(local)
        return REFERENCE_PROBE_S / statistics.mean(d for d in local if d <= cap)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The wall span [t0, t1], less the probes inside it, in reference
        seconds."""
        inside = sum(self.durations[bisect.bisect_left(self.starts, t0) : bisect.bisect_left(self.starts, t1)])
        return (t1 - t0 - inside) * self.scale(t0, t1)

    def median_probe_s(self) -> float:
        return statistics.median(self.durations)
