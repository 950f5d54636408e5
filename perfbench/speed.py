"""Machine-speed probe: times stated at a fixed reference speed.

The hosts this benchmark runs on are shared, and the speed at which one
process runs drifts in spells of seconds to minutes: on a shared 2-vCPU
Xeon VM, 5-second medians of one fixed pure-Python loop ranged over
13-19 ms, and back-to-back `wgnfa query` calls over 1.4-2.7 s within
one minute.  A median of raw wall times then measures the neighbours.

So every timed interval is bracketed by, and sampled during by, a short
fixed probe loop that belongs to the benchmark (never to the program).
A SIGALRM every PERIOD_S runs the probe inside long calls.  The
interval's raw time is its wall time minus the probes run inside it,
and its scaled time is that raw time times NOMINAL_PROBE_S over the
median probe duration around it: the time the call would have taken at
the speed where the probe takes NOMINAL_PROBE_S.  Raw and scaled times
are both kept; the end-to-end time metrics report scaled ones.

The probe allocates no objects the garbage collector tracks, so it
does not shift the program's collections.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext

PERIOD_S = 0.01
NOMINAL_PROBE_S = 150e-6

# The probe touches a few kilobytes that stay in the core's caches, so
# its duration follows the machine and not the cache pollution the
# program causes around it.
_SORTED = list(range(0, 4096, 16))
_KEY = b"abcdabcdab"


def _probe_loop() -> int:
    acc = 0
    for i in range(300):
        acc += bisect_right(_SORTED, i & 4095) + len(_KEY[i & 7 :][::-1])
    return acc


class SpeedProbe:
    def __init__(self):
        self.starts = array("d")  # ascending
        self.durations = array("d")
        self._busy = False

    def probe(self, *_signal_args) -> None:
        if self._busy:  # a signal arrived while a probe ran
            return
        self._busy = True
        t0 = time.perf_counter()
        _probe_loop()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every PERIOD_S while the block runs."""
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """(raw, scaled) time of the interval a..b.

        Needs a probe before a and one after b.
        """
        lo = bisect_left(self.starts, a)
        hi = bisect_right(self.starts, b)
        if lo == 0 or hi == len(self.starts):
            raise ValueError("interval is not bracketed by probes")
        raw = b - a - sum(self.durations[lo:hi])
        # the median, because an interrupt can stretch a single probe
        speed = statistics.median(self.durations[lo - 1 : hi + 1])
        return raw, raw * NOMINAL_PROBE_S / speed

    def time_call(self, fn, sample: bool = True):
        """Run fn() between two probes, and with sample also under the
        periodic probe; returns (raw, scaled, fn's result)."""
        self.probe()
        with self.sampling() if sample else nullcontext():
            a = time.perf_counter()
            result = fn()
            b = time.perf_counter()
        self.probe()
        return (*self.scaled(a, b), result)
