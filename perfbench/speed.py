"""The machine's speed, sampled while the program runs.

The machine this benchmark was built on changes speed in spells of
seconds to minutes, so raw wall time does not compare between runs.
`SpeedProbe` runs a fixed loop of `Fraction` arithmetic every
INTERVAL_S on a SIGALRM timer, in the main thread between two bytecodes
of whatever is running, and records how long the loop took.  It imports
nothing from appellseq.

* `clock()` is `time.perf_counter()` less the time spent in the loop, so
  timings taken with it leave the probe out.
* `scale(start, end)` is REFERENCE_S over the mean loop time from
  WINDOW_S before `start` to WINDOW_S after `end` (perf_counter times):
  multiplied by a `clock()` duration it gives reference seconds, the
  time the work would take on a machine where the loop takes
  REFERENCE_S.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
WINDOW_S = 0.05
REFERENCE_S = 0.00025


def probe_loop() -> None:
    s = Fraction(0)
    for k in range(1, 50):
        s += Fraction(1, k * k)


class SpeedProbe:
    """Samples the loop's time while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop()
        seconds = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "SpeedProbe":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi == lo:  # no sample in the window: take the latest before it
            lo -= 1
        window = self.durations[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
