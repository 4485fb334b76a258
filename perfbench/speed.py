"""Correction of measured times for the speed of a shared machine.

On a shared host the speed of one core changes by half or more within
seconds, as other tenants come and go, so raw wall times of the same work
spread wider between runs than any useful regression bound.  While a
``SpeedProbe`` is open, a timer signal interrupts the process every
``EVERY_S`` and times a fixed reference computation: pure-Python integer
orientation tests, the same kind of work as the program's.  An interval's
time, less the reference samples taken inside it, is then rescaled by
``REF_MS`` over the mean reference time from the last sample before the
interval to the first after it: the time the work would take on a machine
where the reference takes ``REF_MS``.  The reference is part of the
benchmark, so a change to the program does not move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

from checks import _cross

# Corrected times are for a machine where the reference takes this long.  It
# takes about 0.3-0.4 ms run alone on the x86_64 development VM and about
# 0.5 ms when sampled between operations.
REF_MS = 0.4
EVERY_S = 0.01

_rng = random.Random(0)
_REF_POINTS = [(_rng.randrange(-10**6, 10**6), _rng.randrange(-10**6, 10**6)) for _ in range(20)]
REF_LEFT_TURNS = 542


def reference() -> int:
    """Left turns among all triples i < j < k of the fixed points."""
    pts = _REF_POINTS
    n = len(pts)
    turns = 0
    for i in range(n):
        a = pts[i]
        for j in range(i + 1, n):
            b = pts[j]
            for k in range(j + 1, n):
                if _cross(a, b, pts[k]) > 0:
                    turns += 1
    return turns


class SpeedProbe:
    """Reference timings taken every ``EVERY_S`` while the probe is open.

    Samples run in the signal handler, between two bytecodes of whatever
    the process is running, so they never overlap and are in time order.
    """

    def __init__(self) -> None:
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.ms: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        if reference() != REF_LEFT_TURNS:
            raise RuntimeError("the reference computation gave a wrong answer")
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def _on_timer(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        start = time.perf_counter_ns()
        reference()
        end = time.perf_counter_ns()
        self.start_ns.append(start)
        self.end_ns.append(end)
        self.ms.append((end - start) / 1e6)

    def correct(self, start_ns: int, end_ns: int) -> tuple[float, float]:
        """(wall ms, corrected ms) of an interval timed while the probe was
        open; both leave out the reference samples taken inside it."""
        inside_lo = bisect.bisect_left(self.start_ns, start_ns)
        inside_hi = bisect.bisect_right(self.end_ns, end_ns)
        wall_ms = (end_ns - start_ns) / 1e6 - sum(self.ms[inside_lo:inside_hi])
        around = self.ms[max(inside_lo - 1, 0) : inside_hi + 1]
        return wall_ms, wall_ms * REF_MS / statistics.fmean(around)
