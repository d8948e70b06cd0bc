"""Timing normalised to the host's momentary speed.

The benchmark's host shares its CPUs with other machines' work. Measured on
a shared 2-vCPU virtual machine, the same dem_number pass took from 0.26 s to 0.54 s in
20-second windows a minute apart, and even its fastest pass per window moved
as much, so no median or minimum over one run is steady. The speed of a
fixed calibration round follows those swings closely. So every interval is
measured as

    normalised = (measured - sampling) * REFERENCE_S / mean(calibration rounds)

that is, in seconds at the host speed at which one round takes REFERENCE_S.
The rounds are timed right before and right after the interval and, when
the work runs in this process, from a SIGALRM handler every TICK_S inside
it; ``sampling`` is the time those in-interval rounds took. Over eight 20-second windows the spread
(interquartile range over median) of the median pass time was 55 % as
measured and 2 % normalised by the rounds before and after; sampling inside
the interval also cut the coefficient of variation of single 0.05-1.3 s
past_cap solves from 5-13 % to 3-7 %. A round is the benchmark's own BFS
(``checker.bfs``) and shares no code with demkit, so no change to demkit can
move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import checker

# about one round's time on an uncontended vCPU of that machine, so that
# normalised figures read close to its uncontended seconds
REFERENCE_S = 0.0018
TICK_S = 0.025  # period of the rounds inside an interval
# Rounds timed after each interval (and before the first): at least
# BRACKET_ROUNDS, and enough to fill BRACKET_SHARE of the interval, so that a
# long interval is bracketed by more than a moment of the host's speed.
BRACKET_ROUNDS = 2
BRACKET_SHARE = 0.05

_N = 30
_ADJ = checker.adjacency(_N, [(i, (i + 1) % _N) for i in range(_N)] + [(i, (i + 7) % _N) for i in range(_N)])
_CUTS = [(u, v) for u in range(_N) for v in _ADJ[u] if u < v]


def calibration(rounds: int = 1) -> float:
    """Seconds per round of the fixed task: BFS from one vertex with each
    edge cut in turn."""
    start = time.perf_counter()
    for _ in range(rounds):
        for cut in _CUTS:
            checker.bfs(_ADJ, 0, cut)
    return (time.perf_counter() - start) / rounds


class Interval:
    """One measured interval; filled in when its ``with`` block ends."""

    seconds = 0.0  # normalised
    raw = 0.0  # as measured, less the in-interval rounds
    elapsed = 0.0  # as measured, including them


class Clock:
    """Measures back-to-back intervals in normalised seconds.

    Call :meth:`start` before a run of intervals; the rounds after one
    interval serve as the rounds before the next.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._sampling = 0.0
        self._armed = False
        self._before = calibration(BRACKET_ROUNDS)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self._armed:  # a signal that arrived as the interval ended
            return
        start = time.perf_counter()
        took = calibration()
        self._samples.append(took)
        self._sampling += time.perf_counter() - start

    def start(self) -> None:
        self._before = calibration(BRACKET_ROUNDS)

    @contextmanager
    def measure(self, sample: bool = True):
        """Time the ``with`` block. ``sample=False`` skips the rounds inside
        it, for work done by a child process: on the shared vCPU the two
        would split the time and the rounds would misread the host speed."""
        interval = Interval()
        self._samples, self._sampling, self._armed = [], 0.0, sample
        if sample:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            yield interval
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            interval.elapsed = time.perf_counter() - start
            after = calibration(
                max(BRACKET_ROUNDS, round(BRACKET_SHARE * interval.elapsed / REFERENCE_S))
            )
            rounds = [self._before, *self._samples, after]
            self._before = after
            interval.raw = interval.elapsed - self._sampling
            interval.seconds = interval.raw * REFERENCE_S / statistics.fmean(rounds)
