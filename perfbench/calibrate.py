"""Machine-speed calibration.

The shared 2-core VM this benchmark was built on changes speed by up to 2x
over seconds to minutes, and CPU time tracks wall time, so the cause is a
slower CPU rather than waiting.  Raw times therefore spread more across runs
than any useful regression bound.  A run samples a fixed pure-Python kernel
(``Fraction`` arithmetic, list and dict work, like the package's inner loops)
every ``INTERVAL_S`` while it works, and scales each unit's time by
``NOMINAL_S / mean kernel time`` over that unit.  Set-up time is scaled
the same way by the start time of a bare interpreter, measured alternately
with it.  Reported times are seconds at the nominal speed; ``run.py`` also
prints the raw figures.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Median kernel time on the quietest runs of the 2-core x86-64 VM the
# benchmark was built on, under Python 3.11.
NOMINAL_S = 0.004
INTERVAL_S = 0.1
# Start of a bare interpreter on the same machine, the yardstick for setup_s.
NOMINAL_START_S = 0.03
_clock = time.perf_counter


def _kernel():
    row = [Fraction(i, 7) for i in range(1, 41)]
    acc = Fraction(0)
    for k in range(1, 25):
        c = Fraction(k, 3)
        row = [a - c * b if b else a for a, b in zip(row, row[1:] + row[:1])]
        acc += row[k]
    d: dict = {}
    for i in range(3000):
        d[(i % 53, i % 7)] = d.get((i % 53, i % 7), 0) + i
    return acc, d


def sample(reps: int = 3) -> list[float]:
    """Times of ``reps`` kernel passes, taken now."""
    out = []
    for _ in range(reps):
        t0 = _clock()
        _kernel()
        out.append(_clock() - t0)
    return out


def slowdown(samples) -> float:
    """How much slower than nominal the machine ran while ``samples`` were taken.

    Uses the interquartile mean: a unit's time tracks the average speed over
    it, while single kernel passes are noisy.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / NOMINAL_S


class Sampler:
    """Runs the kernel from a SIGALRM handler every ``INTERVAL_S``, also in
    the middle of a unit; the handler's time is kept in ``stolen`` so the
    caller can take it out of what it measures.  Single-threaded: the
    handler runs in the main thread between bytecodes.
    """

    def __init__(self, on_tick=None):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._on_tick = on_tick

    def _tick(self, signum, frame):
        t0 = _clock()
        _kernel()
        self.samples.append(_clock() - t0)
        if self._on_tick is not None:
            self._on_tick(_clock() - t0)
        self.stolen += _clock() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
