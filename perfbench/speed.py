"""CPU-speed probe that normalises times measured on a shared host.

The host's speed drifts by 10-25% over seconds to minutes, following
load from outside this benchmark; no run length averages that away, and
it moves a median between two sessions as much as a real change would.
While a timed phase runs, ``SpeedProbe`` interrupts it every PERIOD_S
with a timer signal and times a fixed piece of pure-Python work of the
kind locpop does (small objects, tuples, sorting, dict building), with
the garbage collector off so the program's heap does not enter the
probe's time. The caller subtracts ``stolen_s``, the time spent in the
probe, from what it timed, and multiplies by ``scale`` to report it at
the reference speed:

    normalised seconds = measured seconds * REFERENCE_S / mean probe time

In trials of this design it cut the standard deviation of the log run
time of 30 repeated `locpop figures` runs from 10.9% to 4.2%.
"""

import gc
import signal
import time

PERIOD_S = 0.1
# A typical mean probe time on the machine the baseline was recorded on
# (2-core Intel Xeon, CPython 3.11.7). It only fixes the unit of
# normalised time, so that it reads close to wall time there.
REFERENCE_S = 0.9e-3


class _Point:
    __slots__ = ("x", "k")

    def __init__(self, x, k):
        self.x = x
        self.k = k


def _work():
    acc = 0.0
    for i in range(45):
        pairs = sorted(((i * 0.6180339 + k * 0.37) % 1.0, k) for k in range(20))
        points = {k: _Point(x, k) for x, k in pairs}
        acc += sum(p.x for p in points.values()) / len(points) + abs(pairs[0][0] - 0.5)
    return acc


class SpeedProbe:
    """Context manager sampling CPU speed while its body runs (main thread only)."""

    def __init__(self):
        self.samples = []
        self.stolen_s = 0.0

    def _sample(self, *_signal_args):
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _work()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.stolen_s += time.perf_counter() - entered

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def scale(self):
        """Factor taking a time measured under this probe to the reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
