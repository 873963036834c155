"""Gauge how fast the machine runs while an operation runs, and scale by it.

On a shared host the same operation can take 1.6 times longer for seconds to
minutes at a time, and process CPU time slows down with it, so neither wall
nor CPU time repeats between runs. :class:`SpeedProbe` therefore runs a
small fixed slice of reference work in the measured thread itself, before
and after the measured interval and every ``INTERVAL_S`` during it (from a
SIGALRM handler), and reports the interval's wall time, less the time its
slices took, scaled to the slice's reference duration.

The slice shares no code with selfmix, so a change to the program cannot
move it. Its mix follows the program's: interpreter-bound dictionary and
string work, small dense matrix-vector products, and a pass over a buffer.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# A slice's duration on the reference machine (x86_64, 2 vCPUs, Python 3.11,
# NumPy 2.4 with OpenBLAS 0.3.31) in its common state.
REFERENCE_S = 0.003
INTERVAL_S = 0.2

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(64, 64)) / 8.0
_V = _RNG.normal(size=64)
_BUF = np.empty(1 << 17)


def _slice() -> float:
    counts: dict[str, int] = {}
    x = _V
    for i in range(5000):
        key = f"t{i % 997}"
        counts[key] = counts.get(key, 0) + 1
        if i % 16 == 0:
            x = np.tanh(_A @ x)
    _BUF.fill(1.0)
    return float(_BUF.sum() + x.sum() + len(counts))


class SpeedProbe:
    """Context manager around one measured interval; see the module docstring.

    Inside the ``with`` block, call :meth:`start` and :meth:`stop` right
    around the work; :meth:`scaled_seconds` is then its reference-speed time.
    """

    def __enter__(self) -> "SpeedProbe":
        self.slices: list[float] = []
        self._busy = 0.0
        self._in_slice = False
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def _take(self) -> None:
        if self._in_slice:
            return
        self._in_slice = True
        t0 = time.perf_counter()
        _slice()
        took = time.perf_counter() - t0
        self._in_slice = False
        self.slices.append(took)
        self._busy += took

    def _tick(self, signum, frame) -> None:
        self._take()

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._busy0 = self._busy

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0 - (self._busy - self._busy0)

    def scaled_seconds(self) -> float:
        return self.wall_s * REFERENCE_S / statistics.fmean(self.slices)
