"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark was built on runs the same code up to 2x slower in
phases lasting seconds to minutes, so a wall-clock time taken now cannot be
compared with one taken ten minutes later. The benchmark therefore times
this kernel between ops and reports op times in units of it: one ``cal`` is
the mean time of one run of :func:`kernel` over the blocks run between the
ops of that run. The kernel mixes the kinds of work gica does (an
interpreted scalar recursion, a loop of small numpy calls, and a vectorised
transfer-function inverse on a 2049-point grid), so it slows down with the
host as the ops do. It uses no gica code, so a change to gica cannot
change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal(2) * 0.3
_B = _RNG.standard_normal(2) * 0.3
_NOISE = _RNG.standard_normal(1200)
_Z = np.exp(-2j * np.pi * np.outer(np.arange(1, 5), np.linspace(0.0, 0.5, 2049)))
_COEF = _RNG.standard_normal((4, 2, 2)) * 0.2


def kernel() -> float:
    """One unit of reference work, about 15 ms on a 2 GHz vCPU."""
    x1 = x2 = acc = 0.0
    for i in range(30000):
        x = 1.6 * x1 - 0.81 * x2 + (i % 7) * 1e-3
        x2, x1 = x1, x
        acc += x
    xs = np.zeros(_NOISE.size + 2)
    for t in range(_NOISE.size):
        hist = xs[t : t + 2][::-1]
        xs[t + 2] = _A @ hist + _B @ hist + _NOISE[t]
    h = np.eye(2)[None] - np.einsum("kij,kf->fij", _COEF, _Z)
    return acc + float(xs.sum()) + float(np.abs(np.linalg.inv(h)).sum())


class Calibration:
    """Kernel time sampled between the ops of one run."""

    def __init__(self) -> None:
        kernel()  # first run is cold
        self.runs = 0
        self.total_s = 0.0

    def block(self, seconds: float) -> None:
        """Run the kernel for at least ``seconds``, and at least once."""
        spent = 0.0
        while spent == 0.0 or spent < seconds:
            start = perf_counter()
            kernel()
            spent += perf_counter() - start
            self.runs += 1
        self.total_s += spent

    @property
    def cal_s(self) -> float:
        """Mean kernel time: the length of one ``cal`` in this run, in seconds."""
        return self.total_s / self.runs
