"""Host-speed calibration for the benchmark's timings.

The reference box is a shared VM whose speed swings by up to half from one
minute to the next, and the swing slows every kind of task alike.  A fixed
pure-Python kernel, timed between tasks, measures that speed; each timing is
divided by `speed_factor(samples)` so that it reads in reference seconds:
the time the work takes when the kernel takes REFERENCE_S.  The kernel is
benchmark code, so a change to the library moves the timings and not the
factor.  The raw timings are reported next to the calibrated ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.0035  # kernel time on the 2-core reference box at its usual speed
INTERVAL_S = 0.15     # a pass takes a sample when this much time has passed since the last


_A = {(i % 4, i % 3, i % 5): Fraction(i - 20, i % 7 + 1) for i in range(30)}
_B = {(i % 3, i % 5, i % 2): Fraction(i % 9 - 4, i % 5 + 1) for i in range(20)}
_M = np.eye(6) + 0.1 * np.arange(36.0).reshape(6, 6) / 36.0


def kernel() -> float:
    """Fixed work like the library's: a sparse product of polynomials with
    rational coefficients (the exact layer) and small batched matrix algebra
    (the numeric layer)."""
    prod: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            prod[e] = prod.get(e, 0) + ca * cb
    x = np.ones((16, 6))
    for _ in range(10):
        y = np.einsum("ij,pj->pi", _M, x)
        x = np.linalg.solve(_M, y.T).T + 0.01 * x
    return float(len(prod)) + float(x.sum())


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed_factor(samples) -> float:
    """How much slower than the reference the host ran during the samples."""
    return statistics.median(samples) / REFERENCE_S
