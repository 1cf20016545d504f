"""Times rescaled to a reference host speed.

A shared host's CPU speed drifts: the same analysis, in the same process,
takes up to 25% longer for minutes at a time, in CPU time as much as in wall
time. A fixed kernel with the instruction mix of hibreak's searches (Python
loops, ranking a vector, a pure-Python Cholesky factorization and small
dense solves) is timed before and after every measured interval; the
interval is rescaled by REFERENCE_S over the mean of the two kernel times.
The result reads as seconds on a host where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.0125
KERNEL_STEPS = 200


class HostClock:
    """Rescales intervals by kernel times taken right before and right after each."""

    def __init__(self):
        rng = np.random.default_rng(20170901)
        self.x = rng.standard_normal((400, 5))
        self.y = self.x @ np.ones(5) + rng.standard_normal(400)
        self.mark()

    def mark(self) -> None:
        """Take the kernel time that the next interval starts from."""
        self.last = self.kernel()

    def kernel(self) -> float:
        """Seconds for KERNEL_STEPS concentration steps on a fixed 400 x 5 problem."""
        start = time.perf_counter()
        beta = np.zeros(5)
        for _ in range(KERNEL_STEPS):
            r = self.y - self.x @ beta
            rows = np.sort(np.argsort(r * r, kind="stable")[:300])
            xs = self.x[rows]
            gram = xs.T @ xs
            _cholesky(gram.tolist())
            beta = np.linalg.solve(gram, xs.T @ self.y[rows])
        return time.perf_counter() - start

    def rescale(self, seconds: float) -> float:
        """Rescale an interval that ended just now and began after the last mark or rescale."""
        after = self.kernel()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return seconds * factor


def _cholesky(a: list[list[float]]) -> list[list[float]]:
    k = len(a)
    low = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            acc = a[i][j] - sum(low[i][m] * low[j][m] for m in range(j))
            low[i][j] = math.sqrt(acc) if i == j else acc / low[j][j]
    return low
