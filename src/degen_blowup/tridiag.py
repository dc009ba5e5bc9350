"""Tridiagonal matrices and Thomas-style elimination.

Storage convention: row j reads  lower[j]*u[j-1] + diag[j]*u[j] + upper[j]*u[j+1],
with lower[0] and upper[-1] fixed at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LinearSolveError


@dataclass
class Tridiagonal:
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.diag = np.asarray(self.diag, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.diag.size
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("band arrays must share one length")

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = self.diag * u
        out[1:] += self.lower[1:] * u[:-1]
        out[:-1] += self.upper[:-1] * u[1:]
        return out


def thomas_solve(mat: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs by forward elimination and back substitution.

    No pivoting; raises LinearSolveError on a zero or non-finite pivot.
    Row 0 is the general step with c = d = 0, since lower[0] is zero.  The
    loops index memoryviews, which yield Python floats without copying the
    bands into lists.
    """
    n = mat.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size != n:
        raise ValueError("rhs length does not match the matrix")
    c = memoryview(np.empty(n))
    d = memoryview(np.empty(n))
    out = np.empty(n)
    x = memoryview(out)
    c_prev = d_prev = 0.0
    rows = zip(
        memoryview(mat.lower), memoryview(mat.diag), memoryview(mat.upper), memoryview(rhs)
    )
    for j, (lo, di, up, b) in enumerate(rows):
        piv = di - lo * c_prev
        if piv == 0.0 or not math.isfinite(piv):
            raise LinearSolveError(f"singular pivot at row {j}")
        c_prev = c[j] = up / piv
        d_prev = d[j] = (b - lo * d_prev) / piv
    x_next = x[n - 1] = d[n - 1]
    for j in range(n - 2, -1, -1):
        x_next = x[j] = d[j] - c[j] * x_next
    return out
