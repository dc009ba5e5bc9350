"""Tridiagonal matrices and Thomas-style elimination.

Storage convention: row j reads  lower[j]*u[j-1] + diag[j]*u[j] + upper[j]*u[j+1],
with lower[0] and upper[-1] fixed at zero.
"""

from __future__ import annotations

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
    """
    n = mat.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size != n:
        raise ValueError("rhs length does not match the matrix")
    c = np.empty(n)
    d = np.empty(n)
    piv = mat.diag[0]
    if piv == 0.0 or not np.isfinite(piv):
        raise LinearSolveError("singular pivot at row 0")
    c[0] = mat.upper[0] / piv
    d[0] = rhs[0] / piv
    for j in range(1, n):
        piv = mat.diag[j] - mat.lower[j] * c[j - 1]
        if piv == 0.0 or not np.isfinite(piv):
            raise LinearSolveError(f"singular pivot at row {j}")
        c[j] = mat.upper[j] / piv
        d[j] = (rhs[j] - mat.lower[j] * d[j - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for j in range(n - 2, -1, -1):
        x[j] = d[j] - c[j] * x[j + 1]
    return x
