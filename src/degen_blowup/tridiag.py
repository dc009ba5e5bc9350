"""Tridiagonal matrices and Thomas-style elimination.

Storage convention: row j reads  lower[j]*u[j-1] + diag[j]*u[j] + upper[j]*u[j+1],
with lower[0] and upper[-1] fixed at zero.

thomas_solve runs the elimination in C, kernels.load()'s thomas, in the
loop's operation order and without fused multiply-add, so the benchmark's
reference fields, stalled Newton iterates that move with the last bits of
every solve, keep their bits.  Only where no ``cc`` is on PATH does
thomas_solve run the pure-Python loop _thomas_loop, with the same operation
order and so the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SolverError


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

    def matvec(self, u: np.ndarray, lo: int = 0) -> np.ndarray:
        """Rows lo .. lo + len(u) - 1 of the product with a vector that is u there.

        Neighbours outside that window count as zero, so a window's first
        and last rows are exact only at the ends of the matrix; with lo = 0
        and u of full length this is the whole product.  Each row is
        (diag*u + lower*u_prev) + upper*u_next, in that order, for any window.
        """
        u = np.asarray(u, dtype=float)
        hi = lo + u.size
        out = self.diag[lo:hi] * u
        out[1:] += self.lower[lo + 1:hi] * u[:-1]
        out[:-1] += self.upper[lo:hi - 1] * u[1:]
        return out


def thomas_solve(mat: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs by forward elimination and back substitution.

    No pivoting; raises SolverError on a zero or non-finite pivot, naming the
    first such row.  The bands are mutable, so their lengths are checked here,
    before any of them reaches C, and C gets them as contiguous float arrays,
    copied where they are not.
    """
    n = mat.n
    arrays = [np.ascontiguousarray(a, dtype=float) for a in (mat.lower, mat.diag, mat.upper, rhs)]
    if n < 1 or any(a.shape != (n,) for a in arrays):
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ValueError(f"lower, diag, upper and rhs need n >= 1 values each; got shapes {shapes}")
    lib = kernels.load()
    if lib is None:
        return _thomas_loop(*arrays)
    d = np.empty(n)
    out = np.empty(n)
    bad = lib.thomas(n, *(a.ctypes.data for a in arrays), d.ctypes.data, out.ctypes.data)
    if bad >= 0:
        raise SolverError(f"singular pivot at row {bad}")
    return out


def _thomas_loop(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """thomas_solve in pure Python, for checked bands and rhs of one length n >= 1.

    Row 0 is the general step with c = d = 0, since lower[0] is zero.  The
    loops index memoryviews, which yield Python floats without copying the
    bands into lists.  Row j keeps its c and d at index j + 1 behind a
    leading 0.0, so the pivots are checked after the sweep by recomputing
    them all at once, diag - lower * c[j-1], with the loop's two roundings;
    a zero pivot stops the sweep early through ZeroDivisionError.
    """
    n = diag.size
    c_shifted = np.empty(n + 1)
    c_shifted[0] = 0.0
    c = memoryview(c_shifted)
    d = memoryview(np.empty(n + 1))
    out = np.empty(n)
    x = memoryview(out)
    c_prev = d_prev = 0.0
    swept = n
    rows = zip(
        range(1, n + 1),
        memoryview(lower),
        memoryview(diag),
        memoryview(upper),
        memoryview(rhs),
    )
    try:
        for k, lo, di, up, b in rows:
            piv = di - lo * c_prev
            c_prev = c[k] = up / piv
            d_prev = d[k] = (b - lo * d_prev) / piv
    except ZeroDivisionError:
        swept = k
    pivots = out[:swept]  # back substitution overwrites them
    np.multiply(lower[:swept], c_shifted[:swept], out=pivots)
    np.subtract(diag[:swept], pivots, out=pivots)
    if not (np.all(pivots) and np.all(np.isfinite(pivots))):
        bad = (pivots == 0.0) | ~np.isfinite(pivots)
        raise SolverError(f"singular pivot at row {int(np.argmax(bad))}")
    x_next = x[n - 1] = d_prev
    for c_j, d_j, j in zip(c[n - 1:0:-1], d[n - 1:0:-1], range(n - 2, -1, -1)):
        x_next = x[j] = d_j - c_j * x_next
    return out
