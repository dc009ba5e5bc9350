"""Tridiagonal matrices and Thomas-style elimination.

Storage convention: row j reads  lower[j]*u[j-1] + diag[j]*u[j] + upper[j]*u[j+1],
with lower[0] and upper[-1] fixed at zero.

thomas_solve runs the elimination in C, kernels.load()'s thomas, in the
loop's operation order and without fused multiply-add, so the benchmark's
reference fields, stalled Newton iterates that move with the last bits of
every solve, keep their bits.  Only where no ``cc`` is on PATH does
thomas_solve run the pure-Python loop _thomas_loop, which mirrors the kernel:
it gives its bits and its errors, and does not warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SolverError


@dataclass
class Tridiagonal:
    """The three bands of a tridiagonal matrix, unchecked: thomas_solve checks them."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

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
    first such row.  This is the one place that checks a system: Tridiagonal
    takes its bands as given, and they may be reassigned after construction,
    so here, before C or _thomas_loop reads them, they become contiguous float
    arrays (copied where they are not) and must hold n >= 1 values each.
    """
    arrays = [np.ascontiguousarray(a, dtype=float) for a in (mat.lower, mat.diag, mat.upper, rhs)]
    n = arrays[1].size
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
    """thomas_solve in pure Python, for checked bands and rhs of one length n >= 1:
    the C kernel thomas row for row, with the kernel's bits and errors and no warnings."""
    n = diag.size
    out = np.empty(n)
    x = memoryview(out)  # the eliminated upper band until the back substitution overwrites it
    d = memoryview(np.empty(n))
    c_prev = d_prev = 0.0
    rows = zip(range(n), memoryview(lower), memoryview(diag), memoryview(upper), memoryview(rhs))
    for k, lo, di, up, b in rows:
        piv = di - lo * c_prev
        if piv == 0.0 or not math.isfinite(piv):
            raise SolverError(f"singular pivot at row {k}")
        c_prev = x[k] = up / piv
        d_prev = d[k] = (b - lo * d_prev) / piv
    x_next = x[n - 1] = d_prev
    for j in range(n - 2, -1, -1):
        x_next = x[j] = d[j] - x[j] * x_next
    return out
