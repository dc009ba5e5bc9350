"""Blow-up rate recovery near the truncated boundary.

A field growing like K * d**(-beta) in the boundary gap d = R - r is a
straight line in log-log coordinates, so a least-squares line over a
window of gaps recovers (beta, K) in closed form.  The additive shift of
the explicit envelopes is negligible against K * d**(-beta) in any
reasonable window, which is why a linear fit suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import PowerNonlinearity, Problem
from .errors import ParameterError
from .weights import Domain, WeightFamily

SLACK = 0.05


@dataclass(frozen=True)
class RateFit:
    """Fitted boundary growth: u ~ K_hat * d**(-beta_hat) over the window."""

    beta_hat: float
    K_hat: float
    r2: float


@dataclass(frozen=True)
class EpsilonBoundsReport:
    """Envelope-ratio verdict, with the window's gaps d, values u and ratios."""

    ok: bool
    min_ratio: float
    max_ratio: float
    d: np.ndarray
    u: np.ndarray
    ratios: np.ndarray


def window_mask(grid, window) -> np.ndarray:
    """The grid's nodes whose gap d lies in window = (d_min, d_max); refuses a
    window out of order or holding fewer than 5 nodes."""
    d_min, d_max = window
    if not 0.0 < d_min < d_max:
        raise ParameterError(f"window must satisfy 0 < d_min < d_max; got {window}", "d_min", "d_max")
    d = grid.boundary_gap
    mask = (d >= d_min) & (d <= d_max)
    count = int(np.count_nonzero(mask))
    if count < 5:
        raise ParameterError(f"window {tuple(window)} covers only {count} nodes; need at least 5", "d_min", "d_max")
    return mask


def fit_blowup_rate(grid, u: np.ndarray, window) -> RateFit:
    """Least-squares line of log u against log d over the window nodes of grid."""
    mask = window_mask(grid, window)
    vals = u[mask]
    if np.any(vals <= 0.0):
        raise ParameterError("field must be strictly positive inside the fit window")
    x = np.log(grid.boundary_gap[mask])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    # constant data is a perfect flat line; the variance ratio is 0/0 noise
    r2 = 1.0 if np.ptp(y) == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        beta_hat=float(-slope),
        K_hat=float(math.exp(intercept)),
        r2=r2,
    )


def check_epsilon_bounds(
    grid,
    u: np.ndarray,
    K: float,
    beta: float,
    epsilon: float,
    window,
) -> EpsilonBoundsReport:
    """Ratios u / (K * d**(-beta)) over the window nodes of grid against 1 -+ epsilon.

    The continuum statement is a limit; on a finite grid SLACK is added on
    both sides and reported alongside the raw ratios.
    """
    mask = window_mask(grid, window)
    d = grid.boundary_gap[mask]
    values = u[mask]
    ratios = values / (K * d ** (-beta))
    min_ratio = float(np.min(ratios))
    max_ratio = float(np.max(ratios))
    ok = (min_ratio >= 1.0 - epsilon - SLACK) and (max_ratio <= 1.0 + epsilon + SLACK)
    return EpsilonBoundsReport(ok=ok, min_ratio=min_ratio, max_ratio=max_ratio, d=d, u=values, ratios=ratios)


def oracle_exact_1d(R: float = 1.0):
    """The one-dimensional problem u'' = u**3 with a closed-form solution.

    u*(x) = sqrt(2)/(R - x) satisfies u'' = u**3 exactly (differentiate
    twice: 2*sqrt(2)*(R-x)**(-3), which equals u***3), so posing the
    problem on a truncated interval with Dirichlet data taken from u* at
    both ends makes u* the unique solution.  Growth exponent 1 and
    amplitude sqrt(2) match the general boundary-rate formulas at
    p = 3 with unweighted flux and reaction.

    Returns the problem together with the evaluator u*.
    """
    if R <= 0.0:
        raise ParameterError(f"radius must be positive; got R={R}")

    def u_star(x):
        return math.sqrt(2.0) / (R - np.asarray(x, dtype=float))

    problem = Problem(
        domain=Domain.interval(R),
        weight=WeightFamily.constant(),
        nonlin=PowerNonlinearity(3.0),
        b_coef=1.0,
        source=0.0,
        boundary_value=u_star,
    )
    return problem, u_star
