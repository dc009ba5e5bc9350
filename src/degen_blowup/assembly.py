"""Discretization of the weighted radial operator and its Newton linearization.

The continuum operator is -div(w grad u) + b f(u) - h on a ball or interval,
reduced to the radial coordinate.  Fluxes use the conservative form

    W_{j+1/2} = w(r_{j+1/2}) * r_{j+1/2}**(N-1)

evaluated at mid-edges, which keeps them finite when w is singular or
degenerate at nodes near the boundary and makes the operator exactly
symmetric.  Reaction, penalty and source terms carry the radial volume
weight mu_j = r_j**(N-1) * (dual cell width), so every residual entry is an
integrated (volume-weighted) quantity.  At the center of a ball mu_0
vanishes and row 0 degenerates to pure flux balance, which enforces the
symmetry condition u'(0) = 0 to second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssemblyError, OrderingError, ParameterError
from .grids import Grid
from .subsuper import BlowupParams
from .tridiag import Tridiagonal
from .weights import Domain, WeightFamily, eval_weight


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerNonlinearity:
    """Odd power law f(t) = sign(t)*|t|**p with p > 1."""

    p: float

    def __post_init__(self):
        if self.p <= 1.0:
            raise ParameterError(f"power nonlinearity needs p > 1; got p={self.p}")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.sign(t) * np.abs(t) ** self.p

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        return self.p * np.abs(t) ** (self.p - 1.0)


@dataclass(frozen=True)
class CallableNonlinearity:
    """User-supplied monotone nondecreasing f with its derivative."""

    func: Callable
    deriv: Callable

    def value(self, t):
        return np.asarray(self.func(np.asarray(t, dtype=float)), dtype=float)

    def slope(self, t):
        return np.asarray(self.deriv(np.asarray(t, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# fields and problems
# ---------------------------------------------------------------------------

@dataclass
class DiscreteField:
    """Nodal values of a scalar function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.m,):
            raise ParameterError(
                f"field length {self.values.size} does not match grid size {self.grid.m}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("field values must all be finite")

    def copy(self) -> "DiscreteField":
        return DiscreteField(self.grid, self.values.copy())

    def interpolate_to(self, nodes: np.ndarray) -> np.ndarray:
        """Piecewise-linear interpolation onto arbitrary radii."""
        return np.interp(np.asarray(nodes, dtype=float), self.grid.nodes, self.values)


def constant_field(grid: Grid, value: float) -> DiscreteField:
    return DiscreteField(grid, np.full(grid.m, float(value)))


def field_from_callable(grid: Grid, func) -> DiscreteField:
    return DiscreteField(grid, np.asarray(func(grid.nodes), dtype=float))


def _as_function(spec, name: str) -> Callable[[np.ndarray], np.ndarray]:
    if callable(spec):
        return lambda r: np.asarray(spec(np.asarray(r, dtype=float)), dtype=float)
    try:
        value = float(spec)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number or a callable of r") from None
    return lambda r: np.full_like(np.asarray(r, dtype=float), value)


@dataclass(frozen=True)
class Problem:
    """One boundary value problem -div(w grad u) + b f(u) = h, u = g.

    boundary_value may be a number or a callable of r; it supplies the
    Dirichlet datum at the truncated right end and, for interval domains,
    at the left end as well (ball centers carry the symmetry flux row
    instead of a Dirichlet row).  Sources are restricted to plain
    functions of r.
    """

    domain: Domain
    weight: WeightFamily
    nonlin: object
    b_coef: object = 1.0
    source: object = 0.0
    boundary_value: object = 0.0

    def b_at(self, r) -> np.ndarray:
        return _as_function(self.b_coef, "b_coef")(r)

    def h_at(self, r) -> np.ndarray:
        return _as_function(self.source, "source")(r)

    def g_at(self, r) -> np.ndarray:
        return _as_function(self.boundary_value, "boundary_value")(r)

    def dirichlet_mask(self, grid: Grid) -> np.ndarray:
        """True on rows that carry the Dirichlet datum."""
        mask = np.zeros(grid.m, dtype=bool)
        mask[-1] = True
        if self.domain.kind == "interval":
            mask[0] = True
        return mask

    def weight_at_gap(self, d) -> np.ndarray:
        out = eval_weight(self.weight, d)
        return np.atleast_1d(np.asarray(out, dtype=float))

    def sup_b_over_w(self, grid: Grid) -> float:
        """Numerical sup of |b/w| at the half-nodes of a grid.

        Finiteness of this ratio is the standing hypothesis that keeps the
        reaction term controlled by the weighted norm.
        """
        rh = grid.half_nodes
        ratio = np.abs(self.b_at(rh)) / self.weight_at_gap(grid.R - rh)
        if not np.all(np.isfinite(ratio)):
            raise ParameterError("b/w is not finite at all half-nodes")
        return float(np.max(ratio))


def radial_blowup_problem(params: BlowupParams, boundary_value=0.0) -> Problem:
    """The singular radial problem as a weighted reaction problem.

    Weight (R-r)**alpha, reaction coefficient b(r) = a(r)*(R-r)**gamma and
    power nonlinearity; b/w = a * (R-r)**(gamma-alpha) stays bounded
    because gamma - alpha >= 0.
    """
    weight = WeightFamily.constant() if params.alpha == 0.0 else WeightFamily.power(params.alpha)
    weight.validate_for_dimension(params.N)
    kind = "interval" if params.N == 1 else "ball"
    domain = Domain(kind=kind, R=params.R, N=params.N)

    def b_coef(r):
        return params.a_at(r) * (params.R - np.asarray(r, dtype=float)) ** params.gamma

    return Problem(
        domain=domain,
        weight=weight,
        nonlin=PowerNonlinearity(params.p),
        b_coef=b_coef,
        source=0.0,
        boundary_value=boundary_value,
    )


# ---------------------------------------------------------------------------
# truncated nonlinearity
# ---------------------------------------------------------------------------

@dataclass
class TruncatedNonlinearity:
    """f clamped nodewise to the slab [lower_j, upper_j].

    Evaluation returns f(lower_j) below the slab, f(t) inside and
    f(upper_j) above, so f is never sampled outside the slab and its
    global growth becomes irrelevant.  Slopes vanish on the clamped
    branches; at exact equality the clamp wins, keeping the Newton matrix
    an M-matrix for monotone f.
    """

    base: object
    lower: np.ndarray
    upper: np.ndarray

    def value(self, t: np.ndarray) -> np.ndarray:
        return self.base.value(np.clip(t, self.lower, self.upper))

    def slope(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = (t > self.lower) & (t < self.upper)
        return np.where(inside, self.base.slope(t), 0.0)


def truncate_nonlinearity(base, lower: DiscreteField, upper: DiscreteField) -> TruncatedNonlinearity:
    lo, hi = lower.values, upper.values
    if lo.shape != hi.shape:
        raise OrderingError("bound fields must live on the same grid")
    bad = lo > hi
    if np.any(bad):
        j = int(np.argmax(lo - hi))
        raise OrderingError(
            f"lower bound exceeds upper bound at node {j}: {lo[j]} > {hi[j]}"
        )
    return TruncatedNonlinearity(base=base, lower=lo.copy(), upper=hi.copy())


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def volume_weights(grid: Grid, n_dim: int) -> np.ndarray:
    """mu_j = r_j**(N-1) * dual cell width (vanishes at a ball center)."""
    return grid.nodes ** (n_dim - 1) * grid.cell_widths


def cell_volumes(grid: Grid, n_dim: int) -> np.ndarray:
    """Exact radial dual-cell volumes (r_right**N - r_left**N)/N.

    Strictly positive everywhere, including the center; used to normalize
    integrated residuals into pointwise ones for reporting.
    """
    edges = np.concatenate(([grid.nodes[0]], grid.half_nodes, [grid.nodes[-1]]))
    return np.diff(edges**n_dim) / n_dim


def edge_conductances(grid: Grid, problem: Problem) -> np.ndarray:
    """W_{j+1/2} / h_{j+1/2} with the weight taken at mid-edge gaps."""
    rh = grid.half_nodes
    w = problem.weight_at_gap(grid.R - rh)
    W = w * rh ** (problem.domain.N - 1)
    if not np.all(np.isfinite(W)):
        j = int(np.argmin(np.isfinite(W)))
        raise AssemblyError(f"weight evaluation failed at half-node {j} (r = {rh[j]})")
    return W / grid.spacings


def assemble_stiffness(grid: Grid, problem: Problem) -> Tridiagonal:
    """Symmetric conservative flux operator, before any boundary rows.

    Row j couples neighbours through the edge conductances; the operator
    annihilates constants and is positive semidefinite, with
    v.S.v = sum_j cond_j * (v_{j+1} - v_j)**2.
    """
    cond = edge_conductances(grid, problem)
    m = grid.m
    lower = np.zeros(m)
    diag = np.zeros(m)
    upper = np.zeros(m)
    lower[1:] = -cond
    upper[:-1] = -cond
    diag[:-1] += cond
    diag[1:] += cond
    return Tridiagonal(lower=lower, diag=diag, upper=upper)


def _check_penalty_args(penalty, lower, upper):
    if penalty < 0.0:
        raise ParameterError(f"penalty coefficient must be nonnegative; got {penalty}")
    if penalty > 0.0 and (lower is None or upper is None):
        raise ParameterError("a positive penalty needs both bound fields")


def assemble_residual(
    u: DiscreteField,
    problem: Problem,
    trunc: TruncatedNonlinearity | None = None,
    penalty: float = 0.0,
    lower: DiscreteField | None = None,
    upper: DiscreteField | None = None,
) -> DiscreteField:
    """Integrated nodal residual of the (optionally penalized) problem.

    Interior entry j:

        (S u)_j + b_j * f(u_j) * mu_j
            + penalty * ((u-lower)^- + (u-upper)^+)_j * w_j * mu_j
            - h_j * mu_j

    with f the truncated nonlinearity when one is supplied and the raw one
    otherwise.  Dirichlet rows hold u_j - g_j.  The one-sided parts follow
    the sign convention t^- = min(t, 0), t^+ = max(t, 0), so the penalty
    vanishes identically inside the slab.
    """
    _check_penalty_args(penalty, lower, upper)
    grid = u.grid
    r = grid.nodes
    mu = volume_weights(grid, problem.domain.N)
    stiff = assemble_stiffness(grid, problem)
    f = trunc if trunc is not None else problem.nonlin
    res = stiff.matvec(u.values)
    res += problem.b_at(r) * f.value(u.values) * mu
    if penalty > 0.0:
        w_nodes = problem.weight_at_gap(grid.boundary_gap)
        below = np.minimum(u.values - lower.values, 0.0)
        above = np.maximum(u.values - upper.values, 0.0)
        res += penalty * (below + above) * w_nodes * mu
    res -= problem.h_at(r) * mu
    mask = problem.dirichlet_mask(grid)
    res[mask] = u.values[mask] - problem.g_at(r[mask])
    if not np.all(np.isfinite(res)):
        j = int(np.argmin(np.isfinite(res)))
        raise AssemblyError(f"non-finite residual entry at node {j} (r = {r[j]})")
    return DiscreteField(grid, res)


def assemble_jacobian(
    u: DiscreteField,
    problem: Problem,
    trunc: TruncatedNonlinearity | None = None,
    penalty: float = 0.0,
    lower: DiscreteField | None = None,
    upper: DiscreteField | None = None,
) -> Tridiagonal:
    """Newton matrix: stiffness plus the diagonal reaction and penalty slopes.

    Clamped branches contribute zero reaction slope; the penalty indicator
    is active strictly outside the slab.  Dirichlet rows become identity
    rows.
    """
    _check_penalty_args(penalty, lower, upper)
    grid = u.grid
    r = grid.nodes
    mu = volume_weights(grid, problem.domain.N)
    jac = assemble_stiffness(grid, problem)
    f = trunc if trunc is not None else problem.nonlin
    diag_extra = problem.b_at(r) * f.slope(u.values) * mu
    if penalty > 0.0:
        w_nodes = problem.weight_at_gap(grid.boundary_gap)
        violated = (u.values < lower.values) | (u.values > upper.values)
        diag_extra += penalty * w_nodes * mu * violated
    jac.diag += diag_extra
    mask = problem.dirichlet_mask(grid)
    jac.diag[mask] = 1.0
    jac.lower[mask] = 0.0
    jac.upper[mask] = 0.0
    if not (np.all(np.isfinite(jac.diag)) and np.all(np.isfinite(jac.lower)) and np.all(np.isfinite(jac.upper))):
        raise AssemblyError("non-finite Jacobian entry")
    return jac
