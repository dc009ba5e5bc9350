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
symmetry condition u'(0) = 0 to second order.  A Dirichlet row u_j = g_j is
data: an identity row of the operator, mu_j = 0 and right-hand side g_j.
``GridTerms`` holds them and the slab [lower, upper] of nodal bounds that
truncates f between a sub- and a supersolution (Amann): f only sees u
clipped to it; a missing bound is +-inf.

The residual and the Jacobian's diagonal are assembled row by row in C
(``residual_rows`` and ``jacobian_diag`` in _kernels.c, loaded by
kernels.load), in numpy's operation order and without fused multiply-add.
Only where no C compiler is found do the numpy formulas here run; they
mirror the kernels, give their bits and errors, and do not warn.  The clip
to the slab, f and f' stay in numpy: f may be user code, and numpy's array
power need not round as the C library's pow does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import ParameterError, SolverError
from .grids import Grid
from .subsuper import BlowupParams
from .tridiag import Tridiagonal
from .weights import Domain, WeightFamily, eval_weight


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerNonlinearity:
    """Odd power law f(t) = sign(t)*|t|**p with p > 1.

    value and slope give the bits of sign(t) * |t|**p and p * |t|**(p - 1),
    computed in place on one fresh array each: at m = 200001 a fresh array
    costs about as much as the power.
    """

    p: float

    def __post_init__(self):
        if self.p <= 1.0:
            raise ParameterError(f"power nonlinearity needs p > 1; got p={self.p}")

    def value(self, t):
        out = np.array(t, dtype=float)
        negative = out < 0.0
        np.abs(out, out=out)
        out **= self.p
        return np.negative(out, out=out, where=negative)

    def slope(self, t):
        out = np.abs(np.asarray(t, dtype=float))
        out **= self.p - 1.0
        out *= self.p
        return out


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
# problems
# ---------------------------------------------------------------------------

def as_function(spec, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """A number or a callable of r as a callable of r returning float arrays."""
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
        return as_function(self.b_coef, "b_coef")(r)

    def h_at(self, r) -> np.ndarray:
        return as_function(self.source, "source")(r)

    def g_at(self, r) -> np.ndarray:
        return as_function(self.boundary_value, "boundary_value")(r)

    def dirichlet_mask(self, grid: Grid) -> np.ndarray:
        """True on rows that carry the Dirichlet datum."""
        mask = np.zeros(grid.m, dtype=bool)
        mask[-1] = True
        if self.domain.kind == "interval":
            mask[0] = True
        return mask


def radial_blowup_problem(params: BlowupParams, boundary_value=0.0) -> Problem:
    """The singular radial problem as a weighted reaction problem.

    Weight (R-r)**alpha, reaction coefficient b(r) = a(r)*(R-r)**gamma and
    power nonlinearity; b/w = a * (R-r)**(gamma-alpha) stays bounded
    because gamma - alpha >= 0.
    """
    weight = WeightFamily.constant() if params.alpha == 0.0 else WeightFamily.power(params.alpha)
    # N = 1 too: the slab (-R, R) is symmetric, so r = 0 carries the ball's symmetry row
    domain = Domain.ball(params.R, params.N)

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


def assemble_stiffness(grid: Grid, problem: Problem, w_half: np.ndarray | None = None) -> Tridiagonal:
    """Symmetric conservative flux operator, before any boundary rows.

    Row j couples neighbours through the edge conductances
    cond_j = W_{j+1/2} / h_{j+1/2}, with the weight taken at the mid-edge
    gaps (``w_half`` when the caller has already evaluated it there) and
    refused unless finite; the operator annihilates constants and is
    positive semidefinite, with v.S.v = sum_j cond_j * (v_{j+1} - v_j)**2.
    """
    rh = grid.half_nodes
    w = eval_weight(problem.weight, grid.R - rh) if w_half is None else w_half
    cond = w * rh ** (problem.domain.N - 1) / grid.spacings
    if not np.all(np.isfinite(cond)):
        j = int(np.argmin(np.isfinite(cond)))
        raise SolverError(f"non-finite edge conductance at half-node {j} (r = {rh[j]})")
    m = grid.m
    lower = np.zeros(m)
    diag = np.zeros(m)
    upper = np.zeros(m)
    lower[1:] = -cond
    upper[:-1] = -cond
    diag[:-1] += cond
    diag[1:] += cond
    return Tridiagonal(lower=lower, diag=diag, upper=upper)


@dataclass(frozen=True)
class GridTerms:
    """Everything a residual and a Jacobian need besides u, built once per solve.

    A Dirichlet row is an identity row of ``operator`` (the stiffness), 0 in
    ``mu`` and g in ``rhs`` (h * mu elsewhere); a Jacobian shares its
    off-diagonal bands with these terms.  ``nonlin``
    is the problem's nonlinearity, evaluated only inside the slab
    [``lower``, ``upper``]; the penalty acts outside the same slab, and
    ``w_nodes`` (the weight at the nodes) is only built for a positive one.
    ``kernel`` holds the addresses of these arrays for the C kernels, taken
    once per solve, or None where no C compiler is found; the terms hold
    every array it points at, so those live as long as it does, provided no
    band of ``operator`` is reassigned.
    """

    grid: Grid
    operator: Tridiagonal
    mu: np.ndarray
    b: np.ndarray
    rhs: np.ndarray
    w_nodes: np.ndarray | None
    nonlin: object
    lower: np.ndarray
    upper: np.ndarray
    penalty: float
    kernel: kernels.Terms | None


def grid_terms(
    grid: Grid,
    problem: Problem,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    penalty: float | None = 0.0,
) -> GridTerms:
    """Check a solve's inputs and build its u-independent terms, once; solve_penalized
    adds only that its bounds and initial guess are finite.

    ``lower``/``upper`` (shared, not copied, when they are contiguous float arrays) bound the
    slab nodewise; a missing one is -inf/+inf.
    The checks are the hypotheses of the comparison argument on the grid:
    lower <= upper, b/w finite at the half-nodes, f monotone nondecreasing on
    [min lower, max upper] (sampled when both ends are finite), f finite at
    every finite bound (f(+-inf) is +-inf), and a nonnegative penalty.

    penalty = None picks 1 + sup|b/w| * max |f'| over the finite bounds; the
    coercivity argument only needs a positive coefficient, and scaling with
    the reaction keeps the Newton system well conditioned.
    """
    if penalty is not None and penalty < 0.0:
        raise ParameterError(f"penalty coefficient must be nonnegative; got {penalty}")
    lower = np.full(grid.m, -np.inf) if lower is None else np.ascontiguousarray(lower, dtype=float)
    upper = np.full(grid.m, np.inf) if upper is None else np.ascontiguousarray(upper, dtype=float)
    if lower.shape != (grid.m,) or upper.shape != (grid.m,):
        raise ParameterError(f"slab bounds need {grid.m} values each; got shapes {lower.shape}, {upper.shape}")
    if np.any(lower > upper):
        j = int(np.argmax(lower - upper))
        raise ParameterError(
            f"lower bound exceeds upper bound at node {j}: {lower[j]} > {upper[j]}"
        )
    rh = grid.half_nodes
    w_half = eval_weight(problem.weight, grid.R - rh)
    b_over_w = np.abs(problem.b_at(rh)) / w_half
    if not np.all(np.isfinite(b_over_w)):
        raise ParameterError("b/w is not finite at all half-nodes")
    nonlin = problem.nonlin
    lo, hi = float(np.min(lower)), float(np.max(upper))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, without warnings
        if np.isfinite(lo) and np.isfinite(hi) and hi > lo:
            samples = nonlin.value(np.linspace(lo, hi, 64))
            if np.any(np.diff(samples) < -1e-12 * max(1.0, float(np.max(np.abs(samples))))):
                raise ParameterError("nonlinearity is not monotone nondecreasing on the slab")
        finite_bounds = [bound[np.isfinite(bound)] for bound in (lower, upper)]
        if not all(np.all(np.isfinite(nonlin.value(bound))) for bound in finite_bounds):
            raise ParameterError("nonlinearity overflows on the slab", "nonlin", "lower", "upper", "grid")
    if penalty is None:
        slope = max(float(np.max(np.abs(nonlin.slope(bound)), initial=0.0)) for bound in finite_bounds)
        penalty = 1.0 + float(np.max(b_over_w)) * slope
    r = grid.nodes
    mu = volume_weights(grid, problem.domain.N)
    rhs = _values(problem.h_at(r) * mu, grid.m)
    operator = assemble_stiffness(grid, problem, w_half)
    dirichlet = problem.dirichlet_mask(grid)
    operator.diag[dirichlet] = 1.0
    operator.lower[dirichlet] = 0.0
    operator.upper[dirichlet] = 0.0
    mu[dirichlet] = 0.0
    rhs[dirichlet] = problem.g_at(r[dirichlet])
    b = _values(problem.b_at(r), grid.m)
    w_nodes = _values(eval_weight(problem.weight, grid.boundary_gap), grid.m) if penalty > 0.0 else None
    kernel = None
    if kernels.load() is not None:
        arrays = (operator.lower, operator.diag, operator.upper, mu, b, w_nodes, rhs, lower, upper)
        kernel = kernels.Terms(*(None if a is None else a.ctypes.data for a in arrays), penalty)
    return GridTerms(
        grid=grid,
        operator=operator,
        mu=mu,
        b=b,
        rhs=rhs,
        w_nodes=w_nodes,
        nonlin=nonlin,
        lower=lower,
        upper=upper,
        penalty=penalty,
        kernel=kernel,
    )


def _values(values, n: int) -> np.ndarray:
    """values as n contiguous floats, the form in which a C kernel reads them."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        values = np.broadcast_to(values, (n,))
    return np.ascontiguousarray(values)


def assemble_residual(u: np.ndarray, terms: GridTerms) -> tuple[np.ndarray, float, int]:
    """Integrated nodal residual of the (optionally penalized) problem, its
    max-norm and the first row that attains it.

    Entry j, Dirichlet rows included:

        (S u)_j + b_j * f(u_j) * mu_j
            + penalty * ((u-lower)^- + (u-upper)^+)_j * w_j * mu_j
            - rhs_j

    with f, the penalty and the slab of ``terms`` and rhs_j = h_j * mu_j.  A
    Dirichlet row (S's row the identity, mu_j = 0, rhs_j = g_j) gives u_j - g_j
    while b, f and its neighbours are finite there, as in ``solve_penalized``
    (else NaN, which raises), but may be +0.0 where u_j - g_j is -0.0.  The
    penalty, with t^- = min(t, 0) and t^+ = max(t, 0), vanishes inside the slab.

    The entries come from ``residual_rows`` over every row, and so does the
    norm where the C kernel runs: the pass that writes the entries also
    finds the first non-finite one, which raises SolverError naming its
    node, and the largest magnitude, the first of equal ones.
    """
    res, peak = _residual(u, terms, 0)
    if peak < 0:
        j = -1 - peak
        raise SolverError(f"non-finite residual entry at node {j} (r = {terms.grid.nodes[j]})")
    return res, float(abs(res[peak])), peak


def residual_rows(values: np.ndarray, terms: GridTerms, lo: int = 0) -> np.ndarray:
    """Rows lo .. lo + len(values) - 1 of the residual of a field that is ``values`` there.

    The one implementation of ``assemble_residual``'s formula, on a window
    of consecutive rows, with no finiteness check.  A row whose neighbour
    lies outside the window misses that neighbour's flux, so only rows with
    both neighbours inside it (or beyond the ends of the grid) are exact;
    those equal ``assemble_residual``'s entries bit for bit, since every
    operation is elementwise and in the same order for any window.  The
    line search probes 3-row windows through ``lo``; a Dirichlet row, whose
    neighbours' coefficients are 0, is exact in any window.  Stopping Newton
    on its correction and deleting the penalty would each remove a branch.
    """
    return _residual(values, terms, lo)[0]


def _residual(values: np.ndarray, terms: GridTerms, lo: int) -> tuple[np.ndarray, int]:
    """residual_rows' rows, and the row where their magnitude first peaks, or
    -1 - k where row k is the first that is not finite.

    The field u is clipped to the slab once (against +-inf it keeps its bits),
    and the clipped values feed both f and the penalty: one of (u-lower)^- and
    (u-upper)^+ is always an exact 0.0, so their sum is (u - clipped) + 0.0,
    bit for bit (the + 0.0 turns the -0.0 of u = -0.0 on a zero bound into
    +0.0).  Products keep the order (b*f)*mu and ((penalty*s)*w)*mu, and
    only arrays this function allocated are updated in place, since f may
    return its argument.  Values go through numpy arrays, never scalars: an
    array power and a scalar power need not round alike.
    """
    values = np.ascontiguousarray(values, dtype=float)
    n = values.size
    if values.ndim != 1 or n < 1 or lo < 0 or lo + n > terms.grid.m:
        raise ValueError(f"residual rows need 1 to {terms.grid.m - lo} values from row {lo}; got shape {values.shape}")
    rows = slice(lo, lo + n)
    clipped = np.clip(values, terms.lower[rows], terms.upper[rows])
    f = terms.nonlin.value(clipped)
    if terms.kernel is not None:
        f = _values(f, n)
        res = np.empty(n)
        peak = kernels.load().residual_rows(
            n, lo, terms.kernel, values.ctypes.data, f.ctypes.data, clipped.ctypes.data, res.ctypes.data
        )
        return res, peak
    mu = terms.mu[rows]
    with np.errstate(all="ignore"):  # silent where the kernel is; a non-finite row raises in the caller
        reaction = terms.b[rows] * f
        reaction *= mu
        res = terms.operator.matvec(values, lo)
        res += reaction
        if terms.penalty > 0.0:
            outside = values - clipped
            outside += 0.0
            outside *= terms.penalty
            outside *= terms.w_nodes[rows]
            outside *= mu
            res += outside
        res -= terms.rhs[rows]
    finite = np.isfinite(res)
    if not np.all(finite):
        return res, -1 - int(np.argmin(finite))
    return res, int(np.argmax(np.abs(res)))


def assemble_jacobian(u: np.ndarray, terms: GridTerms) -> Tridiagonal:
    """Newton matrix: stiffness plus the diagonal reaction and penalty slopes.

    f's slope counts strictly inside the slab only (on a bound the clamp
    wins, keeping an M-matrix for monotone f); the penalty indicator is
    active strictly outside it.  A Dirichlet row is an identity row: its zero
    mu makes the diagonal 1.0 while b and f' are finite there (else NaN).
    Only the diagonal is new, so only it is checked: the off-diagonal bands
    are those of ``terms``, whose conductances ``assemble_stiffness`` checked.
    The C kernel jacobian_diag builds the diagonal in one pass, in the
    numpy formula's operation order; f' stays in numpy.
    """
    u = np.ascontiguousarray(u, dtype=float)
    if u.shape != (terms.grid.m,):
        raise ValueError(f"a Jacobian needs {terms.grid.m} nodal values; got shape {u.shape}")
    slope = terms.nonlin.slope(u)
    if terms.kernel is not None:
        slope = _values(slope, u.size)
        diag = np.empty(u.size)
        finite = kernels.load().jacobian_diag(u.size, terms.kernel, u.ctypes.data, slope.ctypes.data, diag.ctypes.data) < 0
    else:
        mu, lower, upper = terms.mu, terms.lower, terms.upper
        with np.errstate(all="ignore"):  # silent where the kernel is; a non-finite entry raises below
            diag = terms.b * np.where((u > lower) & (u < upper), slope, 0.0) * mu
            if terms.penalty > 0.0:
                diag += terms.penalty * terms.w_nodes * mu * ((u < lower) | (u > upper))
            diag += terms.operator.diag
        finite = np.all(np.isfinite(diag))
    if not finite:
        raise SolverError("non-finite Jacobian entry")
    return Tridiagonal(lower=terms.operator.lower, diag=diag, upper=terms.operator.upper)
