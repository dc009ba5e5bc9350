"""Damped Newton solve of the penalized problem, with bound certification.

The solve augments the weighted reaction problem with the coercive term
penalty * ((u - lower)^- + (u - upper)^+) * w and clamps the nonlinearity
to the slab [lower, upper].  At a fixed point whose unconstrained solution
already lies inside the slab both modifications are inactive, so the
returned field solves the original discrete problem; the a-posteriori
certificate ``check_sandwich`` verifies the two-sided bound that the
continuum theory promises.  Convergence is declared on the max-norm of the
integrated residual, the quantity the weak formulation controls.  Each
Newton step backtracks through at most 14 step lengths, 1 down to 2**-13
(``_MIN_STEP``); an iteration that none of them improves ends the solve
as stalled.  The step-1 trial is always assembled in full; a shorter one
is first evaluated on the one row where the current residual peaks
(``assembly.residual_rows``), and fails there without an assembly when
that row alone keeps the max-norm from decreasing.  ``assemble_residual``
returns each full residual with its max-norm and the row where it peaks,
and where a C compiler is found one pass in C writes the residual and
finds both, as one pass writes the Jacobian's diagonal and one the
elimination (``kernels``).  A solve's inputs are
checked, and its default penalty picked, once, by ``assembly.grid_terms``;
``solve_penalized`` adds only that the bounds and the initial guess are finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    Problem,
    assemble_jacobian,
    assemble_residual,
    assemble_stiffness,
    cell_volumes,
    grid_terms,
    residual_rows,
)
from .errors import ParameterError
from .grids import Grid
from .tridiag import thomas_solve

_MIN_STEP = 1e-4  # 14 step lengths, 1 down to 2**-13, before a stall
_DAMPING = 0.5  # backtracking factor of the line search


@dataclass
class SolveOptions:
    """Knobs of the penalized Newton iteration.

    penalty = None picks the default of ``assembly.grid_terms``.  The default
    initial guess is the slab midpoint (lower + upper)/2, where the penalty is
    inactive.
    """

    penalty: float | None = None
    max_iters: int = 60
    abs_tol: float = 1e-10
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        if self.abs_tol <= 0.0:
            raise ParameterError(f"abs_tol must be positive; got {self.abs_tol}", "abs_tol")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be at least 1; got {self.max_iters}", "max_iters")


@dataclass
class SandwichReport:
    ok: bool
    max_below: float
    max_above: float


@dataclass
class SolveReport:
    converged: bool
    stop: str  # "converged", "stalled" (no step length accepted) or "max-iters"
    iters: int
    residual: np.ndarray  # of the returned field
    sandwich: SandwichReport  # of the returned field, at sandwich_tol(upper)
    residual_history: list = field(default_factory=list)
    penalty: float = 0.0
    corrections: list = field(default_factory=list)  # _correction of each accepted step


@dataclass
class VerificationReport:
    ok: bool
    worst_residual: float


def sandwich_tol(upper: np.ndarray) -> float:
    """Certificate tolerance 1e-8 * (1 + sup|upper|), relative to the envelope's size."""
    return 1e-8 * (1.0 + float(np.max(np.abs(upper))))


def check_sandwich(u: np.ndarray, lower: np.ndarray, upper: np.ndarray, tol: float) -> SandwichReport:
    """Certify lower - tol <= u <= upper + tol nodewise."""
    below = np.maximum(lower - u, 0.0)
    above = np.maximum(u - upper, 0.0)
    max_below = float(np.max(below))
    max_above = float(np.max(above))
    return SandwichReport(
        ok=max_below <= tol and max_above <= tol,
        max_below=max_below,
        max_above=max_above,
    )


def _correction(delta: np.ndarray, step: float, u: np.ndarray) -> float:
    """max_j |step * delta_j| / max(|u_j|, 1): the nodewise size of the
    correction step * delta applied to u.  It overwrites delta and makes one
    temporary, since at m = 200001 each fresh array costs more than its pass."""
    scale = np.abs(u)
    np.maximum(scale, 1.0, out=scale)
    delta *= step
    delta /= scale
    return float(np.max(np.abs(delta, out=delta)))


def check_finite(name: str, values: np.ndarray, r: np.ndarray, *names: str) -> None:
    """Refuse nodal values at the radii r unless all are finite, naming names."""
    if not np.all(np.isfinite(values)):
        j = int(np.argmin(np.isfinite(values)))
        raise ParameterError(f"{name} is not finite at r = {r[j]}: {values[j]}", *names)


def solve_penalized(
    problem: Problem,
    grid: Grid,
    lower: np.ndarray,
    upper: np.ndarray,
    opts: SolveOptions | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Newton iteration on the clamped, penalized residual.

    Each step solves Jacobian * delta = -residual by tridiagonal
    elimination and backtracks (step scaled by _DAMPING) until the
    residual max-norm strictly decreases.  The backtracking budget is the
    step lengths down to _MIN_STEP: 14 trials, at 1, 1/2, ..., 2**-13.
    The trial at step 1 is assembled in full, so a non-finite step raises
    as it would without the probe.  A shorter trial is probed first on
    the row j where the current residual attains its norm: its max-norm
    is at least |r_j(trial)|, so when that is finite and not below the
    norm the trial is rejected without building it; otherwise it is
    assembled.  Rejecting on the probe changes nothing but the work done.
    Exhausting max_iters or that budget returns the current field with
    converged = False and stop "max-iters" or "stalled".  The report
    carries the field's sandwich certificate and the nodewise size of each
    accepted step's correction (``_correction``).  lower, upper and an
    initial guess are float arrays of finite values at the nodes of grid
    (grid_terms reads +-inf as no bound).
    """
    opts = opts or SolveOptions()
    terms = grid_terms(grid, problem, lower, upper, opts.penalty)
    check_finite("lower bound", lower, grid.nodes)
    check_finite("upper bound", upper, grid.nodes)
    u = 0.5 * (lower + upper) if opts.initial_guess is None else np.array(opts.initial_guess, dtype=float)
    if u.shape != (grid.m,):
        raise ParameterError(f"initial guess needs {grid.m} values; got shape {u.shape}")
    check_finite("initial guess", u, grid.nodes)

    res, norm, row = assemble_residual(u, terms)
    history = [norm]
    corrections = []
    converged = norm <= opts.abs_tol
    iters = 0
    stop = "max-iters"
    while not converged and iters < opts.max_iters:
        jac = assemble_jacobian(u, terms)
        delta = thomas_solve(jac, -res)
        del jac  # the line search needs only delta
        lo, hi = max(row - 1, 0), min(row + 2, grid.m)  # row and its neighbours
        step = 1.0
        accepted = False
        while step >= _MIN_STEP:
            if step < 1.0:
                # A trial's max-norm is at least its |residual| on row; when
                # that alone reaches norm, the trial fails without assembly.
                # A non-finite probe goes on to the assembly, which raises.
                window = delta[lo:hi] * step
                window += u[lo:hi]
                if norm <= abs(residual_rows(window, terms, lo)[row - lo]) < np.inf:
                    step *= _DAMPING
                    continue
            trial = delta * step
            trial += u
            trial_res, trial_norm, trial_row = assemble_residual(trial, terms)
            if trial_norm < norm:
                corrections.append(_correction(delta, step, u))  # delta's last use
                u, norm, row, res = trial, trial_norm, trial_row, trial_res
                accepted = True
                break
            step *= _DAMPING
        if not accepted:
            stop = "stalled"  # no step length reduces the residual
            break
        iters += 1
        history.append(norm)
        converged = norm <= opts.abs_tol

    report = SolveReport(
        converged=converged,
        stop="converged" if converged else stop,
        iters=iters,
        residual=res,
        sandwich=check_sandwich(u, lower, upper, sandwich_tol(upper)),
        residual_history=history,
        penalty=terms.penalty,
        corrections=corrections,
    )
    return u, report


def verify_subsupersolution(
    problem: Problem,
    grid: Grid,
    candidate: np.ndarray,
    kind: str,
    tol: float = 1e-8,
) -> VerificationReport:
    """Check the one-sided sign of the raw discrete weak residual of the
    candidate's nodal values on grid.

    Pairs the candidate against the nonnegative hat functions: midpoint
    fluxes plus reaction and source weighted by the exact radial cell
    volumes (not the solver's volume weights, whose center entry vanishes
    and would leave the center flux unbalanced against the reaction).
    Entries are normalized by the same cell volumes into pointwise
    quantities.  A supersolution needs every interior entry >= -tol, a
    subsolution <= +tol; Dirichlet rows are excluded.  The tolerance
    absorbs the O(h^2) discretization slack when certifying continuum
    barriers on a grid.
    """
    if kind not in ("sub", "super"):
        raise ParameterError(f"kind must be 'sub' or 'super'; got {kind!r}")
    volumes = cell_volumes(grid, problem.domain.N)
    raw = assemble_stiffness(grid, problem).matvec(candidate)
    raw += problem.b_at(grid.nodes) * problem.nonlin.value(candidate) * volumes
    raw -= problem.h_at(grid.nodes) * volumes
    pointwise = raw / volumes
    interior = ~problem.dirichlet_mask(grid)
    vals = pointwise[interior]
    if kind == "super":
        worst = float(np.min(vals))
        ok = worst >= -tol
    else:
        worst = float(np.max(vals))
        ok = worst <= tol
    return VerificationReport(ok=ok, worst_residual=worst)
