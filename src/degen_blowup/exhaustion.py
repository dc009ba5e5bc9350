"""Large-solution approximation by exhaustion of nested interior subdomains.

Blow-up boundary data cannot be imposed directly, so the problem is solved
on the growing family of truncations {r < R - 1/n} with the finite datum
(lower + upper)/2 at each truncated boundary.  Every iterate is certified
against its own restriction of the two-sided bounds, and convergence is
observed as stabilization on a fixed compact monitoring interval
[0, compact_radius]: the sup-difference of consecutive iterates
interpolated onto the monitor grid plays the role of the compactness
argument in the continuum construction (no monotonicity of the deltas is
asserted, only eventual smallness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import assemble_residual, grid_terms, radial_blowup_problem
from .errors import ParameterError
from .grids import Grid, build_graded_grid, nested_margin
from .penalty_solver import SolveOptions, check_finite, solve_penalized
from .subsuper import BlowupParams

STATUS_CONVERGED = "converged"
STATUS_EXHAUSTED = "schedule-exhausted"
STATUS_NONCONVERGED = "nonconverged"
STATUS_CERTIFICATION_FAILED = "certification-failed"

_MONITOR_M = 101  # nodes of the monitoring interval


@dataclass
class ExhaustionRun:
    """Record of one nested-domain sweep."""

    monitor: Grid
    n_values: list[int] = field(default_factory=list)
    outer_radii: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    sandwich_ok: list[bool] = field(default_factory=list)
    status: str = STATUS_EXHAUSTED
    limit_on_monitor: np.ndarray | None = None  # nodal values on monitor


def _geometric_schedule(n0: int, n_max: int) -> list[int]:
    if n_max < n0:
        raise ParameterError(f"n_max={n_max} must be at least n0={n0}", "n_max", "n0")
    out = []
    n = n0
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


def _bound_values(lower, upper, r: np.ndarray, *names: str) -> tuple[np.ndarray, np.ndarray]:
    """The bound callables at the radii r, refused naming names unless finite:
    an envelope past the float range would read as a missing bound."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without warnings
        lo, hi = (np.asarray(bound(r), dtype=float) for bound in (lower, upper))
    check_finite("lower bound", lo, r, *names)
    check_finite("upper bound", hi, r, *names)
    return lo, hi


def solve_in_slab(params: BlowupParams, grid: Grid, lower, upper, opts: SolveOptions, guess: np.ndarray | None = None):
    """(lo, hi, u, report): the blow-up problem of params solved on grid
    between lo and hi, the bound callables at its nodes, with the Dirichlet
    datum (lo + hi)/2 at the last node.  The iteration starts from guess,
    nodal values on grid clipped to the slab, when one is given.  A bound
    that is not finite on grid is refused naming p and eta: the envelopes
    outgrow the float range there."""
    lo, hi = _bound_values(lower, upper, grid.nodes, "p", "eta")
    problem = radial_blowup_problem(params, boundary_value=float(0.5 * (lo[-1] + hi[-1])))
    if guess is not None:
        opts = replace(opts, initial_guess=np.clip(guess, lo, hi))
    u, report = solve_penalized(problem, grid, lo, hi, opts)
    return lo, hi, u, report


def solve_large_solution(
    params: BlowupParams,
    lower,
    upper,
    n0: int | None,
    n_max: int,
    compact_radius: float,
    tol: float,
    m: int = 1201,
    grading: float = 2.0,
    opts: SolveOptions | None = None,
) -> ExhaustionRun:
    """Sweep the geometric schedule n0, 2*n0, ... up to n_max.  n0 = None
    takes the smallest n whose subdomain r < R - 1/n holds [0, compact_radius].

    lower and upper are callables of r supplying the two-sided bounds on
    every truncation (the explicit blow-up envelopes in the intended use).
    Each solve warm-starts from the previous field, takes its Dirichlet
    datum at r = R - 1/n from the midpoint of the bounds, and must pass the
    sandwich certificate at ``sandwich_tol(upper)`` on its own domain.  The
    sweep stops early once the monitor delta drops below tol > 0; a failed
    certificate or a nonconverged inner solve aborts it with the partial
    record.  Before the first solve, the bounds are checked finite at the
    outer radius of the schedule's last truncation, where they are largest.
    """
    if tol <= 0.0:  # the sweep could never stop early
        raise ParameterError(f"tol must be positive; got {tol}", "tol")
    if n0 is None:
        if not compact_radius < params.R:  # no subdomain can hold the monitor
            raise ParameterError(f"the monitored interval [0, {compact_radius}] must lie inside R = {params.R}", "R")
        n0 = math.floor(1.0 / (params.R - compact_radius)) + 1
    outer_radius = params.R - nested_margin(params.R, n0)
    if not compact_radius < outer_radius:
        raise ParameterError(
            f"the monitored interval [0, {compact_radius}] must lie inside the first subdomain, "
            f"of radius {outer_radius}", "n0",
        )
    # uniform nodes on [0, compact_radius], a truncation of the full domain
    # so that weight evaluations keep the correct boundary gap
    run = ExhaustionRun(monitor=build_graded_grid(R=params.R, eta=params.R - compact_radius, m=_MONITOR_M, grading=1.0))
    schedule = _geometric_schedule(n0, n_max)
    last_radius = params.R - nested_margin(params.R, schedule[-1])
    if not last_radius < params.R:
        raise ParameterError(
            f"the last subdomain's radius R - 1/{schedule[-1]} rounds to R = {params.R}", "n_max", "n0"
        )
    _bound_values(lower, upper, np.array([last_radius]), "p", "n0", "n_max")
    previous = None  # (nodes, values) of the last solve
    for n in schedule:
        margin = nested_margin(params.R, n)
        grid_n = build_graded_grid(R=params.R, eta=margin, m=m, grading=grading)
        guess = None if previous is None else np.interp(grid_n.nodes, *previous)
        _, _, u_n, report = solve_in_slab(params, grid_n, lower, upper, opts or SolveOptions(), guess)
        run.n_values.append(n)
        run.outer_radii.append(params.R - margin)
        run.sandwich_ok.append(report.sandwich.ok)

        if not report.converged:
            run.status = STATUS_NONCONVERGED
            break
        if not report.sandwich.ok:
            run.status = STATUS_CERTIFICATION_FAILED
            break

        on_monitor = np.interp(run.monitor.nodes, grid_n.nodes, u_n)
        last_on_monitor, run.limit_on_monitor = run.limit_on_monitor, on_monitor
        if last_on_monitor is not None:
            delta = float(np.max(np.abs(on_monitor - last_on_monitor)))
            run.deltas.append(delta)
            if delta < tol:
                run.status = STATUS_CONVERGED
                break
        previous = grid_n.nodes, u_n

    return run


def residual_on_monitor(params: BlowupParams, monitor: Grid, limit: np.ndarray) -> float:
    """Max-norm of the integrated residual of the limit's nodal values on monitor.

    The ball's one Dirichlet row, at its last node, takes the field's own
    value, so only the interior consistency of the limit is measured.
    """
    problem = radial_blowup_problem(params, boundary_value=float(limit[-1]))
    return assemble_residual(limit, grid_terms(monitor, problem))[1]
