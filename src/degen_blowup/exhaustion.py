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

from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    DiscreteField,
    Problem,
    assemble_residual,
    field_from_callable,
    grid_terms,
    radial_blowup_problem,
)
from .errors import ParameterError
from .grids import Grid, build_graded_grid, nested_subdomain
from .penalty_solver import SolveOptions, solve_penalized
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
    monitor_values: list[np.ndarray] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    sandwich_ok: list[bool] = field(default_factory=list)
    status: str = STATUS_EXHAUSTED
    limit_on_monitor: DiscreteField | None = None


def _geometric_schedule(n0: int, n_max: int) -> list[int]:
    if n_max < n0:
        raise ParameterError(f"n_max={n_max} must be at least n0={n0}")
    out = []
    n = n0
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


def check_first_subdomain(R: float, n0: int, compact_radius: float) -> None:
    """Refuse an n0 whose subdomain {r < R - 1/n0} does not hold [0, compact_radius]."""
    first = nested_subdomain(R, n0)  # validates 1/n0 < R
    if not compact_radius < first.outer_radius:
        raise ParameterError(
            f"compact_radius={compact_radius} must stay inside the first "
            f"subdomain of radius {first.outer_radius}"
        )


def slab_problem(base: Problem, grid: Grid, lower, upper):
    """(problem, lo, hi): the bound callables' fields on grid, and base with
    the Dirichlet datum (lo + hi)/2 at the last node."""
    lo = field_from_callable(grid, lower)
    hi = field_from_callable(grid, upper)
    return replace(base, boundary_value=float(0.5 * (lo.values[-1] + hi.values[-1]))), lo, hi


def solve_large_solution(
    params: BlowupParams,
    lower,
    upper,
    n0: int,
    n_max: int,
    compact_radius: float,
    tol: float,
    m: int = 1201,
    grading: float = 2.0,
    opts: SolveOptions | None = None,
) -> ExhaustionRun:
    """Sweep the geometric schedule n0, 2*n0, ... up to n_max.

    lower and upper are callables of r supplying the two-sided bounds on
    every truncation (the explicit blow-up envelopes in the intended use).
    Each solve warm-starts from the previous field, takes its Dirichlet
    datum at r = R - 1/n from the midpoint of the bounds, and must pass the
    sandwich certificate at ``sandwich_tol(upper)`` on its own domain.  The
    sweep stops early once the monitor delta drops below tol; a failed
    certificate or a nonconverged inner solve aborts it with the partial
    record.
    """
    base = radial_blowup_problem(params)
    check_first_subdomain(params.R, n0, compact_radius)
    # uniform nodes on [0, compact_radius], a truncation of the full domain
    # so that weight evaluations keep the correct boundary gap
    run = ExhaustionRun(monitor=build_graded_grid(R=params.R, eta=params.R - compact_radius, m=_MONITOR_M, grading=1.0))
    previous: DiscreteField | None = None
    for n in _geometric_schedule(n0, n_max):
        sub = nested_subdomain(params.R, n)
        grid_n = build_graded_grid(R=params.R, eta=sub.margin, m=m, grading=grading)
        problem_n, lo, hi = slab_problem(base, grid_n, lower, upper)

        solve_opts = opts or SolveOptions()
        if previous is not None:
            warm = np.clip(previous.interpolate_to(grid_n.nodes), lo.values, hi.values)
            solve_opts = replace(solve_opts, initial_guess=DiscreteField(grid_n, warm))

        u_n, report = solve_penalized(problem_n, grid_n, lo, hi, solve_opts)
        run.n_values.append(n)
        run.outer_radii.append(sub.outer_radius)
        run.sandwich_ok.append(report.sandwich.ok)

        if not report.converged:
            run.status = STATUS_NONCONVERGED
            break
        if not report.sandwich.ok:
            run.status = STATUS_CERTIFICATION_FAILED
            break

        on_monitor = u_n.interpolate_to(run.monitor.nodes)
        run.monitor_values.append(on_monitor)
        if len(run.monitor_values) > 1:
            delta = float(np.max(np.abs(on_monitor - run.monitor_values[-2])))
            run.deltas.append(delta)
            if delta < tol:
                run.status = STATUS_CONVERGED
                break
        previous = u_n

    if run.monitor_values:
        run.limit_on_monitor = DiscreteField(run.monitor, run.monitor_values[-1])
    return run


def residual_on_monitor(params: BlowupParams, limit: DiscreteField) -> float:
    """Max-norm of the integrated residual of the limit field on its grid.

    Dirichlet rows take the field's own values, so only the interior
    consistency of the limit is measured.
    """
    problem = radial_blowup_problem(params, boundary_value=limit.interpolate_to)
    res = assemble_residual(limit, grid_terms(limit.grid, problem))
    return float(np.max(np.abs(res.values)))
