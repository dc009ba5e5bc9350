"""Batch experiment runner.

Subcommands: solve | rate | verify-subsuper | exhaust | b2 | sweep, each
driven by a flat key-value config file (see the config module) and writing
CSV plus a small text report into the output directory.  Exit codes:

    0  run completed and certified
    1  config error or violated precondition (nothing written)
    2  solver did not converge / did not stabilize
    3  certification failure (bound certificate or inequality sweep)

The sweep command runs its member configs concurrently, on up to
min(4, members) threads.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (
    CallableNonlinearity,
    DiscreteField,
    Problem,
    assemble_residual,
    constant_field,
    field_from_callable,
    radial_blowup_problem,
    truncate_nonlinearity,
)
from .asymptotics import check_epsilon_bounds, fit_blowup_rate
from .config import (
    REQUIRED,
    parse_coefficient,
    parse_config_file,
    resolve,
)
from .errors import (
    ActivationRadiusError,
    AssemblyError,
    CertificationError,
    ConfigError,
    DomainError,
    FitError,
    LinearSolveError,
    OrderingError,
    ParameterError,
)
from .exhaustion import (
    STATUS_CERTIFICATION_FAILED,
    STATUS_CONVERGED,
    residual_on_monitor,
    solve_large_solution,
)
from .grids import build_graded_grid, first_nested_index
from .penalty_solver import SolveOptions, check_sandwich, sandwich_tol, solve_penalized
from .subsuper import (
    BlowupParams,
    build_subsolution,
    build_supersolution,
    find_min_A,
    leading_balance_residual,
    sub_sufficient_margins,
    super_inequality_margins,
    verify_sub_inequality,
    verify_super_inequality,
)
from .weights import (
    A2Report,
    Domain,
    InteriorVanishingWeight,
    WeightFamily,
    catalogue_families,
    check_a2,
    check_b2,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2
EXIT_CERTIFICATION = 3

# (exception types, exit code, stderr label); main and sweep members both
# read this table, and anything outside it propagates.
_EXIT_TABLE = (
    (
        (ConfigError, ParameterError, DomainError, OrderingError, FitError, ActivationRadiusError),
        EXIT_CONFIG,
        "config error",
    ),
    ((AssemblyError, LinearSolveError), EXIT_NONCONVERGED, "solver error"),
    ((CertificationError,), EXIT_CERTIFICATION, "certification failure"),
)
_HANDLED = tuple(t for types, _, _ in _EXIT_TABLE for t in types)


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

_RUN_KEYS = {
    "run.command": ("str", None),
}

_PROBLEM_KEYS = {
    "problem.kind": ("str", "blowup"),
    "problem.p": ("float", 3.0),
    "problem.alpha": ("float", 0.0),
    "problem.gamma": ("float", 0.0),
    "problem.N": ("int", 3),
    "problem.R": ("float", 1.0),
    "problem.a": ("str", "1.0"),
    "problem.epsilon": ("float", 0.1),
    "problem.A": ("float-or-auto", None),
    "problem.C": ("float", -1.0),
}

_GRID_KEYS = {
    "grid.m": ("int", 2001),
    "grid.eta": ("float", 1e-4),
    "grid.grading": ("float", 2.0),
}

_SOLVER_KEYS = {
    "solver.penalty": ("float-or-auto", None),
    "solver.tol": ("float", 1e-7),
    "solver.max_iters": ("int", 60),
    "solver.damping": ("float", 0.5),
}

SCHEMAS = {
    "solve": {**_RUN_KEYS, **_PROBLEM_KEYS, **_GRID_KEYS, **_SOLVER_KEYS},
    "rate": {
        **_RUN_KEYS,
        **_PROBLEM_KEYS,
        **_GRID_KEYS,
        **_SOLVER_KEYS,
        "rate.d_min": ("float", 1e-3),
        "rate.d_max": ("float", 1e-2),
        "rate.synthetic": ("bool", False),
    },
    "verify-subsuper": {
        **_RUN_KEYS,
        **_PROBLEM_KEYS,
        "verify.samples": ("int", 10001),
        "verify.C": ("float", -1.0),
        "verify.C_list": ("str", "-8,-4,-2,-1,-0.5,-0.1"),
        "verify.r_gap": ("float", 1e-6),
    },
    "exhaust": {
        **_RUN_KEYS,
        **_PROBLEM_KEYS,
        **_GRID_KEYS,
        **_SOLVER_KEYS,
        "exhaust.n0": ("int", 0),  # 0 = derive from the radius
        "exhaust.n_max": ("int", 64),
        "exhaust.compact_radius": ("float", 0.5),
        "exhaust.tol": ("float", 1e-6),
        "exhaust.monitor_m": ("int", 101),
        "exhaust.sub_shift": ("float", 0.0),
    },
    "b2": {
        **_RUN_KEYS,
        "b2.N": ("int", 3),
        "b2.R": ("float", 1.0),
        "b2.margin": ("float", 0.1),
        "b2.quad_nodes": ("int", 256),
        "b2.include_failing": ("bool", True),
        "b2.family": ("str", "catalogue"),
        "b2.alpha": ("float", 0.0),
        "b2.beta_log": ("float", 1.0),
        "b2.a_exp": ("float", -1.0),
    },
    "sweep": {
        **_RUN_KEYS,
        "sweep.configs": ("str", REQUIRED),
    },
}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(path: Path, items: list[tuple[str, object]]) -> None:
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in items), encoding="utf-8")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# ---------------------------------------------------------------------------
# problem construction from configs
# ---------------------------------------------------------------------------

def _blowup_params(cfg) -> BlowupParams:
    return BlowupParams(
        p=cfg["problem.p"],
        alpha=cfg["problem.alpha"],
        gamma=cfg["problem.gamma"],
        N=cfg["problem.N"],
        R=cfg["problem.R"],
        a_coef=parse_coefficient(cfg["problem.a"]),
        epsilon=cfg["problem.epsilon"],
    )


def _grid(cfg):
    return build_graded_grid(
        R=cfg["problem.R"], eta=cfg["grid.eta"], m=cfg["grid.m"], grading=cfg["grid.grading"]
    )


def _solve_options(cfg) -> SolveOptions:
    return SolveOptions(
        penalty=cfg["solver.penalty"],
        max_iters=cfg["solver.max_iters"],
        abs_tol=cfg["solver.tol"],
        damping=cfg["solver.damping"],
    )


def _envelopes(cfg, params: BlowupParams):
    A = cfg["problem.A"]
    if A is None:
        A = find_min_A(params, np.linspace(0.0, params.R, 4097))
        if A is None:
            raise CertificationError("no shift in the default grid makes the upper barrier hold")
    sup = build_supersolution(params, A)
    sub = build_subsolution(params, cfg["problem.C"])
    return sub, sup


def _linear_test_problem(R: float) -> Problem:
    """-u'' + u = 1 with zero boundary data; closed form 1 - cosh(r - R/2)/cosh(R/2)."""
    return Problem(
        domain=Domain.interval(R),
        weight=WeightFamily.constant(),
        nonlin=CallableNonlinearity(lambda t: t, lambda t: np.ones_like(t)),
        b_coef=1.0,
        source=1.0,
        boundary_value=0.0,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_blowup_solve(cfg):
    params = _blowup_params(cfg)
    grid = _grid(cfg)
    sub, sup = _envelopes(cfg, params)
    lo = field_from_callable(grid, sub)
    hi = field_from_callable(grid, sup)
    datum = 0.5 * (lo.values[-1] + hi.values[-1])
    problem = radial_blowup_problem(params, boundary_value=float(datum))
    u, report = solve_penalized(problem, grid, lo, hi, _solve_options(cfg))
    return params, problem, grid, lo, hi, u, report


def cmd_solve(cfg, out: Path, quiet: bool) -> int:
    kind = cfg["problem.kind"]
    if kind == "linear":
        problem = _linear_test_problem(cfg["problem.R"])
        grid = _grid(cfg)
        lo = constant_field(grid, 0.0)
        hi = constant_field(grid, 1.0)
        u, report = solve_penalized(problem, grid, lo, hi, _solve_options(cfg))
    elif kind == "blowup":
        _, problem, grid, lo, hi, u, report = _run_blowup_solve(cfg)
    else:
        raise ConfigError(f"key 'problem.kind' must be 'linear' or 'blowup'; got {kind!r}")

    cert = check_sandwich(u, lo, hi, sandwich_tol(hi))
    trunc = truncate_nonlinearity(problem.nonlin, lo, hi)
    res = assemble_residual(u, problem, trunc, report.penalty, lo, hi)

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "solution.csv",
        ["r", "d", "u", "sub", "super", "residual"],
        zip(grid.nodes, grid.boundary_gap, u.values, lo.values, hi.values, res.values),
    )
    _write_report(
        out / "report.txt",
        [
            ("converged", report.converged),
            ("iters", report.iters),
            ("final_residual", report.residual_history[-1]),
            ("penalty", report.penalty),
            ("sandwich_ok", cert.ok),
            ("max_below", cert.max_below),
            ("max_above", cert.max_above),
        ],
    )
    if not report.converged:
        _say(quiet, f"solve: NOT converged after {report.iters} iterations")
        return EXIT_NONCONVERGED
    if not cert.ok:
        _say(quiet, f"solve: sandwich violated (below={cert.max_below:g}, above={cert.max_above:g})")
        return EXIT_CERTIFICATION
    _say(quiet, f"solve: converged in {report.iters} iterations, sandwich certified")
    return EXIT_OK


def cmd_rate(cfg, out: Path, quiet: bool) -> int:
    window = (cfg["rate.d_min"], cfg["rate.d_max"])
    params = _blowup_params(cfg)
    if cfg["rate.synthetic"]:
        grid = _grid(cfg)
        u = DiscreteField(grid, params.K * grid.boundary_gap ** (-params.beta))
        converged = True
    else:
        _, _, grid, _, _, u, report = _run_blowup_solve(cfg)
        converged = report.converged
    fit = fit_blowup_rate(u, window)
    bounds = check_epsilon_bounds(u, params.K, params.beta, params.epsilon, window)

    out.mkdir(parents=True, exist_ok=True)
    d = grid.boundary_gap
    mask = (d >= window[0]) & (d <= window[1])
    ratio = u.values / (params.K * d ** (-params.beta))
    _write_csv(out / "rate.csv", ["d", "u", "ratio"], zip(d[mask], u.values[mask], ratio[mask]))
    _write_report(
        out / "rate_summary.txt",
        [
            ("beta_hat", fit.beta_hat),
            ("K_hat", fit.K_hat),
            ("r2", fit.r2),
            ("d_min", window[0]),
            ("d_max", window[1]),
            ("reference_beta", params.beta),
            ("reference_K", params.K),
            ("min_ratio", bounds.min_ratio),
            ("max_ratio", bounds.max_ratio),
            ("bounds_ok", bounds.ok),
        ],
    )
    _say(quiet, f"rate: beta_hat={fit.beta_hat:.6g} K_hat={fit.K_hat:.6g} bounds_ok={bounds.ok}")
    if not converged:
        return EXIT_NONCONVERGED
    return EXIT_OK if bounds.ok else EXIT_CERTIFICATION


def cmd_verify_subsuper(cfg, out: Path, quiet: bool) -> int:
    n_samples = cfg["verify.samples"]
    if n_samples < 2:
        raise ConfigError(f"key 'verify.samples' must be at least 2; got {n_samples}")
    try:
        c_values = [float(c) for c in cfg["verify.C_list"].split(",")]
    except ValueError:
        raise ConfigError(
            f"key 'verify.C_list' expects comma-separated numbers; got {cfg['verify.C_list']!r}"
        ) from None
    params = _blowup_params(cfg)
    samples = np.linspace(0.0, params.R, n_samples)
    A = cfg["problem.A"]
    min_A = find_min_A(params, samples) if A is None else A
    super_ok = min_A is not None and verify_super_inequality(params, min_A, samples).ok

    C = cfg["verify.C"]
    sub = build_subsolution(params, C)
    r_hi = params.R - cfg["verify.r_gap"]
    sub_samples = np.linspace(sub.activation_radius, r_hi, n_samples)
    sub_report = verify_sub_inequality(params, C, sub_samples)

    c_table = [(c, build_subsolution(params, c).activation_radius) for c in c_values]

    sup_env = build_supersolution(params, min_A if min_A is not None else 1.0)
    reduced_lhs = params.a_R * sup_env.B**params.p
    reduced_rhs = sup_env.B * params.beta * (params.beta + 1.0 - params.alpha)

    out.mkdir(parents=True, exist_ok=True)
    if min_A is not None:
        margins = super_inequality_margins(params, min_A, samples)
        _write_csv(out / "super_margins.csv", ["r", "margin"], zip(samples, margins))
    sub_margins = sub_sufficient_margins(params, sub_samples)
    _write_csv(out / "sub_margins.csv", ["r", "sufficient_margin"], zip(sub_samples, sub_margins))
    items = [
        ("min_A", "not-found" if min_A is None else min_A),
        ("super_ok", super_ok),
        ("reduced_endpoint_ok", reduced_lhs >= reduced_rhs),
        ("balance_residual_at_K", leading_balance_residual(params.p, params.alpha, params.gamma, params.K, params.a_R)),
        ("sub_ok_full", sub_report.ok_full),
        ("sub_ok_sufficient", sub_report.ok_sufficient),
        ("activation_radius", sub.activation_radius),
    ]
    items += [(f"c_bar({c:g})", c_bar) for c, c_bar in c_table]
    _write_report(out / "subsuper_report.txt", items)
    _say(
        quiet,
        f"verify-subsuper: min_A={min_A} super_ok={super_ok} "
        f"sub_ok={sub_report.ok} c_bar({C:g})={sub.activation_radius:.6f}",
    )
    all_ok = super_ok and sub_report.ok
    return EXIT_OK if all_ok else EXIT_CERTIFICATION


def cmd_exhaust(cfg, out: Path, quiet: bool) -> int:
    params = _blowup_params(cfg)
    sub, sup = _envelopes(cfg, params)
    shift = cfg["exhaust.sub_shift"]

    def lower(r):
        return sub(r) + shift

    # A nonzero shift corrupts the certified lower bound while the Dirichlet
    # datum stays at the midpoint of the true envelopes: a deliberate fault
    # injection for exercising the certification exit path.
    datum = None
    if shift != 0.0:
        def datum(r):
            return 0.5 * (sub(r) + sup(r))

    n0 = cfg["exhaust.n0"] or first_nested_index(params.R)
    run = solve_large_solution(
        params,
        lower,
        sup,
        n0=n0,
        n_max=cfg["exhaust.n_max"],
        compact_radius=cfg["exhaust.compact_radius"],
        tol=cfg["exhaust.tol"],
        m=cfg["grid.m"],
        grading=cfg["grid.grading"],
        opts=_solve_options(cfg),
        monitor_m=cfg["exhaust.monitor_m"],
        datum=datum,
    )

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, n in enumerate(run.n_values):
        delta = run.deltas[i - 1] if i >= 1 and i - 1 < len(run.deltas) else float("nan")
        rows.append((n, run.outer_radii[i], delta, run.sandwich_ok[i]))
    _write_csv(out / "exhaust.csv", ["n", "outer_radius", "delta", "sandwich_ok"], rows)
    if run.limit_on_monitor is not None:
        limit = run.limit_on_monitor
        _write_csv(out / "limit.csv", ["r", "u"], zip(limit.grid.nodes, limit.values))
        limit_residual = residual_on_monitor(params, limit)
    else:
        limit_residual = float("nan")
    _write_report(
        out / "exhaust_report.txt",
        [
            ("status", run.status),
            ("solves", len(run.n_values)),
            ("final_delta", run.deltas[-1] if run.deltas else float("nan")),
            ("limit_residual", limit_residual),
        ],
    )
    _say(quiet, f"exhaust: status={run.status} after {len(run.n_values)} solves")
    if run.status == STATUS_CONVERGED:
        return EXIT_OK
    if run.status == STATUS_CERTIFICATION_FAILED:
        return EXIT_CERTIFICATION
    return EXIT_NONCONVERGED


def cmd_b2(cfg, out: Path, quiet: bool) -> int:
    n_dim = cfg["b2.N"]
    domain = Domain.ball(cfg["b2.R"], n_dim)
    margin = cfg["b2.margin"]
    quad = cfg["b2.quad_nodes"]

    entries: list[tuple[str, object, Domain]] = []
    mode = cfg["b2.family"]
    if mode == "catalogue":
        entries += [(label, fam, domain) for label, fam in catalogue_families(n_dim)]
        if cfg["b2.include_failing"]:
            entries.append(
                ("interior-vanishing(|x-0.5|)", InteriorVanishingWeight(0.5), Domain.interval(1.0))
            )
    else:
        # each tag reads only its own parameters; an unknown tag raises ParameterError
        family = WeightFamily(mode, alpha=cfg["b2.alpha"], beta_log=cfg["b2.beta_log"], a_exp=cfg["b2.a_exp"])
        family.validate_for_dimension(n_dim)
        entries.append((mode, family, domain))

    rows = []
    for label, weight, dom in entries:
        report = check_b2(weight, dom, margin, quad)
        if isinstance(weight, WeightFamily):
            two_sided = check_a2(weight, R=dom.R, quad_nodes=quad)
        else:
            # reciprocal already fails local integrability across the
            # degeneracy point, so the two-sided averages diverge too
            two_sided = A2Report(passes=False, a2_estimate=float("inf"), divergent=True)
        rows.append(
            (
                label,
                report.passes,
                report.integral_estimate,
                report.relative_change,
                report.divergent,
                two_sided.passes,
                two_sided.a2_estimate,
            )
        )
        _say(
            quiet,
            f"b2: {label:32s} passes={report.passes} divergent={report.divergent} "
            f"two_sided={two_sided.passes}",
        )

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "b2.csv",
        [
            "family",
            "passes",
            "integral_estimate",
            "relative_change",
            "divergent",
            "a2_passes",
            "a2_estimate",
        ],
        rows,
    )
    return EXIT_OK


_HANDLERS = {
    "solve": cmd_solve,
    "rate": cmd_rate,
    "verify-subsuper": cmd_verify_subsuper,
    "exhaust": cmd_exhaust,
    "b2": cmd_b2,
}


def _run_single(command: str, config_path: Path, out: Path, quiet: bool) -> int:
    raw = parse_config_file(config_path)
    cfg = resolve(raw, SCHEMAS[command], source=str(config_path))
    declared = cfg.get("run.command")
    if declared is not None and declared != command:
        raise ConfigError(
            f"{config_path}: run.command = {declared!r} does not match the invoked command {command!r}"
        )
    return _HANDLERS[command](cfg, out, quiet)


def cmd_sweep(config_path: Path, out: Path, quiet: bool) -> int:
    raw = parse_config_file(config_path)
    cfg = resolve(raw, SCHEMAS["sweep"], source=str(config_path))
    paths = [p.strip() for p in cfg["sweep.configs"].split(",") if p.strip()]
    if not paths:
        raise ConfigError(f"{config_path}: sweep.configs lists no config files")
    base = config_path.parent
    jobs = []
    for rel in paths:
        sub_path = (base / rel).resolve()
        sub_raw = parse_config_file(sub_path)
        if "run.command" not in sub_raw:
            raise ConfigError(f"{sub_path}: sweep members must declare run.command")
        sub_command = sub_raw["run.command"][0]
        if sub_command not in _HANDLERS:
            raise ConfigError(f"{sub_path}: run.command = {sub_command!r} is not runnable in a sweep")
        jobs.append((sub_command, sub_path, out / sub_path.stem))

    def run_job(job):
        command, path, job_out = job
        try:
            return _dispatch(command, path, job_out, quiet)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            _say(quiet, f"sweep member {path.name}: {exc}")
            return _exit_row(exc)[0]

    with ThreadPoolExecutor(max_workers=min(4, len(jobs))) as pool:
        codes = list(pool.map(run_job, jobs))
    _say(quiet, f"sweep: {len(jobs)} runs, exit codes {codes}")
    return max(codes)


def _exit_row(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr label of exc from _EXIT_TABLE; re-raises the rest."""
    for types, code, label in _EXIT_TABLE:
        if isinstance(exc, types):
            return code, label
    raise exc


def _dispatch(command: str, config_path: Path, out: Path, quiet: bool) -> int:
    if command == "sweep":
        return cmd_sweep(config_path, out, quiet)
    return _run_single(command, config_path, out, quiet)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="degen-blowup",
        description=(
            "Finite-difference experiments for degenerate/singular semilinear "
            "radial problems: penalized solves between explicit two-sided "
            "bounds, nested-domain blow-up limits, rate fits and weight checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMAS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path, help="path to the run config")
        p.add_argument("--out", default=Path("."), type=Path, help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args.command, args.config, args.out, args.quiet)
    except _HANDLED as exc:
        code, label = _exit_row(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
