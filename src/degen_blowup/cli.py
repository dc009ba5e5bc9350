"""Batch experiment runner.

Subcommands: solve | rate | verify-subsuper | exhaust | b2 | sweep, each
driven by a flat key-value config file (see the config module) and writing
CSV plus a small text report into the output directory.  Exit codes:

    0  run completed and certified
    1  config error or violated precondition (nothing written)
    2  solver did not converge / did not stabilize
    3  certification failure (bound certificate or inequality sweep)

The sweep command runs its member configs concurrently, on up to
min(4, members) threads, and prints their lines once all have finished,
in the order its config lists them.  The b2 command checks its entries
on two threads, which share one table of midpoint offsets and own one
work array each (weights.QuadWork), and writes its rows and lines in
entry order.  Threads pay off where the work is numpy ufuncs on large
arrays, which run without the interpreter lock, as the quadratures do;
solve and rate spend most of their time in the pure-Python tridiagonal
loop, which holds it, so sweep members of those kinds gain less.

A value that the envelope code refuses while a command runs (problem.A,
problem.C, verify.C, an entry of verify.C_list, verify.r_gap) is a
config error naming the file, the line and the key, like the errors of
the config module.
"""

from __future__ import annotations

import argparse
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (
    CallableNonlinearity,
    DiscreteField,
    Problem,
    assemble_residual,  # not called here; bench/tracing.py wraps cli.assemble_residual
    constant_field,
    radial_blowup_problem,
)
from .asymptotics import check_epsilon_bounds, fit_blowup_rate
from .config import (
    REQUIRED,
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
    slab_problem,
    solve_large_solution,
)
from .floatfmt import format_g17
from .grids import build_graded_grid, first_nested_index
from .penalty_solver import SolveOptions, solve_penalized
from .subsuper import (
    BlowupParams,
    build_subsolution,
    build_supersolution,
    find_min_A,
    leading_balance_residual,
    verify_sub_inequality,
    verify_super_inequality,
)
from .weights import (
    A2Report,
    Domain,
    InteriorVanishingWeight,
    QuadWork,
    WeightFamily,
    catalogue_families,
    check_a2,
    check_b2,
    check_b2_margin,
    check_quad_nodes,
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
    "problem.a": ("coefficient", 1.0),
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
}


def _without(keys: dict, name: str) -> dict:
    """keys less the one named, for a command that never reads it."""
    return {k: v for k, v in keys.items() if k != name}


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
        **_without(_PROBLEM_KEYS, "problem.C"),  # the sub-solution's C is verify.C
        "verify.samples": ("int", 10001),
        "verify.C": ("float", -1.0),
        "verify.C_list": ("float-list", (-8.0, -4.0, -2.0, -1.0, -0.5, -0.1)),
        "verify.r_gap": ("float", 1e-6),
    },
    "exhaust": {
        **_RUN_KEYS,
        **_PROBLEM_KEYS,
        **_without(_GRID_KEYS, "grid.eta"),  # each truncation sets its own eta
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


# Rows formatted per write: the writer holds one chunk of text, not the table.
_CSV_CHUNK_ROWS = 8192


def _text_block(cells) -> np.ndarray:
    """_fmt of each cell in a zero-padded row of bytes, one byte wider than the widest."""
    text = np.array([_fmt(v).encode() for v in cells])
    block = np.zeros((len(text), text.itemsize + 1), np.uint8)
    block[:, :-1] = text.view(np.uint8).reshape(len(text), -1)
    return block


def _write_csv(path: Path, header: list[str], columns: tuple) -> None:
    """Write equal-length columns as CSV rows, one chunk of rows at a time.

    Each column of a chunk becomes a block of fixed-width byte slots, one per
    cell, 0 padded: the float64 array columns through format_g17, all of them
    in one call, and the cells of any other column through _fmt.  Both give
    the text _fmt gives for the same value.  The last byte of each slot holds
    the separator, so the chunk's table without its 0 bytes is its CSV text.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns]
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    n_rows = len(columns[0]) if columns else 0
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            cells = [c[start : start + _CSV_CHUNK_ROWS] for c in columns]
            values = np.empty((len(cells[0]), sum(floats)))
            for j, c in enumerate(c for c, f in zip(cells, floats) if f):
                values[:, j] = c
            slots = iter(np.moveaxis(format_g17(values), 1, 0))
            blocks = [next(slots) if f else _text_block(c) for c, f in zip(cells, floats)]
            for block, sep in zip(blocks, seps):
                block[:, -1] = sep
            table = np.concatenate(blocks, axis=1)
            fh.write(table[table != 0])


def _write_report(path: Path, items: list[tuple[str, object]]) -> None:
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in items), encoding="utf-8")


# ---------------------------------------------------------------------------
# problem construction from configs
# ---------------------------------------------------------------------------

def _blowup_params(cfg) -> BlowupParams:
    if cfg["problem.kind"] != "blowup":
        raise ConfigError(
            f"key 'problem.kind' must be 'blowup' for this command; got {cfg['problem.kind']!r}"
        )
    return BlowupParams(
        p=cfg["problem.p"],
        alpha=cfg["problem.alpha"],
        gamma=cfg["problem.gamma"],
        N=cfg["problem.N"],
        R=cfg["problem.R"],
        a_coef=cfg["problem.a"],
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
    )


class _ValueRefused(ConfigError):
    """The program refused the value of one config key; _dispatch adds where the key is set."""

    def __init__(self, key: str, reason: str):
        super().__init__(reason)
        self.key = key


@contextmanager
def _value_of(key: str):
    """Report a ParameterError or ActivationRadiusError raised inside as a refused value of key."""
    try:
        yield
    except (ParameterError, ActivationRadiusError) as exc:
        raise _ValueRefused(key, str(exc)) from exc


def _envelopes(cfg, params: BlowupParams):
    A = cfg["problem.A"]
    if A is None:
        report = find_min_A(params, np.linspace(0.0, params.R, 4097))
        if report is None:
            raise CertificationError("no shift in the default grid makes the upper barrier hold")
        sup = report.envelope
    else:
        with _value_of("problem.A"):
            sup = build_supersolution(params, A)
    with _value_of("problem.C"):
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
    problem, lo, hi = slab_problem(radial_blowup_problem(params), grid, sub, sup)
    u, report = solve_penalized(problem, grid, lo, hi, _solve_options(cfg))
    return grid, lo, hi, u, report


def cmd_solve(cfg, out: Path, say) -> int:
    kind = cfg["problem.kind"]
    if kind == "linear":
        problem = _linear_test_problem(cfg["problem.R"])
        grid = _grid(cfg)
        lo = constant_field(grid, 0.0)
        hi = constant_field(grid, 1.0)
        u, report = solve_penalized(problem, grid, lo, hi, _solve_options(cfg))
    elif kind == "blowup":
        grid, lo, hi, u, report = _run_blowup_solve(cfg)
    else:
        raise ConfigError(f"key 'problem.kind' must be 'linear' or 'blowup'; got {kind!r}")

    cert = report.sandwich

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "solution.csv",
        ["r", "d", "u", "sub", "super", "residual"],
        (grid.nodes, grid.boundary_gap, u.values, lo.values, hi.values, report.residual.values),
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
        say(f"solve: NOT converged after {report.iters} iterations")
        return EXIT_NONCONVERGED
    if not cert.ok:
        say(f"solve: sandwich violated (below={cert.max_below:g}, above={cert.max_above:g})")
        return EXIT_CERTIFICATION
    say(f"solve: converged in {report.iters} iterations, sandwich certified")
    return EXIT_OK


def cmd_rate(cfg, out: Path, say) -> int:
    window = (cfg["rate.d_min"], cfg["rate.d_max"])
    params = _blowup_params(cfg)
    if cfg["rate.synthetic"]:
        grid = _grid(cfg)
        u = DiscreteField(grid, params.K * grid.boundary_gap ** (-params.beta))
        converged = True
    else:
        grid, _, _, u, report = _run_blowup_solve(cfg)
        converged = report.converged
    fit = fit_blowup_rate(u, window)
    bounds = check_epsilon_bounds(u, params.K, params.beta, params.epsilon, window)

    out.mkdir(parents=True, exist_ok=True)
    d = grid.boundary_gap
    mask = (d >= window[0]) & (d <= window[1])
    ratio = u.values / (params.K * d ** (-params.beta))
    _write_csv(out / "rate.csv", ["d", "u", "ratio"], (d[mask], u.values[mask], ratio[mask]))
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
    say(f"rate: beta_hat={fit.beta_hat:.6g} K_hat={fit.K_hat:.6g} bounds_ok={bounds.ok}")
    if not converged:
        return EXIT_NONCONVERGED
    return EXIT_OK if bounds.ok else EXIT_CERTIFICATION


def cmd_verify_subsuper(cfg, out: Path, say) -> int:
    n_samples = cfg["verify.samples"]
    if n_samples < 2:
        raise ConfigError(f"key 'verify.samples' must be at least 2; got {n_samples}")
    params = _blowup_params(cfg)

    C = cfg["verify.C"]
    with _value_of("verify.C"):
        sub = build_subsolution(params, C)
    r_hi = params.R - cfg["verify.r_gap"]
    sub_samples = np.linspace(sub.activation_radius, r_hi, n_samples)
    with _value_of("verify.r_gap"):
        sub_report = verify_sub_inequality(params, sub, sub_samples)

    with _value_of("verify.C_list"):
        # verify.C is bisected once, also when the list repeats it
        c_table = [
            (c, (sub if c == C else build_subsolution(params, c)).activation_radius) for c in cfg["verify.C_list"]
        ]

    samples = np.linspace(0.0, params.R, n_samples)
    A = cfg["problem.A"]
    if A is None:
        sup_report = find_min_A(params, samples)
    else:
        with _value_of("problem.A"):
            sup = build_supersolution(params, A)
        sup_report = verify_super_inequality(params, sup, samples)
    min_A = None if sup_report is None else sup_report.envelope.shift
    super_ok = sup_report is not None and sup_report.ok
    B = (build_supersolution(params, 1.0) if sup_report is None else sup_report.envelope).B
    reduced_lhs = params.a_R * B**params.p
    reduced_rhs = B * params.beta * (params.beta + 1.0 - params.alpha)

    out.mkdir(parents=True, exist_ok=True)
    if sup_report is not None:
        _write_csv(out / "super_margins.csv", ["r", "margin"], (samples, sup_report.margins))
    _write_csv(
        out / "sub_margins.csv", ["r", "sufficient_margin"], (sub_samples, sub_report.sufficient_margins)
    )
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
    say(
        f"verify-subsuper: min_A={min_A} super_ok={super_ok} "
        f"sub_ok={sub_report.ok} c_bar({C:g})={sub.activation_radius:.6f}"
    )
    all_ok = super_ok and sub_report.ok
    return EXIT_OK if all_ok else EXIT_CERTIFICATION


def cmd_exhaust(cfg, out: Path, say) -> int:
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
    # row i > 0 holds the change from solve i-1 to solve i, nan where none was taken
    n_rows = len(run.n_values)
    deltas = ([float("nan"), *run.deltas] + [float("nan")] * n_rows)[:n_rows]
    _write_csv(
        out / "exhaust.csv",
        ["n", "outer_radius", "delta", "sandwich_ok"],
        (run.n_values, run.outer_radii, deltas, run.sandwich_ok),
    )
    if run.limit_on_monitor is not None:
        limit = run.limit_on_monitor
        _write_csv(out / "limit.csv", ["r", "u"], (limit.grid.nodes, limit.values))
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
    say(f"exhaust: status={run.status} after {len(run.n_values)} solves")
    if run.status == STATUS_CONVERGED:
        return EXIT_OK
    if run.status == STATUS_CERTIFICATION_FAILED:
        return EXIT_CERTIFICATION
    return EXIT_NONCONVERGED


# cmd_b2 checks its entries on this many threads: the quadratures are numpy
# ufuncs over 10**5 to 10**6 doubles, which run without the interpreter lock
_B2_WORKERS = 2


def _b2_row(entry, margin: float, quad: int, work: QuadWork) -> tuple:
    """The b2.csv row of one (label, weight, domain) entry, its grids built in work."""
    label, weight, dom = entry
    report = check_b2(weight, dom, margin, quad, work)
    if isinstance(weight, WeightFamily):
        two_sided = check_a2(weight, R=dom.R, quad_nodes=quad, work=work)
    else:
        # reciprocal already fails local integrability across the
        # degeneracy point, so the two-sided averages diverge too
        two_sided = A2Report(passes=False, a2_estimate=float("inf"), divergent=True)
    return (
        label,
        report.passes,
        report.integral_estimate,
        report.relative_change,
        report.divergent,
        two_sided.passes,
        two_sided.a2_estimate,
    )


def cmd_b2(cfg, out: Path, say) -> int:
    n_dim = cfg["b2.N"]
    R = cfg["b2.R"]
    domain = Domain.ball(R, n_dim)
    margin = cfg["b2.margin"]
    quad = cfg["b2.quad_nodes"]

    entries: list[tuple[str, object, Domain]] = []
    mode = cfg["b2.family"]
    if mode == "catalogue":
        entries += [(label, fam, domain) for label, fam in catalogue_families(n_dim)]
        if cfg["b2.include_failing"]:
            entries.append(
                (f"interior-vanishing(|x-{R / 2:g}|)", InteriorVanishingWeight(R / 2), Domain.interval(R))
            )
    else:
        # each tag reads only its own parameters; an unknown tag raises ParameterError
        family = WeightFamily(mode, alpha=cfg["b2.alpha"], beta_log=cfg["b2.beta_log"], a_exp=cfg["b2.a_exp"])
        family.validate_for_dimension(n_dim)
        entries.append((mode, family, domain))
    for _, _, dom in entries:  # before any quadrature or work array
        check_b2_margin(dom, margin)
    check_quad_nodes(quad)

    # one i + 0.5 table for the run, one values array and block per thread;
    # check_a2's largest grid, 8 * quad cells, is the largest either check builds
    workers = min(_B2_WORKERS, len(entries))
    first = QuadWork.allocate(8 * quad)
    free = queue.SimpleQueue()
    for work in [first, *(first.sibling() for _ in range(workers - 1))]:
        free.put(work)

    def check(entry):
        work = free.get()  # never waits: there are as many as threads
        try:
            return _b2_row(entry, margin, quad, work)
        finally:
            free.put(work)

    rows = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for row in pool.map(check, entries):  # in entry order; the first error raises
            rows.append(row)
            say(f"b2: {row[0]:32s} passes={row[1]} divergent={row[4]} two_sided={row[5]}")

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
        tuple(zip(*rows)),
    )
    return EXIT_OK


_HANDLERS = {
    "solve": cmd_solve,
    "rate": cmd_rate,
    "verify-subsuper": cmd_verify_subsuper,
    "exhaust": cmd_exhaust,
    "b2": cmd_b2,
}


def _load_config(command: str, config_path: Path) -> dict:
    """config_path resolved against command's schema, refusing a run.command that names another."""
    cfg = resolve(parse_config_file(config_path), SCHEMAS[command], source=str(config_path))
    declared = cfg["run.command"]
    if declared is not None and declared != command:
        raise ConfigError(
            f"{config_path}: run.command = {declared!r} does not match the invoked command {command!r}"
        )
    return cfg


def cmd_sweep(config_path: Path, out: Path, say) -> int:
    """Run the member configs on a thread pool, then pass each member's lines
    to say, in the order sweep.configs lists the members."""
    cfg = _load_config("sweep", config_path)
    paths = [p.strip() for p in cfg["sweep.configs"].split(",") if p.strip()]
    if not paths:
        raise ConfigError(f"{config_path}: sweep.configs lists no config files")
    base = config_path.parent
    jobs = []
    members = {}  # output directory -> the member that writes it
    for rel in paths:
        sub_path = (base / rel).resolve()
        job_out = out / sub_path.stem
        if job_out in members:
            raise ConfigError(
                f"{config_path}: sweep members {members[job_out]} and {sub_path} would both write to {job_out}"
            )
        members[job_out] = sub_path
        sub_raw = parse_config_file(sub_path)
        if "run.command" not in sub_raw:
            raise ConfigError(f"{sub_path}: sweep members must declare run.command")
        sub_command = sub_raw["run.command"][0]
        if sub_command not in _HANDLERS:
            raise ConfigError(f"{sub_path}: run.command = {sub_command!r} is not runnable in a sweep")
        jobs.append((sub_command, sub_path, job_out, []))

    def run_job(job):
        command, path, job_out, lines = job
        try:
            return _dispatch(command, path, job_out, lines.append)
        except Exception as exc:  # noqa: BLE001 - worker boundary
            lines.append(f"sweep member {path.name}: {exc}")
            return _exit_row(exc)[0]

    with ThreadPoolExecutor(max_workers=min(4, len(jobs))) as pool:
        codes = list(pool.map(run_job, jobs))
    for *_, lines in jobs:
        for line in lines:
            say(line)
    say(f"sweep: {len(jobs)} runs, exit codes {codes}")
    return max(codes)


def _exit_row(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr label of exc from _EXIT_TABLE; re-raises the rest."""
    for types, code, label in _EXIT_TABLE:
        if isinstance(exc, types):
            return code, label
    raise exc


def _dispatch(command: str, config_path: Path, out: Path, say) -> int:
    """Run one command; say(line) takes each progress line."""
    if command == "sweep":
        return cmd_sweep(config_path, out, say)
    cfg = _load_config(command, config_path)
    try:
        return _HANDLERS[command](cfg, out, say)
    except _ValueRefused as exc:
        entry = parse_config_file(config_path).get(exc.key)
        if entry is None:  # the key took its default
            where = f"{config_path}: key {exc.key!r} (default)"
        else:
            where = f"{config_path}:{entry[1]}: key {exc.key!r}"
        raise ConfigError(f"{where}: {exc}") from exc


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
        return _dispatch(args.command, args.config, args.out, (lambda line: None) if args.quiet else print)
    except _HANDLED as exc:
        code, label = _exit_row(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
