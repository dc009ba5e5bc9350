"""Batch experiment runner.

Subcommands: solve | rate | verify-subsuper | exhaust | b2 | sweep, each
driven by a flat key-value config file (see the config module) and writing
CSV plus a small text report into the output directory.  Exit codes, with
the error type each one handles (_EXIT_TABLE):

    0  run completed and certified
    1  config error or violated precondition, nothing written (ConfigError, ParameterError)
    2  solver did not converge / did not stabilize (SolverError)
    3  certification failure: bound certificate, inequality sweep, or a barrier
       refused before a solve, nothing written (CertificationError)

The sweep command runs its member configs in up to min(4, members)
worker processes (forked on Linux) and prints their lines once all have
finished, in the order its config lists them.  Since the C kernels, two
members on threads are faster (0.063 against 0.086 s per op of the
benchmark's sweep-pair), but its peak_rss_mb reads the op process alone,
about 62 MB with the members on threads against 32 MB in processes, so
they stay processes until it reads the members' memory too.  The b2
command checks its entries on two threads, which share one table of
midpoint offsets and own one work array each (weights.QuadWork): its
quadratures are numpy ufuncs on large arrays, which run without the lock.
Once every entry is checked, it prints its lines and writes its rows in
entry order.

solve, rate and exhaust verify their barriers as verify-subsuper does
(_barriers) and refuse them unless both hold at 4097 samples.  A value that a
command refuses while it runs is a config error naming the file, the line and
each key the refusing check read, like the errors of the config module: each
row of SCHEMAS carries the names of the library parameters its key sets, and
_dispatch looks up there the names a ParameterError lists (_value_of).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, kernels
from .assembly import assemble_residual  # not called here; bench/tracing.py wraps cli.assemble_residual
from .asymptotics import check_epsilon_bounds, fit_blowup_rate, window_mask
from .config import (
    REQUIRED,
    parse_config_file,
    resolve,
)
from .errors import CertificationError, ConfigError, ParameterError, SolverError
from .exhaustion import (
    STATUS_CERTIFICATION_FAILED,
    STATUS_CONVERGED,
    residual_on_monitor,
    solve_in_slab,
    solve_large_solution,
)
from .grids import build_graded_grid
from .penalty_solver import (
    SolveOptions,
    solve_penalized,  # not called here; bench/tracing.py wraps cli.solve_penalized
)
from .subsuper import (
    BlowupParams,
    build_subsolution,
    build_supersolution,
    find_min_A,
    verify_sub_inequality,
    verify_super_inequality,
)
from .weights import (
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
    ((ConfigError, ParameterError), EXIT_CONFIG, "config error"),
    ((SolverError,), EXIT_NONCONVERGED, "solver error"),
    ((CertificationError,), EXIT_CERTIFICATION, "certification failure"),
)
_HANDLED = tuple(t for types, _, _ in _EXIT_TABLE for t in types)


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

# Each row is (kind, default, *names): the names of the library parameters
# that its key sets, by which _value_of locates a refusal.

_RUN_KEYS = {
    "run.command": ("str", None),
}

# the blow-up problem's data; solve alone also takes problem.kind, whose one
# value, blowup, configs may still name.  p also
# sets f (nonlin), A the slab's upper envelope and C the lower one (sub)
_PROBLEM_KEYS = {
    "problem.p": ("float", 3.0, "p", "nonlin"),
    "problem.alpha": ("float", 0.0, "alpha"),
    "problem.gamma": ("float", 0.0, "gamma"),
    "problem.N": ("int", 3, "N", "n_dim"),
    "problem.R": ("float", 1.0, "R"),
    "problem.a": ("coefficient", (1.0,), "a_coef"),
    "problem.epsilon": ("float", 0.1, "epsilon"),
    "problem.A": ("float-or-auto", None, "A", "upper"),
    "problem.C": ("float", -1.0, "C", "sub"),
}

_GRID_KEYS = {
    "grid.m": ("int", 2001, "m"),
    "grid.eta": ("float", 1e-4, "eta", "grid"),  # the slab's grid ends at R - eta
    "grid.grading": ("float", 2.0, "grading"),
}

_SOLVER_KEYS = {
    "solver.tol": ("float", 1e-7, "abs_tol"),
    "solver.max_iters": ("int", 60, "max_iters"),
}


def _without(keys: dict, name: str) -> dict:
    """keys less the one named, for a command that never reads it."""
    return {k: v for k, v in keys.items() if k != name}


SCHEMAS = {
    "solve": {**_RUN_KEYS, "problem.kind": ("str", "blowup"), **_PROBLEM_KEYS, **_GRID_KEYS, **_SOLVER_KEYS},
    "rate": {
        **_RUN_KEYS,
        **_PROBLEM_KEYS,
        **_GRID_KEYS,
        **_SOLVER_KEYS,
        "rate.d_min": ("float", 1e-3, "d_min"),
        "rate.d_max": ("float", 1e-2, "d_max"),
    },
    "verify-subsuper": {
        **_RUN_KEYS,
        **_without(_PROBLEM_KEYS, "problem.C"),  # the sub-solution's C is verify.C
        "verify.samples": ("int", 10001),
        "verify.C": ("float", -1.0, "C", "sub"),
        # its entries are shifts too: cmd_verify_subsuper maps their C to it
        "verify.C_list": ("float-list", (-8.0, -4.0, -2.0, -1.0, -0.5, -0.1)),
    },
    "exhaust": {
        **_RUN_KEYS,
        **_PROBLEM_KEYS,
        **_without(_GRID_KEYS, "grid.eta"),  # each truncation sets its own eta
        **_SOLVER_KEYS,
        "exhaust.n0": ("int", 0, "n0", "n", "grid"),  # 0 = derive from the radius
        "exhaust.n_max": ("int", 64, "n_max", "grid"),
        "exhaust.tol": ("float", 1e-6, "tol"),
    },
    "b2": {
        **_RUN_KEYS,
        "b2.N": ("int", 3, "N", "n_dim"),
        "b2.R": ("float", 1.0, "R"),
        "b2.margin": ("float", 0.1, "margin"),
        "b2.quad_nodes": ("int", 256, "quad_nodes"),
        "b2.family": ("str", "catalogue", "tag"),
        "b2.alpha": ("float", 0.0, "alpha"),
        "b2.beta_log": ("float", 1.0, "beta_log"),
        "b2.a_exp": ("float", -1.0, "a_exp"),
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


# Rows formatted per write: the writer holds a few chunks of text, not the table.
_CSV_CHUNK_ROWS = 8192


def _write_csv(path: Path, header: list[str], columns: tuple) -> None:
    """Write equal-length columns as CSV rows, one chunk of rows at a time.

    When every column is a float64 array, the C kernel kernels.load().g17_rows
    writes a chunk's rows, each value as '%.17g' % x, into a buffer of 25
    bytes a value.  A table of more than one chunk is formatted on a pool of
    two threads (a ctypes call releases the interpreter lock) into three
    buffers in turn, while this thread writes the finished chunks in order,
    so at most three chunks of text exist at a time.  Any other table (a few
    dozen rows of Python values), and every table where no C compiler is
    found, joins the _fmt text of its cells, which the kernel matches for
    every float; float64 columns go through Python floats, which format
    faster than numpy scalars.
    """
    floats = all(isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns)
    lib = kernels.load() if floats else None
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):  # the kernel would read past a short one
        raise ValueError(f"CSV columns need {n_rows} values each; got {[len(c) for c in columns]}")
    starts = range(0, n_rows, _CSV_CHUNK_ROWS)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if lib is not None:
            columns = [np.ascontiguousarray(c) for c in columns]
            pointers = (ctypes.c_void_p * len(columns))(*(c.ctypes.data for c in columns))
            hi, lo = (table.ctypes.data for table in kernels.pow10())
            buffers = [np.empty(_CSV_CHUNK_ROWS * len(columns) * 25, np.uint8) for _ in starts[:3]]

            def chunk(k: int) -> np.ndarray:
                """Chunk k's text, in buffer k % len(buffers)."""
                text = buffers[k % len(buffers)]
                rows = min(_CSV_CHUNK_ROWS, n_rows - starts[k])
                slow = ctypes.c_long()  # values the kernel handed to snprintf
                return text[: lib.g17_rows(rows, len(columns), pointers, starts[k], hi, lo, text.ctypes.data, ctypes.byref(slow))]

            if len(starts) > 1:
                from concurrent.futures import ThreadPoolExecutor  # a multi-chunk table alone needs the pool

                with ThreadPoolExecutor(2) as pool:
                    futures = []
                    for k in range(len(starts)):
                        if k >= len(buffers):  # chunk k's buffer is free once chunk k - 3 is written
                            fh.write(futures[k - len(buffers)].result())
                        futures.append(pool.submit(chunk, k))
                    for future in futures[-len(buffers):]:
                        fh.write(future.result())
            else:
                for k in range(len(starts)):
                    fh.write(chunk(k))
        else:
            for start in starts:
                rows = slice(start, start + _CSV_CHUNK_ROWS)
                chunk = [c[rows].tolist() if isinstance(c, np.ndarray) and c.dtype == np.float64 else c[rows] for c in columns]
                fh.write("".join(",".join(map(_fmt, row)) + "\n" for row in zip(*chunk)).encode())


def _write_report(path: Path, items: list[tuple[str, object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in items), encoding="utf-8")


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
        a_coef=cfg["problem.a"],
        epsilon=cfg["problem.epsilon"],
    )


def _grid(cfg):
    return build_graded_grid(R=cfg["problem.R"], eta=cfg["grid.eta"], m=cfg["grid.m"], grading=cfg["grid.grading"])


def _solve_options(cfg) -> SolveOptions:
    return SolveOptions(abs_tol=cfg["solver.tol"], max_iters=cfg["solver.max_iters"])


@contextmanager
def _value_of(cfg, schema):
    """Report a ParameterError raised inside as a config error naming the
    file, the line and the key of each parameter its check read: for each of
    its names in turn, every key of schema whose row carries that name, in
    schema order.  One that names no such parameter propagates as it is."""
    try:
        yield
    except ParameterError as exc:
        keys = [key for name in exc.names for key, (_, _, *names) in schema.items() if name in names]
        if not keys:
            raise
        raise ConfigError(", ".join(map(cfg.where, keys)) + f": {exc}") from exc


# the lower barrier's samples end this far below R, where the envelope blows up
_SUB_SAMPLES_GAP = 1e-6


def _barriers(cfg, params: BlowupParams, samples: int, c_key: str):
    """The reports of the lower barrier of c_key's shift and the upper one of
    problem.A (find_min_A's when auto), each verified as built at samples points."""
    sub = build_subsolution(params, cfg[c_key])
    # a shift deep enough puts the activation radius past the last sample
    sub_samples = np.linspace(sub.activation_radius, params.R - _SUB_SAMPLES_GAP, samples)
    sub_report = verify_sub_inequality(params, sub, sub_samples)
    sup_samples = np.linspace(0.0, params.R, samples)
    if cfg["problem.A"] is None:
        return sub_report, find_min_A(params, sup_samples)
    sup = build_supersolution(params, cfg["problem.A"])
    return sub_report, verify_super_inequality(params, sup, sup_samples)


def _envelopes(cfg, params: BlowupParams):
    """(sub, sup) of problem.C and problem.A, refused unless both hold where
    verify-subsuper checks them at 4097 samples."""
    reports = _barriers(cfg, params, 4097, "problem.C")
    for key, name, report in zip(("problem.C", "problem.A"), ("lower", "upper"), reports):
        if not report.ok:
            shift = report.envelope.shift
            raise CertificationError(f"{cfg.where(key)}: the {name} barrier of shift {shift:g} does not hold")
    return tuple(report.envelope for report in reports)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg, out: Path, say) -> int:
    if cfg["problem.kind"] != "blowup":
        raise ConfigError(f"{cfg.where('problem.kind')}: must be 'blowup'; got {cfg['problem.kind']!r}")
    params = _blowup_params(cfg)
    grid = _grid(cfg)
    lo, hi, u, report = solve_in_slab(params, grid, *_envelopes(cfg, params), _solve_options(cfg))
    cert = report.sandwich

    _write_csv(
        out / "solution.csv",
        ["r", "d", "u", "sub", "super", "residual"],
        (grid.nodes, grid.boundary_gap, u, lo, hi, report.residual),
    )
    _write_report(
        out / "report.txt",
        [
            ("converged", report.converged),
            ("stop", report.stop),
            ("iters", report.iters),
            ("final_residual", report.residual_history[-1]),
            ("last_correction", report.corrections[-1] if report.corrections else float("nan")),
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
    grid = _grid(cfg)
    window_mask(grid, window)  # before the solve
    _, _, u, report = solve_in_slab(params, grid, *_envelopes(cfg, params), _solve_options(cfg))
    fit = fit_blowup_rate(grid, u, window)
    bounds = check_epsilon_bounds(grid, u, params.K, params.beta, params.epsilon, window)

    _write_csv(out / "rate.csv", ["d", "u", "ratio"], (bounds.d, bounds.u, bounds.ratios))
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
    if not report.converged:
        return EXIT_NONCONVERGED
    return EXIT_OK if bounds.ok else EXIT_CERTIFICATION


def cmd_verify_subsuper(cfg, out: Path, say) -> int:
    n_samples = cfg["verify.samples"]
    if n_samples < 2:
        raise ConfigError(f"{cfg.where('verify.samples')}: must be at least 2; got {n_samples}")
    params = _blowup_params(cfg)
    sub_report, sup_report = _barriers(cfg, params, n_samples, "verify.C")
    sub, sup = sub_report.envelope, sup_report.envelope
    # the entries are shifts like verify.C, which is bisected once, also when the list repeats it;
    # an entry's refusal names the problem's keys next to verify.C_list, as verify.C's does
    entry_schema = {**_without(SCHEMAS["verify-subsuper"], "verify.C"), "verify.C_list": ("float-list", None, "C")}
    with _value_of(cfg, entry_schema):
        c_table = [(c, sub if c == sub.shift else build_subsolution(params, c)) for c in cfg["verify.C_list"]]

    A_key = "min_A" if cfg["problem.A"] is None else "A"
    A = sup.shift if sup_report.ok or A_key == "A" else "not-found"

    _write_csv(out / "super_margins.csv", ["r", "margin"], (sup_report.samples, sup_report.margins))
    _write_csv(out / "sub_margins.csv", ["r", "sufficient_margin"], (sub_report.samples, sub_report.sufficient_margins))
    items = [
        (A_key, A),
        ("super_ok", sup_report.ok),
        ("reduced_endpoint_ok", bool(sup_report.margins[-1] >= 0.0)),  # the last sample is r = R
        ("balance_residual_at_K", params.balance_residual(params.K)),
        ("sub_ok_full", sub_report.ok_full),
        ("sub_ok_sufficient", sub_report.ok_sufficient),
        ("activation_radius", sub.activation_radius),
    ]
    items += [(f"c_bar({c:g})", envelope.activation_radius) for c, envelope in c_table]
    _write_report(out / "subsuper_report.txt", items)
    say(
        f"verify-subsuper: {A_key}={A} super_ok={sup_report.ok} "
        f"sub_ok={sub_report.ok} c_bar({sub.shift:g})={sub.activation_radius:.6f}"
    )
    return EXIT_OK if sup_report.ok and sub_report.ok else EXIT_CERTIFICATION


def cmd_exhaust(cfg, out: Path, say) -> int:
    params = _blowup_params(cfg)
    sub, sup = _envelopes(cfg, params)
    run = solve_large_solution(
        params,
        sub,
        sup,
        n0=cfg["exhaust.n0"] or None,  # None: the first subdomain that holds [0, R/2]
        n_max=cfg["exhaust.n_max"],
        compact_radius=params.R / 2,
        tol=cfg["exhaust.tol"],
        m=cfg["grid.m"],
        grading=cfg["grid.grading"],
        opts=_solve_options(cfg),
    )

    # row i > 0 holds the change from solve i-1 to solve i, nan where none was taken
    n_rows = len(run.n_values)
    deltas = ([float("nan"), *run.deltas] + [float("nan")] * n_rows)[:n_rows]
    _write_csv(
        out / "exhaust.csv",
        ["n", "outer_radius", "delta", "sandwich_ok"],
        (run.n_values, run.outer_radii, deltas, run.sandwich_ok),
    )
    if run.limit_on_monitor is not None:
        _write_csv(out / "limit.csv", ["r", "u"], (run.monitor.nodes, run.limit_on_monitor))
        limit_residual = residual_on_monitor(params, run.monitor, run.limit_on_monitor)
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


def cmd_b2(cfg, out: Path, say) -> int:
    # imported here: at module level they would add 5-12 ms to every command's start
    import queue
    from concurrent.futures import ThreadPoolExecutor

    n_dim = cfg["b2.N"]
    R = cfg["b2.R"]
    domain = Domain.ball(R, n_dim)
    margin = cfg["b2.margin"]
    quad = cfg["b2.quad_nodes"]

    entries: list[tuple[str, object, Domain]] = []
    mode = cfg["b2.family"]
    if mode == "catalogue":
        entries += [(label, fam, domain) for label, fam in catalogue_families(n_dim)]
        entries.append((f"interior-vanishing(|x-{R / 2:g}|)", InteriorVanishingWeight(R / 2), Domain.interval(R)))
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
        """The b2.csv row of one (label, weight, domain) entry, its grids built in a QuadWork taken from free."""
        label, weight, dom = entry
        work = free.get()  # never waits: there are as many as threads
        try:
            report = check_b2(weight, dom, margin, quad, work)
            two_sided = check_a2(weight, R=dom.R, quad_nodes=quad, work=work)
        finally:
            free.put(work)
        return (
            label,
            report.passes,
            report.integral_estimate,
            report.relative_change,
            report.divergent,
            two_sided.passes,
            two_sided.a2_estimate,
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(check, entries))  # in entry order; the first error raises
    for row in rows:  # once every entry is in: a refused run prints none
        say(f"b2: {row[0]:32s} passes={row[1]} divergent={row[4]} two_sided={row[5]}")

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


def _run_member(job) -> tuple[int, list[str]]:
    """Run one sweep member in a worker process: its exit code and the lines
    it said.  A handled error becomes a line and its exit code; any other
    exception propagates, through the pool, out of main."""
    command, path, out = job
    lines = []
    try:
        return _dispatch(command, path, out, lines.append), lines
    except _HANDLED as exc:
        lines.append(f"sweep member {path.name}: {exc}")
        return _exit_row(exc)[0], lines


def cmd_sweep(cfg, out: Path, say) -> int:
    """Run the member configs in worker processes, then pass each member's
    lines to say, in the order sweep.configs lists the members."""
    # imported here: at module level they would add 12-16 ms to every command's start
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    paths = [p.strip() for p in cfg["sweep.configs"].split(",") if p.strip()]
    if not paths:
        raise ConfigError(f"{cfg.source}: sweep.configs lists no config files")
    base = Path(cfg.source).parent
    jobs = []
    members = {}  # output directory -> the member that writes it
    for rel in paths:
        sub_path = (base / rel).resolve()
        job_out = out / sub_path.stem
        if job_out in members:
            raise ConfigError(
                f"{cfg.source}: sweep members {members[job_out]} and {sub_path} would both write to {job_out}"
            )
        members[job_out] = sub_path
        sub_raw = parse_config_file(sub_path)
        if "run.command" not in sub_raw:
            raise ConfigError(f"{sub_path}: sweep members must declare run.command")
        sub_command = sub_raw["run.command"][0]
        if sub_command not in _HANDLERS or sub_command == "sweep":
            raise ConfigError(f"{sub_path}: run.command = {sub_command!r} is not runnable in a sweep")
        jobs.append((sub_command, sub_path, job_out))

    # forked, not spawned: a spawned member imports numpy and the package
    # again.  The sweep process runs no thread of its own when it forks, and
    # multiprocessing flushes stdout and stderr before each fork, so no
    # member writes the parent's buffered lines again when it exits.
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    with ProcessPoolExecutor(max_workers=min(4, len(jobs)), mp_context=context) as pool:
        results = list(pool.map(_run_member, jobs))
    for _, lines in results:
        for line in lines:
            say(line)
    codes = [code for code, _ in results]
    say(f"sweep: {len(jobs)} runs, exit codes {codes}")
    return max(codes)


_HANDLERS = {
    "solve": cmd_solve,
    "rate": cmd_rate,
    "verify-subsuper": cmd_verify_subsuper,
    "exhaust": cmd_exhaust,
    "b2": cmd_b2,
    "sweep": cmd_sweep,
}


def _exit_row(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr label of exc from _EXIT_TABLE; re-raises the rest."""
    for types, code, label in _EXIT_TABLE:
        if isinstance(exc, types):
            return code, label
    raise exc


def _dispatch(command: str, config_path: Path, out: Path, say) -> int:
    """Run one command on config_path resolved against its schema, which also
    locates the command's refusals; say(line) takes each progress line.  A
    run.command naming another command is refused before the other keys are
    resolved, so that mismatch is reported, not the first key it lacks."""
    raw = parse_config_file(config_path)
    declared, _ = raw.get("run.command", (command, None))
    if declared != command:
        raise ConfigError(
            f"{config_path}: run.command = {declared!r} does not match the invoked command {command!r}"
        )
    schema = SCHEMAS[command]
    cfg = resolve(raw, schema, source=str(config_path))
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():  # the writers' mkdir would fail, after all the work
        raise ConfigError(f"--out {out}: {existing} exists and is not a directory")
    with _value_of(cfg, schema):
        return _HANDLERS[command](cfg, out, say)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built at main's first call: building it
    loads locale, which importing this module does not."""
    parser = argparse.ArgumentParser(
        prog="degen-blowup",
        description=(
            "Finite-difference experiments for degenerate/singular radial "
            "reaction problems: penalized solves between explicit two-sided "
            "bounds, nested-domain blow-up limits, rate fits and weight checks."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=SCHEMAS)
    parser.add_argument("--config", required=True, type=Path, help="path to the run config")
    parser.add_argument("--out", default=Path("."), type=Path, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args.command, args.config, args.out, (lambda line: None) if args.quiet else print)
    except _HANDLED as exc:
        code, label = _exit_row(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
