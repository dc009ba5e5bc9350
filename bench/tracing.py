"""Layer timings taken from outside the program.

Each entry of ``WRAPS`` names a function of the package at the module
where callers look it up (``from .tridiag import thomas_solve`` binds
``penalty_solver.thomas_solve``, so that is where the wrapper goes).
A "span" wrapper records name, op id, parent span, wall start and end and
the calling thread's CPU time; a "count" wrapper only counts calls, for
functions called too often to time one by one.  Wrappers are installed
around a traced op and removed after it, so untraced ops run the plain
program.  A name the package no longer has is listed as absent and its
metrics read 0; a call whose arguments or result no longer have the shape
its reader expects is still timed and counted, and the reading counts 0.

Spans stay in memory until the run ends.  Per-layer metrics are totals
over the traced ops divided by their number, i.e. per op.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "degen_blowup"


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _solve_report(args, kwargs, result):
    report = result[1]
    return {"iters": report.iters, "converged": bool(report.converged)}


def _quad_points(args, kwargs, result):
    return args[3]


def _read(reader, args, kwargs, result):
    """What ``reader`` takes from one call, or None once the call has another shape."""
    try:
        return reader(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


# (module, attribute, span or count name, "span" | "count", attribute reader)
WRAPS = (
    ("penalty_solver", "thomas_solve", "tridiag.solve", "span", _rows),
    ("penalty_solver", "assemble_residual", "assembly.residual", "span", None),
    ("cli", "assemble_residual", "assembly.residual", "span", None),
    ("exhaustion", "assemble_residual", "assembly.residual", "span", None),
    ("penalty_solver", "assemble_jacobian", "assembly.jacobian", "span", None),
    ("assembly", "assemble_stiffness", "assembly.stiffness", "count", None),
    ("penalty_solver", "assemble_stiffness", "assembly.stiffness", "count", None),
    ("assembly", "eval_weight", "assembly.eval_weight", "count", None),
    ("cli", "solve_penalized", "penalty_solver.solve", "span", _solve_report),
    ("exhaustion", "solve_penalized", "penalty_solver.solve", "span", _solve_report),
    ("cli", "solve_large_solution", "exhaustion.run", "span", None),
    ("cli", "build_graded_grid", "grids.build", "span", None),
    ("exhaustion", "build_graded_grid", "grids.build", "span", None),
    ("cli", "find_min_A", "subsuper.find_min_A", "span", None),
    # find_min_A looks its probe up in its own module; nothing else there does
    ("subsuper", "verify_super_inequality", "subsuper.find_min_A.probe", "count", None),
    ("cli", "build_subsolution", "subsuper.build_subsolution", "span", None),
    ("cli", "verify_sub_inequality", "subsuper.verify_sub", "span", None),
    ("cli", "check_b2", "weights.check_b2", "span", None),
    ("cli", "check_a2", "weights.check_a2", "span", None),
    ("weights", "_midpoint", "weights.quad", "count", _quad_points),
    ("cli", "fit_blowup_rate", "asymptotics.fit", "span", None),
    # both the top-level command and each sweep member pass through here
    ("cli", "_dispatch", "cli.dispatch", "span", None),
)

OP_SPAN = "cli.op"


class Span(NamedTuple):
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float
    cpu: float
    attrs: dict | None


class Tracer:
    def __init__(self, wraps=WRAPS):
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.ops = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op = -1
        self._wrappers = []
        self._count_lock = threading.Lock()  # sweep members count from two threads
        for module_name, attr, name, kind, reader in wraps:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                func = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            self._wrappers.append((module, attr, func, make(name, func, reader)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, func, reader):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread of the sweep pool starts with an empty stack;
            # its parent is the span the op's own thread is inside.
            parent = stack[-1] if stack else tracer._op_stack[-1]
            span_id = next(tracer._ids)
            stack.append(span_id)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
            attrs = _read(reader, args, kwargs, result) if reader else None
            tracer.spans.append(Span(span_id, name, tracer._op, parent, start, end, cpu, attrs))
            return result

        return wrapper

    def _count_wrapper(self, name, func, reader):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            with tracer._count_lock:
                tracer.calls[name] += 1
                if reader:
                    tracer.amounts[name] += _read(reader, args, kwargs, result) or 0
            return result

        return wrapper

    def trace_op(self, op_id: int, run):
        """Run ``run()`` as one traced op under an op span; returns its result."""
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        self._op = op_id
        self._op_stack = self._stack()
        span_id = next(self._ids)
        self._op_stack.append(span_id)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            return run()
        finally:
            end = time.perf_counter()
            self._op_stack.pop()
            self.spans.append(Span(span_id, OP_SPAN, op_id, None, start, end, time.thread_time() - cpu0, None))
            self.ops += 1
            for module, attr, func, _ in self._wrappers:
                setattr(module, attr, func)

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "calls": dict(self.calls),
            "amounts": dict(self.amounts),
            "spans": [s._asdict() for s in self.spans],
        }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: (s.end - s.start)
        - _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id] if c.end > s.start])
        for s in spans
    }


def layer_metrics(tracer: Tracer, op_bytes: list[int], untraced_s: list[float], traced_s: list[float],
                  solo_s: dict[str, list[float]]) -> dict[str, dict]:
    """Per-op layer metrics from the traced ops, plus the run-level ratios.

    ``solo_s`` holds, for a sweep, each member's times when run on its own;
    ``untraced_s`` and ``traced_s`` are the op times with tracing off and on.
    """
    spans = tracer.spans
    ops = max(tracer.ops, 1)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum(s.end - s.start for s in named[name])

    def self_total(*names):
        return sum(own[s.id] for n in names for s in named[n])

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    def attr(span, key):
        return (span.attrs or {}).get(key, 0)

    tri_rows = sum(attr(s, "rows") for s in named["tridiag.solve"])
    solves = named["penalty_solver.solve"]
    solve_ids = {s.id for s in solves}
    iters = sum(attr(s, "iters") for s in solves)
    residuals_in_solves = sum(1 for s in named["assembly.residual"] if s.parent in solve_ids)
    line_search_trials = residuals_in_solves - len(solves)  # one per solve is the initial residual
    members = [s for s in named["cli.dispatch"] if by_id[s.parent].name == "cli.dispatch"]
    solo_total = sum(median(v) for v in solo_s.values())

    metrics = {
        "tridiag.calls": (per_op(len(named["tridiag.solve"])), "count"),
        "tridiag.s": (per_op(total("tridiag.solve")), "s"),
        "tridiag.rows": (per_op(tri_rows), "count"),
        "tridiag.ns_per_row": (1e9 * ratio(total("tridiag.solve"), tri_rows), "ns"),
        "assembly.residual.calls": (per_op(len(named["assembly.residual"])), "count"),
        "assembly.residual.s": (per_op(total("assembly.residual")), "s"),
        "assembly.jacobian.calls": (per_op(len(named["assembly.jacobian"])), "count"),
        "assembly.jacobian.s": (per_op(total("assembly.jacobian")), "s"),
        "assembly.stiffness.calls": (per_op(tracer.calls["assembly.stiffness"]), "count"),
        "assembly.eval_weight.calls": (per_op(tracer.calls["assembly.eval_weight"]), "count"),
        "penalty_solver.solves": (per_op(len(solves)), "count"),
        "penalty_solver.s": (per_op(total("penalty_solver.solve")), "s"),
        "penalty_solver.self_s": (per_op(self_total("penalty_solver.solve")), "s"),
        "penalty_solver.newton_iters": (per_op(iters), "count"),
        "penalty_solver.residual_evals_per_iter": (ratio(residuals_in_solves, iters), "ratio"),
        "penalty_solver.accept_ratio": (ratio(iters, line_search_trials), "ratio"),
        "penalty_solver.converged_frac": (ratio(sum(attr(s, "converged") for s in solves), len(solves)), "ratio"),
        "exhaustion.s": (per_op(total("exhaustion.run")), "s"),
        "exhaustion.self_s": (per_op(self_total("exhaustion.run")), "s"),
        "exhaustion.solves_per_op": (per_op(sum(by_id[s.parent].name == "exhaustion.run" for s in solves)), "count"),
        "grids.build.calls": (per_op(len(named["grids.build"])), "count"),
        "grids.build.s": (per_op(total("grids.build")), "s"),
        "subsuper.find_min_A.s": (per_op(total("subsuper.find_min_A")), "s"),
        "subsuper.find_min_A.probes": (per_op(tracer.calls["subsuper.find_min_A.probe"]), "count"),
        "subsuper.build_subsolution.s": (per_op(total("subsuper.build_subsolution")), "s"),
        "subsuper.verify_sub.s": (per_op(total("subsuper.verify_sub")), "s"),
        "weights.check_b2.s": (per_op(total("weights.check_b2")), "s"),
        "weights.check_a2.s": (per_op(total("weights.check_a2")), "s"),
        "weights.quad_points": (per_op(tracer.amounts["weights.quad"]), "count"),
        "asymptotics.fit.s": (per_op(total("asymptotics.fit")), "s"),
        "cli.self_s": (per_op(self_total(OP_SPAN, "cli.dispatch")), "s"),
        "cli.output_bytes": (statistics.mean(op_bytes) if op_bytes else 0, "bytes"),
        "cli.sweep.speedup": (ratio(solo_total, median(untraced_s)), "ratio"),
        "cli.sweep.member_wait_s": (per_op(sum((s.end - s.start) - s.cpu for s in members)), "s"),
        "bench.trace_overhead": (ratio(median(traced_s), median(untraced_s)), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
