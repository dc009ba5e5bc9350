"""Every function the benchmark's tracer wraps still exists where it is wrapped.

``bench/tracing.py`` times layers by replacing ``module.attribute`` for each
entry of its ``WRAPS`` table; a name the package no longer has is silently
reported as absent and its metrics read 0.  These tests make such a removal
fail loudly instead, and check that a traced solve still reaches the
assembly layers.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from degen_blowup import cli

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for module, attribute, *_ in _tracing.WRAPS],
    ids=[f"{module}.{attribute}" for module, attribute, *_ in _tracing.WRAPS],
)
def test_wrapped_name_resolves(module, attribute):
    target = importlib.import_module(f"{_tracing.PACKAGE}.{module}")
    assert callable(getattr(target, attribute))


TINY_SOLVE_CFG = """
run.command = solve
problem.kind = blowup
grid.m = 201
solver.tol = 1e-5
solver.max_iters = 100
"""


def test_traced_solve_reports_assembly_layers(tmp_path):
    # the grid-only terms are built outside the residual; the stiffness
    # build must still reach the per-layer metrics through its wrapper
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(TINY_SOLVE_CFG, encoding="utf-8")
    tracer = _tracing.Tracer()
    assert tracer.absent == []
    tracer.trace_op(0, lambda: cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]))
    metrics = _tracing.layer_metrics(tracer, [], [], [], {})
    assert metrics["assembly.stiffness.calls"]["value"] > 0
    assert metrics["assembly.residual.calls"]["value"] > 0


def test_traced_b2_reports_quadrature_layers(tmp_path):
    # check_b2 integrates through _midpoint, whose n the tracer adds up: the
    # nine catalogue entries take n, 2n and 4n points each
    cfg = tmp_path / "b2.cfg"
    cfg.write_text("run.command = b2\nb2.quad_nodes = 256\n", encoding="utf-8")
    tracer = _tracing.Tracer()
    assert tracer.trace_op(0, lambda: cli.main(["b2", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])) == 0
    metrics = _tracing.layer_metrics(tracer, [], [], [], {})
    assert metrics["weights.check_a2.s"]["value"] > 0
    assert metrics["weights.check_b2.s"]["value"] > 0
    assert metrics["weights.quad_points"]["value"] == 9 * 7 * 256


STALLING_SOLVE_CFG = """
run.command = solve
problem.kind = blowup
problem.epsilon = 0.12
grid.m = 3001
grid.eta = 1e-4
grid.grading = 2
solver.tol = 1e-5
solver.max_iters = 100
"""


def test_traced_verify_subsuper_builds_and_verifies_each_envelope_once(tmp_path, monkeypatch):
    # default config: find_min_A probes A = 1, 2 and 4, two margin passes each (the samples
    # and the refinement around the worst one); the report and CSVs reuse the passing
    # probe, and one bisection each builds the six verify.C_list entries, verify.C = -1
    # among them
    from degen_blowup import subsuper

    counts = {"bisections": 0, "in_probe": 0, "outside_probe": 0}
    depth = [0]
    build = subsuper.build_subsolution
    probe = subsuper.verify_super_inequality
    margins = subsuper.super_inequality_margins

    def counted_build(*args, **kwargs):
        counts["bisections"] += 1
        return build(*args, **kwargs)

    def counted_probe(*args, **kwargs):
        depth[0] += 1
        try:
            return probe(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_margins(*args, **kwargs):
        counts["in_probe" if depth[0] else "outside_probe"] += 1
        return margins(*args, **kwargs)

    for module in (cli, subsuper):
        monkeypatch.setattr(module, "build_subsolution", counted_build)
        if hasattr(module, "super_inequality_margins"):
            monkeypatch.setattr(module, "super_inequality_margins", counted_margins)
    monkeypatch.setattr(subsuper, "verify_super_inequality", counted_probe)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("run.command = verify-subsuper\n", encoding="utf-8")
    tracer = _tracing.Tracer()  # wraps the counters installed above
    assert tracer.absent == []
    out = tmp_path / "out"
    assert tracer.trace_op(0, lambda: cli.main(["verify-subsuper", "--config", str(cfg), "--out", str(out), "--quiet"])) == 0
    metrics = _tracing.layer_metrics(tracer, [], [], [], {})
    assert metrics["subsuper.find_min_A.probes"]["value"] == 3
    assert counts == {"bisections": 6, "in_probe": 6, "outside_probe": 0}


def test_traced_stalled_solve_counts_only_full_residuals(tmp_path):
    # the line search rejects shorter steps of a stalled iteration on one
    # row, outside the wrapped assemble_residual: the traced residuals are
    # the initial one, one per accepted step and the stalled step-1 trial
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(STALLING_SOLVE_CFG, encoding="utf-8")
    tracer = _tracing.Tracer()
    assert tracer.trace_op(0, lambda: cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])) == 2
    metrics = _tracing.layer_metrics(tracer, [], [], [], {})
    iters = metrics["penalty_solver.newton_iters"]["value"]
    assert metrics["penalty_solver.converged_frac"]["value"] == 0.0 and 1 <= iters < 100
    assert metrics["assembly.residual.calls"]["value"] <= iters + 2


def test_benchmark_selftest_passes():
    # bench/selftest.py checks the tiny refs and the output checks against
    # the current code; it runs from the root of the checkout
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=_ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
