"""Command line interface: configs, outputs, exit codes, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degen_blowup.cli import main

LINEAR_CFG = """
run.command = solve
problem.kind = linear
problem.R = 1.0
grid.m = 401
grid.eta = 1e-9
grid.grading = 1.0
solver.tol = 1e-10
"""

BLOWUP_SOLVE_CFG = """
run.command = solve
problem.kind = blowup
problem.epsilon = 0.1
grid.m = 1201
solver.tol = 1e-5
solver.max_iters = 100
"""

RATE_CFG = """
run.command = rate
problem.epsilon = 0.1
grid.m = 1501
solver.tol = 1e-5
solver.max_iters = 100
rate.d_min = 1e-3
rate.d_max = 1e-2
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_linear_solve_matches_closed_form(tmp_path):
    cfg = write(tmp_path / "linear.cfg", LINEAR_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv(out / "solution.csv")
    assert header == ["r", "d", "u", "sub", "super", "residual"]
    worst = 0.0
    for row in rows:
        r, u = float(row[0]), float(row[2])
        exact = 1.0 - math.cosh(r - 0.5) / math.cosh(0.5)
        worst = max(worst, abs(u - exact))
    assert worst < 1e-6
    report = (out / "report.txt").read_text()
    assert "converged = true" in report
    assert "sandwich_ok = true" in report


def test_eta_above_radius_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", LINEAR_CFG.replace("grid.eta = 1e-9", "grid.eta = 1.5"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "eta" in capsys.readouterr().err
    assert not out.exists()  # nothing written on a config error


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", LINEAR_CFG + "solver.typo = 1\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "solver.typo" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", LINEAR_CFG + "problem.R = 2.0\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_malformed_line_reports_line_number(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "problem.kind = linear\nnot an assignment\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert ":2:" in capsys.readouterr().err


def test_polynomial_coefficient_spec(tmp_path):
    cfg = write(
        tmp_path / "vs.cfg",
        "run.command = verify-subsuper\nproblem.epsilon = 0.5\nproblem.a = poly:1,0.5\n",
    )
    out = tmp_path / "out"
    assert main(["verify-subsuper", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    bad = write(tmp_path / "bad.cfg", "run.command = verify-subsuper\nproblem.a = poly:\n")
    assert main(["verify-subsuper", "--config", str(bad), "--out", str(out)]) == 1


def test_command_mismatch_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "mismatch.cfg", LINEAR_CFG)
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "run.command" in capsys.readouterr().err


def test_forced_nonconvergence_exits_two(tmp_path):
    cfg = write(
        tmp_path / "noconv.cfg",
        BLOWUP_SOLVE_CFG.replace("solver.max_iters = 100", "solver.max_iters = 1"),
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert (out / "solution.csv").exists()  # field still reported


def test_rate_synthetic_recovers_exactly(tmp_path):
    cfg = write(tmp_path / "rate.cfg", RATE_CFG + "rate.synthetic = true\n")
    out = tmp_path / "out"
    assert main(["rate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    summary = dict(
        line.split(" = ") for line in (out / "rate_summary.txt").read_text().strip().splitlines()
    )
    assert abs(float(summary["beta_hat"]) - 1.0) < 1e-9
    assert abs(float(summary["K_hat"]) - math.sqrt(2.0)) < 1e-9


def test_rate_window_outside_grid_is_config_error(tmp_path):
    cfg = write(
        tmp_path / "rate.cfg",
        RATE_CFG.replace("rate.d_min = 1e-3", "rate.d_min = 1e-9").replace(
            "rate.d_max = 1e-2", "rate.d_max = 5e-9"
        ),
    )
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1


def test_rate_end_to_end_inside_bounds(tmp_path):
    cfg = write(tmp_path / "rate.cfg", RATE_CFG)
    out = tmp_path / "out"
    assert main(["rate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    summary = dict(
        line.split(" = ") for line in (out / "rate_summary.txt").read_text().strip().splitlines()
    )
    assert abs(float(summary["beta_hat"]) - 1.0) < 0.05
    assert summary["bounds_ok"] == "true"


def test_verify_subsuper_reports_activation_radius(tmp_path):
    cfg = write(tmp_path / "vs.cfg", "run.command = verify-subsuper\nproblem.epsilon = 0.5\n")
    out = tmp_path / "out"
    assert main(["verify-subsuper", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    report = (out / "subsuper_report.txt").read_text()
    assert "min_A = 4" in report
    assert "reduced_endpoint_ok = true" in report
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    value = dict(
        line.split(" = ") for line in report.strip().splitlines()
    )["activation_radius"]
    assert abs(float(value) - golden) < 1e-9
    assert (out / "super_margins.csv").exists()
    assert (out / "sub_margins.csv").exists()


def test_exhaust_stabilizes_and_writes_tables(tmp_path):
    cfg = write(
        tmp_path / "ex.cfg",
        "run.command = exhaust\nproblem.epsilon = 0.1\ngrid.m = 801\n"
        "solver.tol = 1e-5\nsolver.max_iters = 100\n"
        "exhaust.n0 = 4\nexhaust.n_max = 64\nexhaust.tol = 1e-2\n",
    )
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv(out / "exhaust.csv")
    assert header == ["n", "outer_radius", "delta", "sandwich_ok"]
    assert all(row[3] == "true" for row in rows)
    assert (out / "limit.csv").exists()


def test_default_exhaust_config_exhausts_schedule(tmp_path):
    # the default compact radius 0.5 lies strictly inside the first subdomain
    cfg = write(tmp_path / "ex.cfg", "run.command = exhaust\n")
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "status = schedule-exhausted" in (out / "exhaust_report.txt").read_text()


def test_exhaust_bound_injection_exits_three(tmp_path):
    cfg = write(
        tmp_path / "ex.cfg",
        "run.command = exhaust\nproblem.epsilon = 0.1\ngrid.m = 401\n"
        "solver.tol = 1e-4\nsolver.max_iters = 80\n"
        "exhaust.n0 = 4\nexhaust.n_max = 16\nexhaust.tol = 1e-2\n"
        "exhaust.sub_shift = 4.0\n",
    )
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    report = (out / "exhaust_report.txt").read_text()
    assert "certification-failed" in report


def test_b2_catalogue_table(tmp_path):
    cfg = write(tmp_path / "b2.cfg", "run.command = b2\n")
    out = tmp_path / "out"
    assert main(["b2", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv(out / "b2.csv")
    assert header[:5] == ["family", "passes", "integral_estimate", "relative_change", "divergent"]
    by_family = {row[0]: row for row in rows}
    failing = by_family.pop("interior-vanishing(|x-0.5|)")
    assert failing[1] == "false" and failing[4] == "true"
    assert all(row[1] == "true" for row in by_family.values())
    # the two-sided surrogate is recorded alongside and splits the catalogue
    assert by_family["power(0.5)"][5] == "true"
    assert by_family["power(1.9)"][5] == "false"


@pytest.mark.parametrize(
    "family, params, code",
    [
        ("constant", "", 0),
        ("power", "b2.alpha = 0.5\n", 0),
        ("power-log", "b2.alpha = 0.5\nb2.beta_log = 2.0\n", 0),
        ("log-negative", "b2.alpha = 1.0\n", 0),
        ("exp-deficit", "b2.a_exp = -2.0\n", 0),
        ("power", "b2.alpha = -1.5\n", 1),
        ("cubic", "", 1),
    ],
    ids=["constant", "power", "power-log", "log-negative", "exp-deficit", "power-bad-alpha", "cubic"],
)
def test_b2_family_exit_code(tmp_path, family, params, code):
    cfg = write(tmp_path / "b2.cfg", f"run.command = b2\nb2.family = {family}\n{params}")
    out = tmp_path / "o"
    assert main(["b2", "--config", str(cfg), "--out", str(out), "--quiet"]) == code
    if code == 0:
        _, rows = read_csv(out / "b2.csv")
        assert [row[0] for row in rows] == [family]


@pytest.mark.parametrize(
    "body",
    [
        "verify.C = -1e15",
        "verify.C_list = -1,abc",
        "verify.C_list =",
        "verify.samples = 0",
        "verify.samples = 1",
        "verify.samples = -3",
    ],
    ids=["huge-C", "C_list-not-a-number", "C_list-empty", "samples-0", "samples-1", "samples-negative"],
)
def test_unbracketed_activation_radius_is_config_error(tmp_path, capsys, body):
    cfg = write(tmp_path / "verify.cfg", f"run.command = verify-subsuper\n{body}\n")
    assert main(["verify-subsuper", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "member",
    [
        "run.command = solve\nproblem.C = -1e15\n",
        "run.command = verify-subsuper\nverify.C_list = -1,abc\n",
    ],
    ids=["solve-huge-C", "verify-bad-C_list"],
)
def test_sweep_member_config_error_does_not_abort_sweep(tmp_path, member):
    write(tmp_path / "linear.cfg", LINEAR_CFG)
    write(tmp_path / "bad.cfg", member)
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = linear.cfg, bad.cfg\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 1
    assert (out / "linear" / "solution.csv").exists()


def test_sweep_runs_members_in_own_directories(tmp_path):
    write(tmp_path / "linear.cfg", LINEAR_CFG)
    write(tmp_path / "b2.cfg", "run.command = b2\n")
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = linear.cfg, b2.cfg\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 0
    assert (out / "linear" / "solution.csv").exists()
    assert (out / "b2" / "b2.csv").exists()


def test_sweep_member_needs_command(tmp_path):
    write(tmp_path / "anon.cfg", "problem.kind = linear\n")
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = anon.cfg\n")
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "o")]) == 1


def test_outputs_are_bit_identical_across_reruns(tmp_path):
    cfg = write(tmp_path / "linear.cfg", LINEAR_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_package_never_loads_scipy(tmp_path):
    # scipy.linalg alone adds about 26 MB of RSS; lazy imports count too, so
    # the commands run in a fresh interpreter before sys.modules is checked.
    write(tmp_path / "solve.cfg", LINEAR_CFG)
    write(
        tmp_path / "exhaust.cfg",
        "run.command = exhaust\ngrid.m = 201\nexhaust.n0 = 4\nexhaust.n_max = 8\n",
    )
    write(tmp_path / "b2.cfg", "run.command = b2\nb2.quad_nodes = 32\n")
    script = (
        "import sys\n"
        "from degen_blowup.cli import main\n"
        "for command in ('solve', 'exhaust', 'b2'):\n"
        "    main([command, '--config', command + '.cfg', '--out', command, '--quiet'])\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "exhaust" / "exhaust.csv").exists()
