"""Command line interface: configs, outputs, exit codes, determinism."""

import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from degen_blowup import (
    A2Report,
    Domain,
    InteriorVanishingWeight,
    WeightFamily,
    assembly,
    catalogue_families,
    check_a2,
    check_b2,
    cli,
    errors,
    exhaustion,
    subsuper,
)
from degen_blowup.cli import _CSV_CHUNK_ROWS, _write_csv, main
from degen_blowup.config import Config, parse_config_text, resolve

from test_bench_wraps import STALLING_SOLVE_CFG

# a blow-up solve that converges in well under a second
SMALL_SOLVE_CFG = """
run.command = solve
problem.kind = blowup
problem.R = 1.0
grid.m = 401
solver.tol = 1e-5
solver.max_iters = 100
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


@pytest.mark.parametrize(
    "m, max_iters, code, stop",
    [(2001, 100, 0, "converged"), (3001, 100, 2, "stalled"), (3001, 1, 2, "max-iters")],
    ids=["converged", "stalled", "max-iters"],
)
def test_solve_report_says_why_newton_stopped(tmp_path, m, max_iters, code, stop):
    # test_bench_wraps' stalling solve (m = 3001) converges at m = 2001
    text = _with_key(_with_key(STALLING_SOLVE_CFG, "grid.m", m), "solver.max_iters", max_iters)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write(tmp_path / "solve.cfg", text)), "--out", str(out), "--quiet"]) == code
    lines = (out / "report.txt").read_text().splitlines()
    assert lines[:2] == [f"converged = {str(code == 0).lower()}", f"stop = {stop}"]


def test_eta_above_radius_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", _with_key(SMALL_SOLVE_CFG, "grid.eta", "1.5"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "eta" in capsys.readouterr().err
    assert not out.exists()  # nothing written on a config error


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", SMALL_SOLVE_CFG + "solver.typo = 1\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "solver.typo" in capsys.readouterr().err


def test_damping_is_not_a_config_key(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", SMALL_SOLVE_CFG + "solver.damping = 0.5\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "solver.damping" in capsys.readouterr().err


def _with_key(text, key, value):
    """``text`` with ``key = value`` replacing the key's line, or appended."""
    lines = [line for line in text.strip().splitlines() if line.split("=")[0].strip() != key]
    return "\n".join([*lines, f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize(
    "text, code, bound",
    [
        # m = 2001 "converges" one step early: its last step still moved u by over 1%
        (_with_key(STALLING_SOLVE_CFG, "grid.m", 2001), 0, lambda c: c > 1e-2),
        # the all-default solve stalls after corrections at round-off
        ("run.command = solve\n", 2, lambda c: c < 1e-10),
        # a solve that needs no step has no correction to report
        (_with_key(SMALL_SOLVE_CFG, "solver.tol", "1e10"), 0, math.isnan),
    ],
    ids=["one-step-early", "all-default", "no-step"],
)
def test_solve_report_gives_the_last_applied_correction(tmp_path, text, code, bound):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write(tmp_path / "solve.cfg", text)), "--out", str(out), "--quiet"]) == code
    lines = (out / "report.txt").read_text().splitlines()
    assert lines[3].startswith("final_residual = ")
    key, value = lines[4].split(" = ")
    assert key == "last_correction" and bound(float(value)), value


VERIFY_CFG = "run.command = verify-subsuper\nverify.samples = 1001\n"


@pytest.mark.parametrize(
    "command, base, key, value, names",
    [
        # a nan tolerance can never be met
        ("solve", SMALL_SOLVE_CFG, "solver.tol", "nan", "key 'solver.tol'"),
        ("solve", SMALL_SOLVE_CFG, "grid.eta", "inf", "key 'grid.eta'"),
        ("verify-subsuper", VERIFY_CFG, "problem.A", "nan", "key 'problem.A'"),
        ("verify-subsuper", VERIFY_CFG, "verify.C_list", "-1,nan", "'verify.C_list' expects comma-separated finite"),
        ("verify-subsuper", VERIFY_CFG, "problem.a", "poly:1,nan", "'poly:1,nan'"),
    ],
    ids=["tol-nan", "eta-inf", "A-nan", "C_list-nan", "poly-nan"],
)
def test_nonfinite_number_is_config_error(tmp_path, capsys, command, base, key, value, names):
    text = _with_key(base, key, value)
    cfg = write(tmp_path / "bad.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert names in err
    assert f"bad.cfg:{len(text.splitlines())}: key '{key}'" in err
    assert not out.exists()


def test_duplicate_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", SMALL_SOLVE_CFG + "problem.R = 2.0\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_malformed_line_reports_line_number(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "problem.kind = blowup\nnot an assignment\n")
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
    # keys rate takes too, so that the declared command is what is refused
    cfg = write(tmp_path / "mismatch.cfg", "run.command = solve\ngrid.m = 401\n")
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "run.command" in capsys.readouterr().err


def test_command_mismatch_is_refused_before_keys_the_command_lacks(tmp_path, capsys):
    # problem.kind is a solve key that rate lacks; the mismatch is what is reported
    cfg = write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    out = tmp_path / "o"
    assert main(["rate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {cfg}: run.command = 'solve' does not match the invoked command 'rate'\n"
    )
    assert not out.exists()


def test_forced_nonconvergence_exits_two(tmp_path):
    cfg = write(
        tmp_path / "noconv.cfg",
        BLOWUP_SOLVE_CFG.replace("solver.max_iters = 100", "solver.max_iters = 1"),
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert (out / "solution.csv").exists()  # field still reported


def test_rate_window_outside_grid_is_config_error(tmp_path):
    cfg = write(
        tmp_path / "rate.cfg",
        RATE_CFG.replace("rate.d_min = 1e-3", "rate.d_min = 1e-9").replace(
            "rate.d_max = 1e-2", "rate.d_max = 5e-9"
        ),
    )
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1


@pytest.mark.parametrize(
    "window, message",
    [
        ("rate.d_min = 0.5\nrate.d_max = 0.1", "window must satisfy 0 < d_min < d_max; got (0.5, 0.1)"),
        ("rate.d_min = 1e-9\nrate.d_max = 2e-9", "window (1e-09, 2e-09) covers only 0 nodes; need at least 5"),
    ],
    ids=["order", "sparse"],
)
def test_rate_refuses_its_window_before_any_solve(tmp_path, capsys, monkeypatch, window, message):
    def no_solve(*args):
        raise AssertionError("a refused window reached the solver")

    for module in (cli, exhaustion):
        monkeypatch.setattr(module, "solve_penalized", no_solve)
    cfg = write(tmp_path / "rate.cfg", f"run.command = rate\n{window}\n")
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    keys = f"{cfg}:2: key 'rate.d_min', {cfg}:3: key 'rate.d_max'"
    assert capsys.readouterr().err == f"config error: {keys}: {message}\n"


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


@pytest.mark.parametrize(
    "command, outputs",
    [
        ("solve", ["solution.csv", "report.txt"]),
        ("rate", ["rate.csv", "rate_summary.txt"]),
        ("verify-subsuper", ["super_margins.csv", "sub_margins.csv", "subsuper_report.txt"]),
        ("exhaust", ["exhaust.csv", "exhaust_report.txt"]),
        ("b2", ["b2.csv"]),
    ],
    ids=["solve", "rate", "verify-subsuper", "exhaust", "b2"],
)
def test_all_default_config_runs(tmp_path, command, outputs):
    # every default must at least run: any exit code but the config error
    cfg = write(tmp_path / "default.cfg", f"run.command = {command}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 2, 3)
    for name in outputs:
        assert (out / name).is_file(), name


def test_one_dimensional_solve_puts_symmetry_row_at_center(tmp_path):
    # N = 1 is the slab (-R, R), whose large solution is even: r = 0 needs the
    # ball's symmetry row, not a Dirichlet row with the datum of r = R - eta.
    # The exit code is left alone: it is the stopping test's verdict.
    cfg = write(tmp_path / "n1.cfg", "run.command = solve\nproblem.N = 1\ngrid.m = 2001\n")
    out = tmp_path / "out"
    main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"])
    header, rows = read_csv(out / "solution.csv")
    table = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(header)}
    assert abs(table["u"][0] - 1.8541) < 1e-4
    assert np.all((table["sub"] <= table["u"]) & (table["u"] <= table["super"]))
    assert abs(table["residual"][0]) < 1e-6


def test_one_dimensional_exhaust_converges(tmp_path):
    cfg = write(
        tmp_path / "ex.cfg",
        "run.command = exhaust\nproblem.N = 1\nproblem.epsilon = 0.1\ngrid.m = 801\n"
        "solver.tol = 1e-5\nsolver.max_iters = 100\n"
        "exhaust.n0 = 4\nexhaust.n_max = 64\nexhaust.tol = 1e-2\n",
    )
    assert main(["exhaust", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_default_exhaust_config_exhausts_schedule(tmp_path):
    # the monitored [0, R/2] lies strictly inside the first subdomain
    cfg = write(tmp_path / "ex.cfg", "run.command = exhaust\n")
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "status = schedule-exhausted" in (out / "exhaust_report.txt").read_text()


def test_default_exhaust_config_monitors_half_the_radius(tmp_path):
    # a fixed compact radius of 0.5 left the first subdomain (radius 0.4667) at R = 0.8
    cfg = write(tmp_path / "ex.cfg", "run.command = exhaust\nproblem.R = 0.8\n")
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 2)
    _, rows = read_csv(out / "limit.csv")
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 0.4


@pytest.mark.parametrize(
    "command, p",
    [("verify-subsuper", "1.01"), ("solve", "1.0000000001"), ("rate", "1.0000000001"), ("exhaust", "1.0000000001")],
)
def test_power_near_one_is_config_error(tmp_path, capsys, command, p):
    # the upper envelope's amplitude, a power 1/(p-1), overflows the float range
    cfg = write(tmp_path / "p.cfg", f"run.command = {command}\nproblem.p = {p}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    message = f"config error: {cfg}:2: key 'problem.p': envelope amplitude overflows the float range at p={p}"
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def _shift_lower_bound(monkeypatch, shift):
    """Make every command's lower bound its sub-solution plus shift: a fault
    that the sandwich certificate or the slab's ordering check must catch."""
    envelopes = cli._envelopes

    def shifted(cfg, params):
        sub, sup = envelopes(cfg, params)
        return (lambda r: sub(r) + shift), sup

    monkeypatch.setattr(cli, "_envelopes", shifted)


def test_exhaust_bound_injection_exits_three(tmp_path, monkeypatch):
    _shift_lower_bound(monkeypatch, 4.0)
    cfg = write(
        tmp_path / "ex.cfg",
        "run.command = exhaust\nproblem.epsilon = 0.1\ngrid.m = 401\n"
        "solver.tol = 1e-4\nsolver.max_iters = 80\n"
        "exhaust.n0 = 4\nexhaust.n_max = 16\nexhaust.tol = 1e-2\n",
    )
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    report = (out / "exhaust_report.txt").read_text()
    assert "certification-failed" in report
    # the first solve's certificate fails, and the sweep stops there
    assert read_csv(out / "exhaust.csv")[1] == [["4", "0.75", "nan", "false"]]


def test_misordered_slab_is_config_error(tmp_path, capsys, monkeypatch):
    # a lower bound shifted past the upper one fails the slab's ordering check
    _shift_lower_bound(monkeypatch, 100.0)
    cfg = write(
        tmp_path / "ex.cfg",
        "run.command = exhaust\nproblem.epsilon = 0.1\ngrid.m = 401\n"
        "exhaust.n0 = 4\nexhaust.n_max = 16\n",
    )
    out = tmp_path / "out"
    assert main(["exhaust", "--config", str(cfg), "--out", str(out)]) == 1
    assert "lower bound exceeds upper bound at node 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, body, code, err",
    [
        (
            "solve",
            "problem.A = 1e300",
            1,
            "config error: run.cfg: key 'problem.p' (default), run.cfg:2: key 'problem.A', "
            "run.cfg: key 'grid.eta' (default): nonlinearity overflows on the slab\n",
        ),
        (
            "solve",
            "problem.A = 2\nproblem.p = 1e6",
            1,
            "config error: run.cfg:3: key 'problem.p', run.cfg:2: key 'problem.A', "
            "run.cfg: key 'grid.eta' (default): nonlinearity overflows on the slab\n",
        ),
        # find_min_A's margins overflow to +inf, a passing verdict, before the slab's refusal
        (
            "solve",
            "problem.p = 1e6",
            1,
            "config error: run.cfg:2: key 'problem.p', run.cfg: key 'problem.A' (default), "
            "run.cfg: key 'grid.eta' (default): nonlinearity overflows on the slab\n",
        ),
        # the upper barrier's margins overflow to +inf: it holds, and nothing is refused
        ("verify-subsuper", "problem.A = 1e300", 0, ""),
    ],
    ids=["A", "p", "p-auto-A", "verify-A"],
)
def test_overflowing_slab_prints_only_its_refusal(tmp_path, command, body, code, err):
    # a float overflow prints no numpy warning: stderr holds the refusal, if any, alone
    write(tmp_path / "run.cfg", f"run.command = {command}\n{body}\n")
    proc = _run_python(tmp_path, ["-m", "degen_blowup.cli", command, "--config", "run.cfg", "--out", "o"])
    assert proc.returncode == code
    assert proc.stderr == err
    assert (tmp_path / "o").exists() == (code == 0)


@pytest.mark.parametrize(
    "command, body, message",
    [
        *(
            (command, "problem.A = 1", "run.cfg:3: key 'problem.A': the upper barrier of shift 1 does not hold")
            for command in ("solve", "rate", "exhaust")
        ),
        # p = 1.02 needs a far larger shift than 2 for the upper barrier to hold
        *(
            (
                command,
                "problem.p = 1.02\nproblem.A = 2",
                "run.cfg:4: key 'problem.A': the upper barrier of shift 2 does not hold",
            )
            for command in ("solve", "rate", "exhaust")
        ),
        # a(r) = 3 - 2r is larger inside than at R: the sufficient lower-barrier form fails
        (
            "solve",
            "problem.a = poly:3,-2\nproblem.p = 1.5",
            "run.cfg: key 'problem.C' (default): the lower barrier of shift -1 does not hold",
        ),
    ],
    ids=["solve-A", "rate-A", "exhaust-A", "solve-p-A", "rate-p-A", "exhaust-p-A", "solve-a"],
)
def test_failing_barrier_exits_three_before_any_solve(tmp_path, monkeypatch, capsys, command, body, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved between barriers that do not hold")

    monkeypatch.setattr(cli, "solve_in_slab", no_solve)
    monkeypatch.setattr(cli, "solve_large_solution", no_solve)
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "run.cfg", f"run.command = {command}\n# the value under test\n{body}\n")
    assert main([command, "--config", "run.cfg", "--out", "o", "--quiet"]) == 3
    assert capsys.readouterr().err == f"certification failure: {message}\n"
    assert not (tmp_path / "o").exists()


def _fail_every_upper_barrier(monkeypatch):
    """Make find_min_A's probe fail at every shift, up to 2**1023."""
    def failing(params, sup, samples):
        return subsuper.InequalityReport(ok=False, envelope=sup, samples=samples, margins=-np.ones_like(samples))

    monkeypatch.setattr(subsuper, "verify_super_inequality", failing)


@pytest.mark.parametrize("command", ["solve", "rate", "exhaust"])
def test_auto_shift_that_never_holds_is_refused_at_problem_A(tmp_path, monkeypatch, capsys, command):
    # the search stops at the last power of 2 in the float range, and _envelopes
    # refuses its report like any other failing barrier
    _fail_every_upper_barrier(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "run.cfg", f"run.command = {command}\n")
    assert main([command, "--config", "run.cfg", "--out", "o", "--quiet"]) == 3
    message = "run.cfg: key 'problem.A' (default): the upper barrier of shift 8.98847e+307 does not hold"
    assert capsys.readouterr().err == f"certification failure: {message}\n"
    assert not (tmp_path / "o").exists()


def test_verify_subsuper_reports_an_auto_shift_that_never_holds(tmp_path, monkeypatch, capsys):
    _fail_every_upper_barrier(monkeypatch)
    cfg = write(tmp_path / "vs.cfg", "run.command = verify-subsuper\nverify.samples = 101\n")
    out = tmp_path / "out"
    assert main(["verify-subsuper", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().out.startswith("verify-subsuper: min_A=not-found super_ok=False ")
    report = (out / "subsuper_report.txt").read_text()
    assert "min_A = not-found\nsuper_ok = false\n" in report
    # the search's last report is written like any other
    assert len(read_csv(out / "super_margins.csv")[1]) == 101


def test_verify_subsuper_reports_an_explicit_shift_as_A(tmp_path, capsys):
    cfg = write(tmp_path / "vs.cfg", "run.command = verify-subsuper\nproblem.A = 8\n")
    out = tmp_path / "out"
    assert main(["verify-subsuper", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("verify-subsuper: A=8.0 super_ok=True ")
    report = (out / "subsuper_report.txt").read_text()
    assert report.startswith("A = 8\nsuper_ok = true\n") and "min_A" not in report


class _Solved(Exception):
    """Raised in place of the first solve: the barriers were accepted."""


def test_solve_at_p_one_and_a_half_reaches_its_solve(tmp_path, monkeypatch):
    # the smallest passing shift there is 2**20, far past 2**15
    def solved(params, grid, lower, upper, *args):
        assert upper.shift == 2.0**20
        raise _Solved

    monkeypatch.setattr(cli, "solve_in_slab", solved)
    cfg = write(tmp_path / "run.cfg", "run.command = solve\nproblem.p = 1.5\n")
    with pytest.raises(_Solved):
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])


def test_blowup_params_from_a_polynomial_spec_are_plain_values():
    # two parses of one spec give equal, hashable parameters that pickle
    cfgs = [resolve(parse_config_text("problem.a = poly:3,-2"), cli.SCHEMAS["solve"]) for _ in range(2)]
    first, second = (cli._blowup_params(cfg) for cfg in cfgs)
    assert first.a_coef == (3.0, -2.0)
    assert first == second and hash(first) == hash(second)
    assert pickle.loads(pickle.dumps(first)) == second


@pytest.mark.parametrize(
    "body",
    [
        "",
        "problem.A = 1",
        "problem.A = 4",
        "problem.C = -8",
        "problem.epsilon = 0.5\nproblem.A = 2",
        "problem.a = poly:3,-2\nproblem.p = 1.5",
        "problem.a = poly:3,-2\nproblem.p = 1.5\nproblem.A = 1e250",
        "problem.p = 1.02\nproblem.A = 2",
        "problem.p = 1.02\nproblem.A = 1e250",
        "problem.p = 1.05",
        "problem.p = 1.5",
        "problem.alpha = 0.5\nproblem.gamma = 0.5\nproblem.A = 2",
    ],
    ids=[
        "default", "A1", "A4", "C-8", "eps-A2", "poly-a", "poly-a-A", "p102-A2", "p102-A", "p105", "p15", "alpha-gamma"
    ],
)
def test_blowup_commands_refuse_barriers_exactly_when_verify_subsuper_does(tmp_path, monkeypatch, body):
    # verify-subsuper on the same problem keys, with verify.C = problem.C and
    # 4097 samples, exits 3 exactly when solve, rate and exhaust refuse their
    # barriers (exit 3, nothing written) before a solve
    def solved(*args, **kwargs):
        raise _Solved

    raw = parse_config_text(body)
    c = raw.pop("problem.C", ("-1.0", 0))[0]
    problem = "".join(f"{key} = {value}\n" for key, (value, _) in raw.items())
    verify = write(tmp_path / "v.cfg", f"run.command = verify-subsuper\nverify.C = {c}\nverify.samples = 4097\n{problem}")
    refused = main(["verify-subsuper", "--config", str(verify), "--out", str(tmp_path / "v"), "--quiet"]) == 3
    monkeypatch.setattr(cli, "solve_in_slab", solved)
    monkeypatch.setattr(cli, "solve_large_solution", solved)
    for command in ("solve", "rate", "exhaust"):
        cfg = write(tmp_path / f"{command}.cfg", f"run.command = {command}\nproblem.C = {c}\n{problem}")
        out = tmp_path / command
        if refused:
            assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
            assert not out.exists()
        else:
            with pytest.raises(_Solved):
                main([command, "--config", str(cfg), "--out", str(out), "--quiet"])


@pytest.mark.parametrize("n_dim", [1, 2])
def test_b2_catalogue_below_three_dimensions(tmp_path, n_dim):
    # the catalogue lists only the profiles admissible at b2.N, and b2 checks each of them
    cfg = write(tmp_path / "b2.cfg", f"run.command = b2\nb2.N = {n_dim}\n")
    out = tmp_path / "out"
    assert main(["b2", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    families = catalogue_families(n_dim)
    for _, family in families:
        family.validate_for_dimension(n_dim)
    rows = read_csv(out / "b2.csv")[1]
    assert [row[0] for row in rows] == [label for label, _ in families] + ["interior-vanishing(|x-0.5|)"]


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


def test_b2_margin_past_half_interval(tmp_path):
    # the failing case lives on (0, R) = (0, 1): a margin of 0.6 would
    # reverse its subset, while the ball families accept any margin below R
    cfg = write(tmp_path / "b2.cfg", "run.command = b2\nb2.margin = 0.6\nb2.quad_nodes = 32\n")
    out = tmp_path / "o"
    assert main(["b2", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


def test_b2_margin_checked_before_any_quadrature(tmp_path, monkeypatch):
    calls = []
    for name in ("check_b2", "check_a2"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    cfg = write(tmp_path / "b2.cfg", "run.command = b2\nb2.margin = 0.6\nb2.quad_nodes = 65536\n")
    out = tmp_path / "o"
    assert main(["b2", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert calls == []
    assert not out.exists()


def test_b2_failing_case_lives_on_the_configured_radius(tmp_path):
    # a margin valid for the ball of radius 4 is valid for the interval (0, 4)
    cfg = write(tmp_path / "b2.cfg", "run.command = b2\nb2.R = 4\nb2.margin = 1.0\n")
    out = tmp_path / "o"
    assert main(["b2", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(out / "b2.csv")
    failing = {row[0]: row for row in rows}["interior-vanishing(|x-2|)"]
    assert failing[1] == "false" and failing[4] == "true"


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


def _serial_b2(n_dim=3, R=1.0, margin=0.1, quad=256, family=None):
    """b2.csv rows and progress lines from one check_b2/check_a2 call per entry, each with fresh arrays."""
    domain = Domain.ball(R, n_dim)
    if family is None:
        entries = [(label, fam, domain) for label, fam in catalogue_families(n_dim)]
        entries.append((f"interior-vanishing(|x-{R / 2:g}|)", InteriorVanishingWeight(R / 2), Domain.interval(R)))
    else:
        entries = [(family.tag, family, domain)]
    rows, lines = [], []
    for label, weight, dom in entries:
        b2 = check_b2(weight, dom, margin, quad)
        if isinstance(weight, WeightFamily):
            a2 = check_a2(weight, R=dom.R, quad_nodes=quad)
        else:
            a2 = A2Report(passes=False, a2_estimate=math.inf, divergent=True)
        rows.append((label, b2.passes, b2.integral_estimate, b2.relative_change, b2.divergent, a2.passes, a2.a2_estimate))
        lines.append(f"b2: {label:32s} passes={b2.passes} divergent={b2.divergent} two_sided={a2.passes}\n")
    return rows, "".join(lines)


_B2_HEADER = ["family", "passes", "integral_estimate", "relative_change", "divergent", "a2_passes", "a2_estimate"]


@pytest.mark.parametrize(
    "body, reference",
    [
        ("b2.quad_nodes = 16\n", {"quad": 16}),
        ("b2.quad_nodes = 17\n", {"quad": 17}),
        ("b2.quad_nodes = 256\n", {"quad": 256}),
        ("b2.N = 5\nb2.R = 2.7\nb2.margin = 0.3\nb2.quad_nodes = 100\n", {"n_dim": 5, "R": 2.7, "margin": 0.3, "quad": 100}),
        (
            "b2.family = power-log\nb2.alpha = -0.5\nb2.beta_log = 2\n",
            {"family": WeightFamily.power_log(-0.5, 2.0)},
        ),
    ],
    ids=["catalogue-16", "catalogue-17", "catalogue-256", "N5-R2.7", "one-family"],
)
def test_b2_pool_matches_serial_checks(tmp_path, capsys, body, reference):
    # the table and the lines of the two-thread run, byte for byte and in entry order
    cfg = write(tmp_path / "b2.cfg", f"run.command = b2\n{body}")
    out = tmp_path / "out"
    assert main(["b2", "--config", str(cfg), "--out", str(out)]) == 0
    rows, lines = _serial_b2(**reference)
    _reference_write_csv(tmp_path / "serial.csv", _B2_HEADER, rows)
    assert (out / "b2.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert capsys.readouterr().out == lines


def test_b2_lines_come_in_entry_order(tmp_path, capsys, monkeypatch):
    # the first entry finishes after the second, yet its line comes first
    second_done = threading.Event()
    first, second = (family for _, family in catalogue_families(3)[:2])
    check_a2 = cli.check_a2

    def ordered(family, **kwargs):
        if family == first:
            assert second_done.wait(30)
        try:
            return check_a2(family, **kwargs)
        finally:
            if family == second:
                second_done.set()

    monkeypatch.setattr(cli, "check_a2", ordered)
    cfg = write(tmp_path / "b2.cfg", "run.command = b2\nb2.quad_nodes = 16\n")
    out = tmp_path / "out"
    assert main(["b2", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == _serial_b2(quad=16)[1]


def test_b2_run_traced_peak_at_65536_nodes(tmp_path):
    # one i + 0.5 table and one values array per thread, 8 * 65536 doubles
    # (4 MB) each, plus a block of each thread's gap or power-log factor
    cfg = write(tmp_path / "b2.cfg", "run.command = b2\nb2.quad_nodes = 65536\n")
    warm = write(tmp_path / "warm.cfg", "run.command = b2\nb2.quad_nodes = 16\n")
    assert main(["b2", "--config", str(warm), "--out", str(tmp_path / "warm"), "--quiet"]) == 0
    tracemalloc.start()
    try:
        assert main(["b2", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 12.5, peak


@pytest.mark.parametrize(
    "command, body, where",
    [
        ("verify-subsuper", "problem.A = -1", ":3: key 'problem.A': shift A must be positive"),
        ("verify-subsuper", "verify.C = -1e20", ":3: key 'verify.C': activation radius not bracketed"),
        ("verify-subsuper", "verify.C_list = -1,-1e20", ":3: key 'verify.C_list': activation radius not bracketed"),
        # bracketed, but past R - 1e-6, where the sub-solution's samples end
        ("verify-subsuper", "verify.C = -1e10", ":3: key 'verify.C': samples must lie at or beyond"),
        # -8, the first default entry, is too deep for the flat envelope of p = 100
        ("verify-subsuper", "problem.p = 100", ": key 'verify.C_list' (default): activation radius not bracketed"),
        ("solve", "problem.A = -1", ":3: key 'problem.A': shift A must be positive"),
        ("exhaust", "problem.C = -1e20", ":3: key 'problem.C': activation radius not bracketed"),
        ("verify-subsuper", "verify.samples = 1", ":3: key 'verify.samples': must be at least 2; got 1"),
        ("b2", "b2.quad_nodes = 8", ":3: key 'b2.quad_nodes': quad_nodes must be at least 16; got 8"),
        ("b2", "b2.margin = 0.6", ":3: key 'b2.margin': on an interval the margin must lie in (0, R/2)"),
        # the default margin 0.1 leaves a ball of radius 0.1 no compact subset
        ("b2", "b2.R = 0.1", ": key 'b2.margin' (default): margin must lie in (0, R)"),
        ("solve", "problem.kind = linear", ":3: key 'problem.kind': must be 'blowup'; got 'linear'"),
        # the first subdomain, r < R - 1/n0, must hold the monitored [0, R/2]
        ("exhaust", "exhaust.n0 = 2", ":3: key 'exhaust.n0': compact_radius=0.5 must stay inside the first"),
        ("exhaust", "exhaust.n0 = 1", ":3: key 'exhaust.n0': margin 1/1 >= R = 1.0 leaves an empty subdomain"),
        ("solve", "solver.tol = 0", ":3: key 'solver.tol': abs_tol must be positive; got 0.0"),
        ("rate", "solver.max_iters = 0", ":3: key 'solver.max_iters': max_iters must be at least 1; got 0"),
        ("exhaust", "solver.tol = -1e-9", ":3: key 'solver.tol': abs_tol must be positive; got -1e-09"),
        # the sweep could never stop early, so it would run the whole schedule
        ("exhaust", "exhaust.tol = 0", ":3: key 'exhaust.tol': tol must be positive; got 0.0"),
        ("exhaust", "exhaust.tol = -1", ":3: key 'exhaust.tol': tol must be positive; got -1.0"),
        # R - eta, or the last subdomain's radius R - 1/n, rounds to R, where the envelopes blow up
        ("solve", "grid.eta = 1e-17", ":3: key 'grid.eta', "),
        ("exhaust", "exhaust.n_max = 1152921504606846976", ":3: key 'exhaust.n_max', "),
    ],
    ids=[
        "A", "C", "C_list", "C-past-samples", "C_list-default", "solve-A", "exhaust-C",
        "samples", "quad_nodes", "margin", "margin-default", "solve-kind", "n0", "n0-empty",
        "tol", "max_iters", "exhaust-tol", "exhaust.tol-0", "exhaust.tol-negative",
        "eta-rounds-to-R", "n_max-rounds-to-R",
    ],
)
def test_refused_value_names_file_line_and_key(tmp_path, capsys, command, body, where):
    cfg = write(tmp_path / "run.cfg", f"run.command = {command}\n# the value under test\n{body}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {cfg}{where}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("solve", "problem.epsilon = 2", "run.cfg:3: key 'problem.epsilon': epsilon must lie in (0, 1); got 2.0"),
        ("rate", "problem.R = -1", "run.cfg:3: key 'problem.R': radius R must be positive; got -1.0"),
        ("exhaust", "problem.N = 0", "run.cfg:3: key 'problem.N': dimension N must be a positive integer; got 0"),
        ("verify-subsuper", "problem.p = 0.5", "run.cfg:3: key 'problem.p': superlinear power p > 1 required; got p=0.5"),
        (
            "solve",
            "problem.gamma = -1",
            "run.cfg:3: key 'problem.gamma', run.cfg: key 'problem.alpha' (default): gamma - alpha must be >= 0; got -1.0",
        ),
        (
            "solve",
            "problem.a = -1",
            "run.cfg:3: key 'problem.a', run.cfg: key 'problem.R' (default): a(r) must be finite and positive on [0, R]",
        ),
        # a(r) = 5.0035e-05 - r/64 + r**2 dips below 0 on (0.0045, 0.0111), between any 65 uniform samples
        *(
            (
                command,
                "problem.a = poly:5.0035e-05,-0.015625,1",
                "run.cfg:3: key 'problem.a', run.cfg: key 'problem.R' (default): "
                "a(r) must be finite and positive on [0, R]",
            )
            for command in ("solve", "rate", "exhaust", "verify-subsuper")
        ),
        ("solve", "grid.m = 1", "run.cfg:3: key 'grid.m': node count m must be at least 3; got 1"),
        ("exhaust", "grid.m = 1", "run.cfg:3: key 'grid.m': node count m must be at least 3; got 1"),
        (
            "solve",
            "grid.eta = 2",
            "run.cfg:3: key 'grid.eta', run.cfg: key 'problem.R' (default): eta must lie in (0, R); got eta=2.0, R=1.0",
        ),
        ("rate", "grid.grading = 0.5", "run.cfg:3: key 'grid.grading': grading must be >= 1; got 0.5"),
        ("solve", "problem.R = -1", "run.cfg:3: key 'problem.R': radius R must be positive; got -1.0"),
        ("b2", "b2.N = 0", "run.cfg:3: key 'b2.N': dimension N must be a positive integer; got 0"),
        ("b2", "b2.family = power\nb2.alpha = -2", "run.cfg:4: key 'b2.alpha': power-type profile needs alpha > -1"),
        ("b2", "b2.family = bogus", "run.cfg:3: key 'b2.family': unknown weight family tag 'bogus'"),
        (
            "exhaust",
            "exhaust.n0 = 8\nexhaust.n_max = 4",
            "run.cfg:4: key 'exhaust.n_max', run.cfg:3: key 'exhaust.n0': n_max=4 must be at least n0=8",
        ),
        # the derived n0 at R = 1 is 3
        (
            "exhaust",
            "exhaust.n_max = 2",
            "run.cfg:3: key 'exhaust.n_max', run.cfg: key 'exhaust.n0' (default): n_max=2 must be at least n0=3",
        ),
        (
            "rate",
            "rate.d_min = 0.5\nrate.d_max = 0.1",
            "run.cfg:3: key 'rate.d_min', run.cfg:4: key 'rate.d_max': "
            "window must satisfy 0 < d_min < d_max; got (0.5, 0.1)",
        ),
        (
            "rate",
            "rate.d_min = 1e-9\nrate.d_max = 2e-9",
            "run.cfg:3: key 'rate.d_min', run.cfg:4: key 'rate.d_max': "
            "window (1e-09, 2e-09) covers only 0 nodes; need at least 5",
        ),
        # graded this steeply, the last spacing rounds to 0
        (
            "solve",
            "grid.m = 20001\ngrid.grading = 4",
            "run.cfg:3: key 'grid.m', run.cfg:4: key 'grid.grading': grid nodes must be strictly increasing",
        ),
        (
            "exhaust",
            "grid.grading = 8",
            "run.cfg: key 'grid.m' (default), run.cfg:3: key 'grid.grading': grid nodes must be strictly increasing",
        ),
        *(
            (
                command,
                "problem.N = 2\nproblem.alpha = 1.5\nproblem.gamma = 1.5",
                "run.cfg:4: key 'problem.alpha', run.cfg:3: key 'problem.N': "
                "power-type profile needs alpha < N-1 = 1; got alpha=1.5",
            )
            for command in ("solve", "rate", "exhaust", "verify-subsuper")
        ),
        *(
            (command, "problem.alpha = -1.5", "run.cfg:3: key 'problem.alpha': power-type profile needs alpha > -1")
            for command in ("solve", "rate", "exhaust", "verify-subsuper")
        ),
        # the lower envelope reaches about 1e400 at r = R - eta; A = 1e250 is an upper barrier there
        *(
            (
                command,
                "problem.p = 1.02\nproblem.A = 1e250",
                "run.cfg:3: key 'problem.p', run.cfg: key 'grid.eta' (default): "
                "lower bound is not finite at r = 0.92150784: inf",
            )
            for command in ("solve", "rate")
        ),
        (
            "solve",
            "problem.p = 1.02\nproblem.A = 1e250\ngrid.eta = 0.01",
            "run.cfg:3: key 'problem.p', run.cfg:5: key 'grid.eta': lower bound is not finite at r = 0.92152269: inf",
        ),
        # checked at the outer radius 1 - 1/48 of the last truncation, before the first solve
        (
            "exhaust",
            "problem.p = 1.02\nproblem.A = 1e250",
            "run.cfg:3: key 'problem.p', run.cfg: key 'exhaust.n0' (default), run.cfg: key 'exhaust.n_max' "
            "(default): lower bound is not finite at r = 0.9791666666666666: inf",
        ),
        (
            "exhaust",
            "problem.p = 1.02\nproblem.A = 1e250\nexhaust.n0 = 4\nexhaust.n_max = 40",
            "run.cfg:3: key 'problem.p', run.cfg:5: key 'exhaust.n0', run.cfg:6: key 'exhaust.n_max': "
            "lower bound is not finite at r = 0.96875: inf",
        ),
        # f of the upper envelope overflows on the slab, at its first solve
        (
            "rate",
            "problem.p = 9\nproblem.A = 1e50",
            "run.cfg:3: key 'problem.p', run.cfg:4: key 'problem.A', run.cfg: key 'grid.eta' (default): "
            "nonlinearity overflows on the slab",
        ),
        (
            "exhaust",
            "problem.A = 1e120",
            "run.cfg: key 'problem.p' (default), run.cfg:3: key 'problem.A', run.cfg: key 'exhaust.n0' (default), "
            "run.cfg: key 'exhaust.n_max' (default): nonlinearity overflows on the slab",
        ),
    ],
    ids=[
        "epsilon", "R", "N", "p", "gamma-alpha", "a", "solve-a-dip", "rate-a-dip", "exhaust-a-dip",
        "verify-a-dip", "m", "exhaust-m", "eta-R", "grading",
        "solve-R", "b2-N", "b2-alpha", "b2-family", "n_max", "n_max-derived-n0", "window-order",
        "window-empty", "grid-collision", "exhaust-grid-collision",
        "solve-alpha-N", "rate-alpha-N", "exhaust-alpha-N", "verify-alpha-N",
        "solve-alpha", "rate-alpha", "exhaust-alpha", "verify-alpha",
        "solve-envelope-overflow", "rate-envelope-overflow", "solve-envelope-overflow-eta",
        "exhaust-envelope-overflow", "exhaust-envelope-overflow-schedule", "rate-slab-overflow",
        "exhaust-slab-overflow",
    ],
)
def test_refused_range_names_file_line_and_keys(tmp_path, monkeypatch, capsys, command, body, message):
    # a check that reads several parameters names the key of each
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "run.cfg", f"run.command = {command}\n# the value under test\n{body}\n")
    assert main([command, "--config", "run.cfg", "--out", "o", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "o").exists()


def test_every_error_type_sits_in_one_exit_row():
    # main and sweep members handle exactly the package's own error types
    types = [t for t in vars(errors).values() if isinstance(t, type) and t.__module__ == errors.__name__]
    rows = {t.__name__: sum(t in row_types for row_types, _, _ in cli._EXIT_TABLE) for t in types}
    assert rows == {t.__name__: 1 for t in types}


@pytest.mark.parametrize(
    "error, code, label",
    [
        (errors.ConfigError, 1, "config error"),
        (errors.ParameterError, 1, "config error"),
        (errors.SolverError, 2, "solver error"),
        (errors.CertificationError, 3, "certification failure"),
    ],
)
def test_handled_error_exits_with_its_code_and_label(tmp_path, capsys, monkeypatch, error, code, label):
    def raising(cfg, out, say):
        raise error("what went wrong")

    monkeypatch.setitem(cli._HANDLERS, "solve", raising)
    cfg = write(tmp_path / "run.cfg", "run.command = solve\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == f"{label}: what went wrong\n"


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


@pytest.mark.parametrize("kind", ["bogus", "linear"])
@pytest.mark.parametrize("command", ["rate", "verify-subsuper", "exhaust"])
def test_blowup_only_commands_reject_other_problem_kind(tmp_path, capsys, command, kind):
    # these commands solve the blow-up problem only, so they take no problem.kind at all
    cfg = write(tmp_path / "kind.cfg", f"run.command = {command}\nproblem.kind = {kind}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert f"{cfg}:2: unknown key 'problem.kind'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "member",
    [
        "run.command = solve\nproblem.C = -1e15\n",
        "run.command = verify-subsuper\nverify.C_list = -1,abc\n",
        "run.command = rate\nproblem.kind = bogus\n",
    ],
    ids=["solve-huge-C", "verify-bad-C_list", "rate-bogus-kind"],
)
def test_sweep_member_config_error_does_not_abort_sweep(tmp_path, member):
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    write(tmp_path / "bad.cfg", member)
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = solve.cfg, bad.cfg\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 1
    assert (out / "solve" / "solution.csv").exists()


def test_sweep_runs_members_in_own_directories(tmp_path):
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    write(tmp_path / "b2.cfg", "run.command = b2\n")
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = solve.cfg, b2.cfg\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 0
    assert (out / "solve" / "solution.csv").exists()
    assert (out / "b2" / "b2.csv").exists()


# members run in forked processes, which inherit the monkeypatched handlers
needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="sweep members fork only on Linux")


@needs_fork
def test_sweep_prints_member_lines_in_config_order(tmp_path, capsys, monkeypatch):
    # the first member waits until the second has finished, yet its lines come first
    write(tmp_path / "b2.cfg", "run.command = b2\nb2.quad_nodes = 16\n")
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = b2.cfg, solve.cfg\n")
    second_done = multiprocessing.get_context("fork").Event()  # shared by the forked members
    handlers = dict(cli._HANDLERS)

    def b2_after_solve(*args):
        assert second_done.wait(30)
        return handlers["b2"](*args)

    def solve_then_signal(*args):
        try:
            return handlers["solve"](*args)
        finally:
            second_done.set()

    monkeypatch.setitem(cli._HANDLERS, "b2", b2_after_solve)
    monkeypatch.setitem(cli._HANDLERS, "solve", solve_then_signal)
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "out")]) == 0
    heads = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert heads == ["b2"] * (len(heads) - 2) + ["solve", "sweep"] and len(heads) > 2


@needs_fork
def test_sweep_member_unhandled_exception_propagates(tmp_path, monkeypatch):
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = solve.cfg\n")

    def broken(*args):
        raise RuntimeError("member bug")

    monkeypatch.setitem(cli._HANDLERS, "solve", broken)
    with pytest.raises(RuntimeError, match="member bug"):
        main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "out"), "--quiet"])


def _run_python(tmp_path, args, timeout=120):
    """python args, run in tmp_path on this checkout's package; the process is killed after timeout s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@needs_fork
def test_sweep_member_whose_process_dies_ends_the_sweep(tmp_path):
    # os._exit skips every handler: the pool reports the dead worker, it does not wait for it
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    write(tmp_path / "b2.cfg", "run.command = b2\nb2.quad_nodes = 16\n")
    write(tmp_path / "sweep.cfg", "sweep.configs = solve.cfg, b2.cfg\n")
    script = (
        "import os\n"
        "from degen_blowup import cli\n"
        "cli._HANDLERS['solve'] = lambda *args: os._exit(7)\n"
        "cli.main(['sweep', '--config', 'sweep.cfg', '--out', 'out'])\n"
    )
    proc = _run_python(tmp_path, ["-c", script], timeout=60)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr
    assert "sweep:" not in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["-m", "degen_blowup.cli", "sweep", "--config", "sweep.cfg", "--out", "out"],
        # a line still buffered when the pool forks is written once, by the parent
        ["-c", "print('before'); from degen_blowup.cli import main; main(['sweep', '--config', 'sweep.cfg'])"],
    ],
    ids=["module", "printed-before"],
)
def test_sweep_to_a_pipe_prints_each_line_once(tmp_path, args):
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    write(tmp_path / "b2.cfg", "run.command = b2\nb2.quad_nodes = 16\n")
    write(tmp_path / "sweep.cfg", "sweep.configs = solve.cfg, b2.cfg\n")
    proc = _run_python(tmp_path, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    heads = [line.split(":")[0] for line in lines]
    assert heads.count("solve") == 1 and heads.count("sweep") == 1 and heads.count("before") == ("-c" in args)
    assert heads.count("b2") == len(lines) - 2 - heads.count("before") > 0
    assert lines[-1] == "sweep: 2 runs, exit codes [0, 0]"


def test_sweep_member_needs_command(tmp_path):
    write(tmp_path / "anon.cfg", "problem.kind = blowup\n")
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = anon.cfg\n")
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("second", ["b/rate.cfg", "a/rate.cfg"], ids=["same-stem", "listed-twice"])
def test_sweep_members_sharing_an_output_directory_are_refused(tmp_path, capsys, second):
    # both would write out/rate: refused before any member runs
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write(tmp_path / sub / "rate.cfg", SMALL_SOLVE_CFG)
    sweep = write(tmp_path / "sweep.cfg", f"sweep.configs = a/rate.cfg, {second}\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"sweep members {(tmp_path / 'a/rate.cfg').resolve()} and {(tmp_path / second).resolve()}" in err
    assert not out.exists()


def test_sweep_member_that_is_a_sweep_is_refused(tmp_path, capsys):
    # refused while the members are read, before the first member runs
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    inner = write(tmp_path / "inner.cfg", "run.command = sweep\nsweep.configs = solve.cfg\n")
    sweep = write(tmp_path / "sweep.cfg", "sweep.configs = solve.cfg, inner.cfg\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 1
    assert f"{inner.resolve()}: run.command = 'sweep' is not runnable in a sweep" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_naming_another_command_is_refused(tmp_path, capsys):
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    sweep = write(tmp_path / "sweep.cfg", "run.command = solve\nsweep.configs = solve.cfg\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep), "--out", str(out), "--quiet"]) == 1
    assert "run.command = 'solve' does not match the invoked command 'sweep'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("exhaust", "grid.eta", "0.5"),
        ("verify-subsuper", "problem.C", "-1000"),
        ("rate", "rate.synthetic", "true"),
        ("exhaust", "exhaust.sub_shift", "4.0"),
        # numerical knobs that became constants, and a radius derived from problem.R
        ("solve", "solver.penalty", "auto"),
        ("rate", "solver.penalty", "auto"),
        ("exhaust", "solver.penalty", "auto"),
        ("verify-subsuper", "verify.r_gap", "1e-6"),
        ("exhaust", "exhaust.monitor_m", "101"),
        ("exhaust", "exhaust.compact_radius", "0.5"),
        ("b2", "b2.include_failing", "true"),
        # the commands that solve the blow-up problem only
        ("rate", "problem.kind", "blowup"),
        ("verify-subsuper", "problem.kind", "blowup"),
        ("exhaust", "problem.kind", "blowup"),
    ],
)
def test_keys_a_command_never_reads_are_unknown(tmp_path, capsys, command, key, value):
    cfg = write(tmp_path / "c.cfg", f"run.command = {command}\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert f"{cfg}:2: unknown key '{key}' for this command" in capsys.readouterr().err
    assert not out.exists()


class _Recording:
    """Records in self.reads every key read through [] or get."""

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)


class _RecordingConfig(_Recording, Config):
    """A resolved config, its lines kept, that records every key read from it."""

    def __init__(self, cfg, reads):
        super().__init__(cfg, cfg.source, cfg.lines)
        self.reads = reads


class _RecordingRaw(_Recording, dict):
    """A parsed config file that records every key read from it before it is resolved."""

    def __init__(self, raw, reads):
        super().__init__(raw)
        self.reads = reads


# every mode of every command (both of b2.family), on configs small enough
# to run in well under a second each
_EVERY_MODE = [
    ("solve", "run.command = solve\ngrid.m = 201\nsolver.max_iters = 2\n"),
    ("rate", "run.command = rate\ngrid.m = 301\nsolver.max_iters = 2\n"),
    ("verify-subsuper", VERIFY_CFG),
    ("exhaust", "run.command = exhaust\ngrid.m = 101\nsolver.max_iters = 2\nexhaust.n0 = 4\nexhaust.n_max = 8\n"),
    ("b2", "run.command = b2\nb2.quad_nodes = 64\n"),
    ("b2", "run.command = b2\nb2.family = power\nb2.alpha = 0.5\nb2.quad_nodes = 64\n"),
    ("sweep", "run.command = sweep\nsweep.configs = solve.cfg\n"),
]


def test_every_schema_key_is_read_by_its_command(tmp_path, monkeypatch):
    # a key its command never reads is accepted and silently ignored
    reads = {command: set() for command in cli.SCHEMAS}
    resolve = cli.resolve

    def recording(raw, schema, source="<config>"):
        command = next(c for c, keys in cli.SCHEMAS.items() if keys is schema)
        # a plain copy: resolve's own reads of the parsed file are not the command's
        return _RecordingConfig(resolve(dict(raw), schema, source), reads[command])

    # _dispatch reads run.command from the parsed file, before it resolves the rest
    parse = cli.parse_config_file
    command_of = {tmp_path / f"{i}.cfg": command for i, (command, _) in enumerate(_EVERY_MODE)}

    def recording_parse(path):
        raw = parse(path)
        return _RecordingRaw(raw, reads[command_of[path]]) if path in command_of else raw

    monkeypatch.setattr(cli, "resolve", recording)
    monkeypatch.setattr(cli, "parse_config_file", recording_parse)
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    for i, (command, text) in enumerate(_EVERY_MODE):
        cfg = write(tmp_path / f"{i}.cfg", text)
        main([command, "--config", str(cfg), "--out", str(tmp_path / f"out{i}"), "--quiet"])
    unread = {command: sorted(set(keys) - reads[command]) for command, keys in cli.SCHEMAS.items()}
    assert unread == {command: [] for command in cli.SCHEMAS}


def test_outputs_are_bit_identical_across_reruns(tmp_path):
    cfg = write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_package_never_loads_scipy(tmp_path):
    # scipy.linalg alone adds about 26 MB of RSS; lazy imports count too, so
    # the commands run in a fresh interpreter before sys.modules is checked.
    write(tmp_path / "solve.cfg", SMALL_SOLVE_CFG)
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
    proc = _run_python(tmp_path, ["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "exhaust" / "exhaust.csv").exists()


# The join-everything writer the chunked column writer replaced, kept as the
# byte-for-byte reference; it took rows, as zip() of the columns gives them.
def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _reference_write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0])
_POWERS = np.array([10.0**q for q in range(-300, 301)]).view(np.int64)
_POWERS = (_POWERS[:, None] + np.array([-1, 0, 1])).ravel().view(np.float64)  # +- 1 ulp


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
def test_csv_writer_bit_identical_to_joined_rows(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    columns = (
        np.resize(_SPECIAL, n_rows),
        rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
        np.zeros(n_rows),
        np.resize(_POWERS, n_rows),
        [float(v) for v in np.resize(_SPECIAL, n_rows)],
        list(range(n_rows)),
        np.arange(n_rows) - 3,
        [i % 3 == 0 for i in range(n_rows)],
        np.arange(n_rows) % 2 == 0,
        [f"family({i})" for i in range(n_rows)],
    )
    header = ["f", "g", "zero", "pow10", "f_list", "i", "i_array", "b", "b_array", "s"]
    _write_csv(tmp_path / "new.csv", header, columns)
    _reference_write_csv(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n_cols", range(1, 7))
@pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 3 * _CSV_CHUNK_ROWS + 5])
def test_csv_writer_float_table_bit_identical_to_joined_rows(tmp_path, n_rows, n_cols):
    # every column a float64 array, so each chunk goes to the C row writer;
    # the first column holds the special values and powers in order
    rng = np.random.default_rng(10 * n_rows + n_cols)
    pool = np.concatenate([_SPECIAL, _POWERS, rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)])
    columns = tuple(np.resize(pool if j == 0 else rng.permutation(pool), n_rows) for j in range(n_cols))
    header = [f"c{j}" for j in range(n_cols)]
    _write_csv(tmp_path / "new.csv", header, columns)
    _reference_write_csv(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_writer_threads_keep_the_chunks_in_order(tmp_path, monkeypatch):
    # 143 chunks of 7 rows through the two formatting threads and the three
    # rotating buffers, with the interpreter switching threads as often as it can
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 7)
    rng = np.random.default_rng(3)
    columns = (rng.standard_normal(1000), np.arange(1000.0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _write_csv(tmp_path / "new.csv", ["x", "i"], columns)
    finally:
        sys.setswitchinterval(interval)
    _reference_write_csv(tmp_path / "old.csv", ["x", "i"], zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_writer_memory_stays_at_one_chunk(tmp_path):
    # the solve-fine table: six float64 columns of 200001 rows, 22 MB of text;
    # joining it whole peaked at 84 MB, the C writer's three chunk buffers near 4.4 MB
    rng = np.random.default_rng(0)
    columns = tuple(rng.standard_normal(200001) for _ in range(6))
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", ["a", "b", "c", "d", "e", "f"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


def test_csv_writer_refuses_float_columns_of_unequal_length(tmp_path):
    # the C kernel reads every column to the first one's length
    with pytest.raises(ValueError, match="need 3 values each"):
        _write_csv(tmp_path / "short.csv", ["a", "b"], (np.ones(3), np.ones(2)))


def test_solve_builds_stiffness_once(tmp_path, monkeypatch):
    # the residual column is the solver's last accepted residual, not a
    # second assembly with its own grid terms
    builds = []
    assemble_stiffness = assembly.assemble_stiffness

    def counted(*args):
        builds.append(1)
        return assemble_stiffness(*args)

    monkeypatch.setattr(assembly, "assemble_stiffness", counted)
    cfg = write(tmp_path / "solve.cfg", BLOWUP_SOLVE_CFG)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(builds) == 1


SOLVE_FINE_CFG = """
run.command = solve
problem.kind = blowup
problem.epsilon = 0.12
grid.m = 200001
grid.eta = 1e-4
grid.grading = 2
solver.tol = 1e-5
solver.max_iters = 100
"""


def test_solve_memory_holds_no_per_residual_rebuilds(monkeypatch):
    # one Newton solve of the solve-fine config: rebuilding the grid-only
    # terms in every residual, with the Jacobian alive through the line
    # search, peaked at 33.6 MB; building them once and dropping the
    # Jacobian after its solve peaked at 29.0 MB, with the input checks'
    # nodal array (f at the bounds) alive through the Newton loop; checking
    # the inputs inside grid_terms, whose temporaries end with it, peaks at 27.4 MB
    peaks = []
    solve_penalized = exhaustion.solve_penalized

    def traced(*args):
        tracemalloc.start()
        try:
            result = solve_penalized(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(exhaustion, "solve_penalized", traced)
    cfg = resolve(parse_config_text(SOLVE_FINE_CFG), cli.SCHEMAS["solve"])
    params = cli._blowup_params(cfg)
    base = assembly.radial_blowup_problem(params)
    exhaustion.solve_in_slab(base, cli._grid(cfg), *cli._envelopes(cfg, params), cli._solve_options(cfg))
    assert len(peaks) == 1
    assert peaks[0] < 28.2e6, f"traced peak {peaks[0] / 1e6:.1f} MB"
