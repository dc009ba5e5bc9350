"""Penalized Newton solves, sandwich certificates, barrier verification."""

import numpy as np
import pytest

from degen_blowup import (
    CallableNonlinearity,
    Domain,
    ParameterError,
    Problem,
    SolveOptions,
    SolverError,
    WeightFamily,
    build_graded_grid,
    build_subsolution,
    BlowupParams,
    check_sandwich,
    find_min_A,
    oracle_exact_1d,
    radial_blowup_problem,
    solve_penalized,
    verify_subsupersolution,
)
from degen_blowup import assembly, cli, exhaustion, penalty_solver
from degen_blowup.assembly import assemble_stiffness
from degen_blowup.config import parse_config_text, resolve
from degen_blowup.penalty_solver import sandwich_tol

IDENTITY = CallableNonlinearity(lambda t: t, lambda t: np.ones_like(t))


def linear_problem(R=1.0):
    """-u'' + u = 1 on (0, R) with zero boundary data."""
    return Problem(
        domain=Domain.interval(R),
        weight=WeightFamily.constant(),
        nonlin=IDENTITY,
        b_coef=1.0,
        source=1.0,
        boundary_value=0.0,
    )


def closed_form(r, R=1.0):
    return 1.0 - np.cosh(np.asarray(r) - R / 2.0) / np.cosh(R / 2.0)


def solve_linear(m):
    grid = build_graded_grid(R=1.0, eta=1e-9, m=m, grading=1.0)
    lo = np.full(grid.m, 0.0)
    hi = np.full(grid.m, 1.0)
    u, report = solve_penalized(linear_problem(), grid, lo, hi, SolveOptions(abs_tol=1e-10))
    return grid, lo, hi, u, report


class TestLinearClosedForm:
    def test_matches_closed_form(self):
        grid, _, _, u, report = solve_linear(201)
        assert report.converged
        assert np.max(np.abs(u - closed_form(grid.nodes))) < 1e-6

    def test_second_order_convergence(self):
        errs = []
        for m in (51, 101, 201):
            grid, _, _, u, _ = solve_linear(m)
            errs.append(np.max(np.abs(u - closed_form(grid.nodes))))
        h = [1.0 / (m - 1) for m in (51, 101, 201)]
        orders = [np.log(errs[i] / errs[i + 1]) / np.log(h[i] / h[i + 1]) for i in range(2)]
        assert all(order >= 1.8 for order in orders)

    def test_sandwich_certified(self):
        _, lo, hi, u, _ = solve_linear(101)
        cert = check_sandwich(u, lo, hi, tol=1e-10)
        assert cert.ok and cert.max_below == 0.0 and cert.max_above == 0.0

    def test_penalty_doubling_leaves_solution_unchanged(self):
        # The solution sits strictly inside the slab, so the penalty never
        # activates along the iteration.
        grid, lo, hi, u1, rep1 = solve_linear(101)
        u2, _ = solve_penalized(
            linear_problem(), grid, lo, hi,
            SolveOptions(abs_tol=1e-10, penalty=2.0 * rep1.penalty),
        )
        assert np.max(np.abs(u1 - u2)) <= 10.0 * 1e-10


STALLING_CFG = """
run.command = solve
problem.kind = blowup
problem.epsilon = 0.12
grid.m = 8001
grid.eta = 1e-4
grid.grading = 2
solver.tol = 1e-5
solver.max_iters = 100
"""


def _solve_counting_stalled_trials(cfg, monkeypatch):
    """Run the blowup solve of ``cfg``; also return the step lengths tried after the last
    Jacobian (each one probed on one row or assembled in full) and the full assemblies among them."""
    events = []
    with monkeypatch.context() as patch:
        for name in ("assemble_residual", "residual_rows", "assemble_jacobian"):
            patch.setattr(penalty_solver, name, _logged(getattr(penalty_solver, name), name, events))
        params = cli._blowup_params(cfg)
        base = cli._blowup_problem(cfg, params)
        grid = cli._grid(cfg)
        _, _, u, report = exhaustion.solve_in_slab(base, grid, *cli._envelopes(cfg, params), cli._solve_options(cfg))
    # every Newton step assembles its step-1 trial in full before it probes any shorter one
    steps = [i for i, name in enumerate(events) if name == "assemble_jacobian"]
    assert steps and all(events[i + 1] == "assemble_residual" for i in steps)
    trials = events[steps[-1] + 1:]
    assert set(trials) <= {"assemble_residual", "residual_rows"}
    return u, report, len(trials), trials.count("assemble_residual")


def _logged(func, name, events):
    def logged(*args):
        events.append(name)
        return func(*args)

    return logged


class TestSolverBehaviour:
    def test_zero_data_converges_immediately(self):
        grid = build_graded_grid(R=1.0, eta=1e-6, m=33, grading=1.0)
        problem = Problem(
            domain=Domain.interval(1.0),
            weight=WeightFamily.constant(),
            nonlin=IDENTITY,
            b_coef=1.0,
            source=0.0,
            boundary_value=0.0,
        )
        zero = np.full(grid.m, 0.0)
        u, report = solve_penalized(problem, grid, zero, zero)
        assert report.converged
        assert report.iters <= 1
        assert np.max(np.abs(u)) == 0.0

    def test_degenerate_sandwich_pins_the_solution(self):
        # With lower = upper = the discrete solution, the solve has nothing
        # to do beyond certifying that field.
        grid, _, _, u, _ = solve_linear(81)
        pin = u.copy()
        got, report = solve_penalized(linear_problem(), grid, pin, pin, SolveOptions(abs_tol=1e-8))
        assert report.converged
        assert np.max(np.abs(got - pin)) < 1e-8

    def test_residual_history_strictly_decreasing(self):
        problem, u_star = oracle_exact_1d(R=1.0)
        grid = build_graded_grid(R=1.0, eta=0.1, m=200, grading=2.0)
        lo = 0.9 * u_star(grid.nodes)
        hi = 1.1 * u_star(grid.nodes)
        _, report = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9))
        assert report.converged
        hist = np.asarray(report.residual_history)
        assert np.all(np.diff(hist) < 0.0)

    @pytest.mark.parametrize("max_iters", [1, 60])
    def test_report_carries_the_returned_fields_residual(self, max_iters):
        problem, u_star = oracle_exact_1d(R=1.0)
        grid = build_graded_grid(R=1.0, eta=0.1, m=200, grading=2.0)
        lo = 0.9 * u_star(grid.nodes)
        hi = 1.1 * u_star(grid.nodes)
        u, report = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9, max_iters=max_iters))
        again, _, _ = assembly.assemble_residual(u, assembly.grid_terms(grid, problem, lo, hi, report.penalty))
        assert np.array_equal(report.residual, again)
        assert np.max(np.abs(report.residual)) == report.residual_history[-1]

    @pytest.mark.parametrize("scale", [1.1, 1.0001], ids=["inside", "violated"])
    def test_report_carries_the_returned_fields_sandwich(self, scale):
        problem, u_star = oracle_exact_1d(R=1.0)
        grid = build_graded_grid(R=1.0, eta=0.1, m=200, grading=2.0)
        # the tight upper bound cuts below the solution, so the certificate fails there
        lo = 0.9 * u_star(grid.nodes)
        hi = scale * u_star(grid.nodes) - 0.01
        u, report = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9))
        expected = check_sandwich(u, lo, hi, sandwich_tol(hi))
        assert report.sandwich == expected
        assert report.sandwich.ok == (scale == 1.1)

    def test_report_carries_each_applied_correction(self, monkeypatch):
        # max_j |step * delta_j| / max(|u_j|, 1) per accepted step, u the field
        # before it: read here from the fields the Jacobians are built at
        fields = []
        jacobian = penalty_solver.assemble_jacobian

        def recorded(u, terms):
            fields.append(u.copy())
            return jacobian(u, terms)

        monkeypatch.setattr(penalty_solver, "assemble_jacobian", recorded)
        problem, u_star = oracle_exact_1d(R=1.0)
        grid = build_graded_grid(R=1.0, eta=0.1, m=200, grading=2.0)
        lo = 0.9 * u_star(grid.nodes)
        hi = 1.1 * u_star(grid.nodes)
        u, report = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9))
        assert report.converged and report.iters >= 2
        assert len(report.corrections) == report.iters == len(fields)
        fields.append(u)
        for k, correction in enumerate(report.corrections):
            before, after = fields[k], fields[k + 1]
            moved = np.max(np.abs(after - before) / np.maximum(np.abs(before), 1.0))
            assert correction == pytest.approx(moved, rel=1e-9, abs=1e-15), k
        assert report.corrections[-1] < report.corrections[0]

    def test_correction_is_the_nodewise_relative_step(self):
        u = np.array([-3.0, -0.0, 0.25, 2.0, -1e300, 1e-310])
        delta = np.array([1.5, -0.5, 0.75, -8.0, 3e300, 1.0])
        for step in (1.0, 0.5, 2.0**-13):
            expected = np.max(np.abs(step * delta) / np.maximum(np.abs(u), 1.0))
            assert penalty_solver._correction(delta.copy(), step, u) == expected
        assert penalty_solver._correction(np.zeros(3), 1.0, np.ones(3)) == 0.0

    def test_max_iters_exhaustion_returns_field(self):
        problem, u_star = oracle_exact_1d(R=1.0)
        grid = build_graded_grid(R=1.0, eta=0.1, m=200, grading=2.0)
        lo = 0.9 * u_star(grid.nodes)
        hi = 1.1 * u_star(grid.nodes)
        u, report = solve_penalized(
            problem, grid, lo, hi, SolveOptions(abs_tol=1e-12, max_iters=1)
        )
        assert not report.converged
        assert report.iters == 1
        assert u.shape == (grid.m,)

    def test_one_stiffness_build_per_solve(self, monkeypatch):
        # grid-only terms are built once, not on every residual and Jacobian
        builds = []

        def counted(*args):
            builds.append(1)
            return assemble_stiffness(*args)

        monkeypatch.setattr(assembly, "assemble_stiffness", counted)
        problem, u_star = oracle_exact_1d(R=1.0)
        grid = build_graded_grid(R=1.0, eta=0.1, m=200, grading=2.0)
        lo = 0.9 * u_star(grid.nodes)
        hi = 1.1 * u_star(grid.nodes)
        _, report = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9))
        assert report.iters >= 2
        assert len(builds) == 1

    def test_stalled_iteration_stops_after_fourteen_step_lengths(self, monkeypatch):
        # the solve-fine config at m = 8001 stalls: no step length lowers
        # the residual max-norm.  The stalled iteration tries the 14 lengths
        # 1 .. 2**-13; a floor of 1e-12 tries 40, all of them rejected, so
        # both floors return the same result bit for bit.  Only the step-1
        # trial is assembled in full: each shorter one fails on the row
        # where the current residual peaks.
        cfg = resolve(parse_config_text(STALLING_CFG), cli.SCHEMAS["solve"])
        u, report, trials, assembled = _solve_counting_stalled_trials(cfg, monkeypatch)
        assert not report.converged and report.iters < cfg["solver.max_iters"]
        assert trials == 14
        assert assembled == 1

        monkeypatch.setattr(penalty_solver, "_MIN_STEP", 1e-12)
        u_old, report_old, trials_old, assembled_old = _solve_counting_stalled_trials(cfg, monkeypatch)
        assert trials_old == 40
        assert assembled_old == 1
        assert np.array_equal(u, u_old)
        assert report.iters == report_old.iters
        assert np.array_equal(report.residual_history, report_old.residual_history)

    def test_nonfinite_step_raises_before_any_probe(self, monkeypatch):
        # the step-1 trial is always built in full, so a non-finite Newton
        # step fails in its residual assembly, and no shorter step is probed
        events = []
        solve = penalty_solver.thomas_solve

        def broken(mat, rhs):
            delta = solve(mat, rhs)
            delta[delta.size // 2] = np.inf
            return delta

        monkeypatch.setattr(penalty_solver, "thomas_solve", _logged(broken, "thomas_solve", events))
        for name in ("assemble_residual", "residual_rows"):
            monkeypatch.setattr(penalty_solver, name, _logged(getattr(penalty_solver, name), name, events))
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        # node 50 holds the infinite value; its flux already reaches row 49
        with pytest.raises(SolverError, match="non-finite residual entry at node 49 "):
            solve_penalized(linear_problem(), grid, lo, hi)
        assert events == ["assemble_residual", "thomas_solve", "assemble_residual"]

    @pytest.mark.parametrize(
        "which, value, name",
        [("lower", -np.inf, "lower bound"), ("upper", np.inf, "upper bound"), ("guess", np.nan, "initial guess")],
    )
    def test_nonfinite_input_is_refused(self, which, value, name):
        # grid_terms reads an infinite bound as no bound, so the solve refuses it
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        inputs = {"lower": np.full(grid.m, 0.0), "upper": np.full(grid.m, 1.0), "guess": np.full(grid.m, 0.5)}
        inputs[which][7] = value
        with pytest.raises(ParameterError, match=f"{name} is not finite at r = {grid.nodes[7]}: {value}"):
            solve_penalized(
                linear_problem(), grid, inputs["lower"], inputs["upper"], SolveOptions(initial_guess=inputs["guess"])
            )

    def test_initial_guess_of_the_wrong_length_is_refused(self):
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        with pytest.raises(ParameterError, match=r"initial guess needs 101 values; got shape \(100,\)"):
            solve_penalized(
                linear_problem(), grid, np.full(grid.m, 0.0), np.full(grid.m, 1.0),
                SolveOptions(initial_guess=np.full(100, 0.5)),
            )

    def test_options_validation(self):
        with pytest.raises(ParameterError):
            SolveOptions(abs_tol=0.0)

    def test_non_monotone_nonlinearity_rejected(self):
        grid = build_graded_grid(R=1.0, eta=1e-6, m=33, grading=1.0)
        problem = Problem(
            domain=Domain.interval(1.0),
            weight=WeightFamily.constant(),
            nonlin=CallableNonlinearity(lambda t: -t, lambda t: -np.ones_like(t)),
            b_coef=1.0,
            source=0.0,
            boundary_value=0.0,
        )
        lo = np.full(grid.m, -1.0)
        hi = np.full(grid.m, 1.0)
        with pytest.raises(ParameterError, match="monotone"):
            solve_penalized(problem, grid, lo, hi)

    def test_misordered_slab_names_its_node(self):
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        lo[37] = 1.25
        with pytest.raises(ParameterError, match="at node 37: 1.25 > 1.0"):
            solve_penalized(linear_problem(), grid, lo, hi)

    @pytest.mark.parametrize("penalty, weights", [(None, 2), (3.0, 2), (0.0, 1)], ids=["auto", "given", "off"])
    def test_weight_evaluations_per_solve(self, monkeypatch, penalty, weights):
        # grid_terms takes w once at the half-nodes, for the b/w check (which also gives the
        # default penalty its sup) and the edge conductances, and, for a positive penalty, once at the nodes
        calls = []
        eval_weight = assembly.eval_weight

        def counted(family, d):
            calls.append(np.size(d))
            return eval_weight(family, d)

        monkeypatch.setattr(assembly, "eval_weight", counted)
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        _, report = solve_penalized(
            linear_problem(), grid, np.full(grid.m, 0.0), np.full(grid.m, 1.0), SolveOptions(penalty=penalty)
        )
        assert len(calls) == weights
        assert report.penalty == (2.0 if penalty is None else penalty)  # 1 + sup|b/w| * f' = 1 + 1 * 1


class TestCheckSandwich:
    def test_midpoint_is_inside(self):
        grid = build_graded_grid(R=1.0, eta=1e-6, m=21, grading=1.0)
        lo = np.full(grid.m, -1.0)
        hi = np.full(grid.m, 3.0)
        mid = 0.5 * (lo + hi)
        cert = check_sandwich(mid, lo, hi, tol=0.0)
        assert cert.ok and cert.max_below == 0.0 and cert.max_above == 0.0

    def test_single_node_violation_located(self):
        grid = build_graded_grid(R=1.0, eta=1e-6, m=21, grading=1.0)
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        values = np.full(grid.m, 0.5)
        values[7] = 2.0
        cert = check_sandwich(values, lo, hi, tol=1e-12)
        assert not cert.ok
        assert cert.max_above == pytest.approx(1.0)


class TestVerifySubSuper:
    def test_constant_one_is_supersolution_with_equality(self):
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        rep = verify_subsupersolution(linear_problem(), grid, np.full(grid.m, 1.0), "super")
        assert rep.ok
        assert abs(rep.worst_residual) < 1e-9

    def test_constant_zero_is_subsolution_with_pointwise_minus_one(self):
        grid = build_graded_grid(R=1.0, eta=1e-9, m=101, grading=1.0)
        rep = verify_subsupersolution(linear_problem(), grid, np.full(grid.m, 0.0), "sub")
        assert rep.ok
        assert rep.worst_residual == pytest.approx(-1.0)

    def test_explicit_envelopes_verify_on_graded_grid(self):
        params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, epsilon=0.5)
        sup = find_min_A(params, np.linspace(0.0, 1.0, 10001)).envelope
        sub = build_subsolution(params, -1.0)
        problem = radial_blowup_problem(params)
        grid = build_graded_grid(R=1.0, eta=1e-3, m=800, grading=2.0)
        rep_super = verify_subsupersolution(problem, grid, sup(grid.nodes), "super", tol=1e-6)
        rep_sub = verify_subsupersolution(problem, grid, sub(grid.nodes), "sub", tol=1e-6)
        assert rep_super.ok, rep_super
        assert rep_sub.ok, rep_sub

    def test_kind_validated(self):
        grid = build_graded_grid(R=1.0, eta=1e-9, m=21, grading=1.0)
        with pytest.raises(ParameterError):
            verify_subsupersolution(linear_problem(), grid, np.full(grid.m, 0.0), "both")
