"""Rate fitting, envelope ratio bounds, and the closed-form one-dimensional oracle."""

import math

import numpy as np
import pytest
import sympy

from degen_blowup import (
    BlowupParams,
    ParameterError,
    SolveOptions,
    blowup_constant,
    blowup_exponent,
    build_graded_grid,
    build_supersolution,
    check_epsilon_bounds,
    fit_blowup_rate,
    oracle_exact_1d,
    solve_penalized,
)


class TestFit:
    def test_recovers_pure_power_data_exactly(self):
        grid = build_graded_grid(R=1.0, eta=1e-4, m=400, grading=2.0)
        u = math.sqrt(2.0) * grid.boundary_gap ** (-1.0)
        fit = fit_blowup_rate(grid, u, (1e-3, 1e-1))
        assert abs(fit.beta_hat - 1.0) < 1e-6
        assert abs(fit.K_hat - math.sqrt(2.0)) / math.sqrt(2.0) < 1e-6
        assert fit.r2 > 0.9999

    def test_constant_field_fits_flat_line(self):
        grid = build_graded_grid(R=1.0, eta=1e-3, m=200, grading=1.0)
        fit = fit_blowup_rate(grid, np.full(grid.m, 5.0), (1e-2, 0.5))
        assert abs(fit.beta_hat) < 1e-12
        assert fit.K_hat == pytest.approx(5.0)
        assert fit.r2 == 1.0

    def test_nonpositive_data_rejected(self):
        grid = build_graded_grid(R=1.0, eta=1e-3, m=100, grading=1.0)
        with pytest.raises(ParameterError, match="field must be strictly positive inside the fit window"):
            fit_blowup_rate(grid, np.zeros(grid.m), (1e-2, 0.5))

    def test_sparse_window_rejected(self):
        grid = build_graded_grid(R=1.0, eta=1e-3, m=100, grading=1.0)
        with pytest.raises(ParameterError, match=r"window \(1e-08, 2e-08\) covers only 0 nodes; need at least 5"):
            fit_blowup_rate(grid, np.ones(grid.m), (1e-8, 2e-8))

    def test_window_shrink_approaches_envelope_exponent(self):
        params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, epsilon=0.5)
        sup = build_supersolution(params, 4.0)
        grid = build_graded_grid(R=1.0, eta=1e-7, m=6001, grading=3.0)
        u = sup(grid.nodes)
        errors = []
        for k in range(3):
            window = (1e-2 * 4.0 ** (-k - 1), 1e-1 * 4.0 ** (-k - 1))
            fit = fit_blowup_rate(grid, u, window)
            errors.append(abs(fit.beta_hat - params.beta))
        assert errors[0] > errors[1] > errors[2]


class TestEpsilonBounds:
    def test_scaled_envelope_hits_the_upper_bound(self):
        grid = build_graded_grid(R=1.0, eta=1e-4, m=300, grading=2.0)
        eps = 0.25
        K, beta = 2.0, 1.5
        u = (1.0 + eps) * K * grid.boundary_gap ** (-beta)
        rep = check_epsilon_bounds(grid, u, K, beta, eps, (1e-3, 1e-2))
        assert rep.ok
        assert rep.max_ratio == pytest.approx(1.0 + eps)

    def test_exact_rate_data_has_unit_ratios(self):
        grid = build_graded_grid(R=1.0, eta=1e-4, m=300, grading=2.0)
        u = 3.0 * grid.boundary_gap ** (-2.0)
        rep = check_epsilon_bounds(grid, u, 3.0, 2.0, 0.05, (1e-3, 1e-2))
        assert rep.ok
        assert rep.min_ratio == pytest.approx(1.0)
        assert rep.max_ratio == pytest.approx(1.0)

    def test_out_of_band_data_flagged(self):
        grid = build_graded_grid(R=1.0, eta=1e-4, m=300, grading=2.0)
        u = 2.0 * grid.boundary_gap ** (-1.0)
        rep = check_epsilon_bounds(grid, u, 1.0, 1.0, 0.1, (1e-3, 1e-2))
        assert not rep.ok

    def test_window_of_four_nodes_rejected_like_the_fit(self):
        grid = build_graded_grid(R=1.0, eta=1e-3, m=100, grading=1.0)
        window = (float(grid.boundary_gap[-1]), float(grid.boundary_gap[-4]))
        with pytest.raises(ParameterError, match="covers only 4 nodes; need at least 5"):
            check_epsilon_bounds(grid, np.ones(grid.m), 1.0, 1.0, 0.1, window)


class TestExactOracle:
    def test_symbolic_substitution(self):
        # (sqrt(2)/(R - x))'' equals (sqrt(2)/(R - x))**3 identically
        x, R = sympy.symbols("x R", positive=True)
        u = sympy.sqrt(2) / (R - x)
        assert sympy.simplify(sympy.diff(u, x, 2) - u**3) == 0

    def test_exponent_and_amplitude_match_formulas(self):
        beta = blowup_exponent(3.0, 0.0, 0.0)
        assert beta == pytest.approx(1.0)
        assert blowup_constant(3.0, 0.0, 1.0, beta) == pytest.approx(math.sqrt(2.0))
        _, u_star = oracle_exact_1d(R=1.0)
        d = np.asarray([1e-3, 1e-2, 1e-1])
        np.testing.assert_allclose(u_star(1.0 - d), math.sqrt(2.0) * d ** (-1.0), rtol=1e-12)

    def test_solver_reproduces_oracle_to_second_order(self):
        problem, u_star = oracle_exact_1d(R=1.0)
        errs = []
        for m in (100, 199):
            grid = build_graded_grid(R=1.0, eta=0.1, m=m, grading=2.0)
            lo = 0.9 * u_star(grid.nodes)
            hi = 1.1 * u_star(grid.nodes)
            u, report = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9))
            assert report.converged
            errs.append(np.max(np.abs(u - u_star(grid.nodes))))
        # node counts 100 -> 199 halve the parameter spacing exactly
        order = np.log(errs[0] / errs[1]) / np.log(2.0)
        assert order >= 1.8
