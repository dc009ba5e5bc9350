"""Discrete operator assembly: stiffness, truncation, residual, Jacobian."""

import numpy as np
import pytest

from degen_blowup import (
    AssemblyError,
    CallableNonlinearity,
    DiscreteField,
    Domain,
    LinearSolveError,
    OrderingError,
    PowerNonlinearity,
    Problem,
    Tridiagonal,
    WeightFamily,
    assemble_jacobian,
    assemble_residual,
    assemble_stiffness,
    build_graded_grid,
    constant_field,
    field_from_callable,
    thomas_solve,
    truncate_nonlinearity,
    volume_weights,
)

IDENTITY = CallableNonlinearity(lambda t: t, lambda t: np.ones_like(t))


def _indexed_thomas(mat, rhs):
    """Reference elimination with row 0 as a special case and indexed numpy access."""
    n = mat.n
    c = np.empty(n)
    d = np.empty(n)
    c[0] = mat.upper[0] / mat.diag[0]
    d[0] = rhs[0] / mat.diag[0]
    for j in range(1, n):
        piv = mat.diag[j] - mat.lower[j] * c[j - 1]
        c[j] = mat.upper[j] / piv
        d[j] = (rhs[j] - mat.lower[j] * d[j - 1]) / piv
    x = np.empty(n)
    x[-1] = d[-1]
    for j in range(n - 2, -1, -1):
        x[j] = d[j] - c[j] * x[j + 1]
    return x


def interval_problem(**overrides):
    defaults = dict(
        domain=Domain.interval(1.0),
        weight=WeightFamily.constant(),
        nonlin=IDENTITY,
        b_coef=1.0,
        source=0.0,
        boundary_value=0.0,
    )
    defaults.update(overrides)
    return Problem(**defaults)


def ball_problem():
    return Problem(
        domain=Domain.ball(1.0, 3),
        weight=WeightFamily.power(0.5),
        nonlin=PowerNonlinearity(3.0),
        b_coef=1.0,
        source=0.0,
        boundary_value=0.0,
    )


def uniform_grid(m=11, eta=1e-9):
    return build_graded_grid(R=1.0, eta=eta, m=m, grading=1.0)


class TestStiffness:
    def test_laplacian_stencil_on_uniform_grid(self):
        grid = uniform_grid()
        h = grid.spacings[0]
        stiff = assemble_stiffness(grid, interval_problem())
        j = 5
        assert stiff.lower[j] == pytest.approx(-1.0 / h)
        assert stiff.diag[j] == pytest.approx(2.0 / h)
        assert stiff.upper[j] == pytest.approx(-1.0 / h)

    def test_exact_transpose_symmetry(self):
        grid = build_graded_grid(R=1.0, eta=1e-3, m=40, grading=2.0)
        stiff = assemble_stiffness(grid, ball_problem())
        assert np.array_equal(stiff.upper[:-1], stiff.lower[1:])

    def test_annihilates_linears_on_interior(self):
        grid = uniform_grid(m=21)
        stiff = assemble_stiffness(grid, interval_problem())
        u = 2.0 * grid.nodes + 1.0
        interior = stiff.matvec(u)[1:-1]
        assert np.max(np.abs(interior)) < 1e-12

    def test_positive_semidefinite_with_constant_kernel(self):
        rng = np.random.default_rng(1)
        grid = build_graded_grid(R=1.0, eta=1e-3, m=30, grading=2.0)
        stiff = assemble_stiffness(grid, ball_problem())
        const = np.ones(grid.m)
        assert np.max(np.abs(stiff.matvec(const))) < 1e-12
        for _ in range(20):
            v = rng.standard_normal(grid.m)
            energy = v @ stiff.matvec(v)
            assert energy >= -1e-12 * np.max(np.abs(v)) ** 2
            if np.ptp(v) > 1e-8:
                assert energy > 0.0

    def test_positive_definite_after_dirichlet_elimination(self):
        rng = np.random.default_rng(2)
        grid = uniform_grid(m=25)
        jac = assemble_jacobian(constant_field(grid, 0.0), interval_problem(b_coef=0.0))
        for _ in range(20):
            v = rng.standard_normal(grid.m)
            v[0] = v[-1] = 0.0  # interior support
            if np.max(np.abs(v)) < 1e-12:
                continue
            assert v @ jac.matvec(v) > 0.0


class TestTruncation:
    def test_clamp_values(self):
        grid = uniform_grid(m=12)
        trunc = truncate_nonlinearity(
            PowerNonlinearity(3.0), constant_field(grid, -1.0), constant_field(grid, 2.0)
        )
        t = np.full(grid.m, -5.0)
        np.testing.assert_allclose(trunc.value(t), -1.0)
        np.testing.assert_allclose(trunc.value(np.ones(grid.m)), 1.0)
        np.testing.assert_allclose(trunc.value(np.full(grid.m, 3.0)), 8.0)

    def test_ordering_error(self):
        grid = uniform_grid(m=12)
        with pytest.raises(OrderingError):
            truncate_nonlinearity(
                PowerNonlinearity(2.0), constant_field(grid, 1.0), constant_field(grid, 0.0)
            )

    def test_idempotent_under_reclamping(self):
        grid = uniform_grid(m=16)
        lo = field_from_callable(grid, lambda r: -1.0 - r)
        hi = field_from_callable(grid, lambda r: 1.0 + r)
        trunc = truncate_nonlinearity(PowerNonlinearity(3.0), lo, hi)
        t = np.linspace(-4.0, 4.0, grid.m)
        once = trunc.value(t)
        again = trunc.value(np.clip(t, lo.values, hi.values))
        np.testing.assert_array_equal(once, again)

    def test_monotone_when_base_is(self):
        grid = uniform_grid(m=8)
        trunc = truncate_nonlinearity(
            PowerNonlinearity(3.0), constant_field(grid, -2.0), constant_field(grid, 1.5)
        )
        for t_grid in (np.linspace(-5, 5, 101), np.linspace(-1, 1, 41)):
            vals = np.stack([trunc.value(np.full(grid.m, t)) for t in t_grid])
            assert np.all(np.diff(vals, axis=0) >= 0.0)

    def test_slope_vanishes_on_clamp_and_at_kinks(self):
        grid = uniform_grid(m=8)
        trunc = truncate_nonlinearity(
            PowerNonlinearity(3.0), constant_field(grid, -1.0), constant_field(grid, 2.0)
        )
        assert np.all(trunc.slope(np.full(grid.m, -1.0)) == 0.0)
        assert np.all(trunc.slope(np.full(grid.m, 2.0)) == 0.0)
        assert np.all(trunc.slope(np.full(grid.m, 0.5)) > 0.0)


class TestResidual:
    def test_penalty_vanishes_inside_slab(self):
        grid = uniform_grid(m=20)
        problem = interval_problem(source=1.0)
        lo = constant_field(grid, 0.0)
        hi = constant_field(grid, 1.0)
        trunc = truncate_nonlinearity(problem.nonlin, lo, hi)
        u = constant_field(grid, 0.5)
        with_pen = assemble_residual(u, problem, trunc, 1e6, lo, hi)
        without = assemble_residual(u, problem, trunc, 0.0, lo, hi)
        np.testing.assert_array_equal(with_pen.values, without.values)

    def test_penalty_entry_below_slab(self):
        # b = 0 and h = 0 isolate the penalty contribution.
        grid = uniform_grid(m=20)
        problem = interval_problem(b_coef=0.0)
        lo = constant_field(grid, 0.0)
        hi = constant_field(grid, 1.0)
        trunc = truncate_nonlinearity(problem.nonlin, lo, hi)
        u = constant_field(grid, -1.0)
        res = assemble_residual(u, problem, trunc, 10.0, lo, hi)
        mu = volume_weights(grid, 1)
        np.testing.assert_allclose(res.values[1:-1], -10.0 * mu[1:-1], rtol=1e-14)

    def test_definition_of_discrete_solution(self):
        # Solving the eliminated linear system and feeding the result back
        # gives a residual at rounding level.
        grid = uniform_grid(m=41)
        problem = interval_problem(source=1.0)
        mu = volume_weights(grid, 1)
        jac = assemble_jacobian(constant_field(grid, 0.0), problem)
        rhs = mu.copy()
        rhs[0] = rhs[-1] = 0.0
        u = DiscreteField(grid, thomas_solve(jac, rhs))
        res = assemble_residual(u, problem)
        assert np.max(np.abs(res.values)) < 1e-11

    def test_nonfinite_coefficient_names_node(self):
        grid = uniform_grid(m=10)
        problem = interval_problem(b_coef=lambda r: np.where(r > 0.5, np.inf, 1.0))
        with pytest.raises(AssemblyError, match="node"):
            assemble_residual(constant_field(grid, 1.0), problem)


class TestJacobian:
    def test_identity_nonlinearity_inside_slab(self):
        grid = uniform_grid(m=15)
        problem = interval_problem()
        lo = constant_field(grid, -1.0)
        hi = constant_field(grid, 1.0)
        trunc = truncate_nonlinearity(problem.nonlin, lo, hi)
        u = constant_field(grid, 0.0)
        jac = assemble_jacobian(u, problem, trunc, 5.0, lo, hi)
        stiff = assemble_stiffness(grid, problem)
        mu = volume_weights(grid, 1)
        expected = stiff.diag + mu
        expected[0] = expected[-1] = 1.0
        np.testing.assert_allclose(jac.diag, expected, rtol=1e-14)

    def test_clamped_branch_keeps_only_penalty(self):
        grid = uniform_grid(m=15)
        problem = interval_problem(nonlin=PowerNonlinearity(3.0))
        lo = constant_field(grid, 0.0)
        hi = constant_field(grid, 1.0)
        trunc = truncate_nonlinearity(problem.nonlin, lo, hi)
        u = constant_field(grid, -10.0)
        jac = assemble_jacobian(u, problem, trunc, 7.0, lo, hi)
        stiff = assemble_stiffness(grid, problem)
        mu = volume_weights(grid, 1)
        expected = stiff.diag + 7.0 * mu  # w = 1; reaction slope clamps to zero
        expected[0] = expected[-1] = 1.0
        np.testing.assert_allclose(jac.diag, expected, rtol=1e-14)

    def test_matches_finite_differences_away_from_kinks(self):
        grid = build_graded_grid(R=1.0, eta=1e-2, m=24, grading=1.5)
        problem = Problem(
            domain=Domain.ball(1.0, 3),
            weight=WeightFamily.power(0.5),
            nonlin=PowerNonlinearity(3.0),
            b_coef=lambda r: 1.0 + 0.5 * r,
            source=lambda r: np.sin(3.0 * r),
            boundary_value=0.3,
        )
        lo = constant_field(grid, -2.0)
        hi = constant_field(grid, 3.0)
        trunc = truncate_nonlinearity(problem.nonlin, lo, hi)
        u = DiscreteField(grid, 0.3 + 0.2 * np.sin(5.0 * grid.nodes))
        direction = np.cos(4.0 * grid.nodes)
        jac = assemble_jacobian(u, problem, trunc, 3.0, lo, hi)
        step = 1e-6
        plus = assemble_residual(DiscreteField(grid, u.values + step * direction),
                                 problem, trunc, 3.0, lo, hi)
        minus = assemble_residual(DiscreteField(grid, u.values - step * direction),
                                  problem, trunc, 3.0, lo, hi)
        fd = (plus.values - minus.values) / (2.0 * step)
        jd = jac.matvec(direction)
        denom = np.max(np.abs(jd))
        assert np.max(np.abs(fd - jd)) / denom < 1e-6


class TestThomas:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        n = 40
        lower = np.concatenate(([0.0], rng.uniform(-1.0, 0.0, n - 1)))
        upper = np.concatenate((rng.uniform(-1.0, 0.0, n - 1), [0.0]))
        diag = 3.0 + rng.uniform(0.0, 1.0, n)
        mat = Tridiagonal(lower, diag, upper)
        rhs = rng.standard_normal(n)
        x = thomas_solve(mat, rhs)
        dense = np.diag(mat.diag) + np.diag(mat.upper[:-1], 1) + np.diag(mat.lower[1:], -1)
        expected = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(x, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "diag, row",
        [
            ([0.0, 1.0, 2.0], 0),
            # elimination zeroes the second pivot: 1 - 1*1 = 0
            ([1.0, 1.0, 2.0], 1),
            ([1.0, np.inf, 2.0], 1),
        ],
        ids=["zero-row-0", "zero-row-1", "inf-row-1"],
    )
    def test_singular_pivot_raises(self, diag, row):
        mat = Tridiagonal([0.0, 1.0, 0.0], diag, [1.0, 0.0, 0.0])
        with pytest.raises(LinearSolveError, match=f"row {row}"):
            thomas_solve(mat, np.ones(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 2001])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_bit_identical_to_indexed_elimination(self, n, strided):
        rng = np.random.default_rng(n)
        lower = np.concatenate(([0.0], rng.uniform(-1.0, 0.0, n - 1)))
        upper = np.concatenate((rng.uniform(-1.0, 0.0, n - 1), [0.0]))
        diag = 2.0 + rng.uniform(0.0, 1.0, n)
        rhs = rng.standard_normal(2 * n)
        rhs = rhs[::2] if strided else rhs[:n]
        mat = Tridiagonal(lower, diag, upper)
        assert np.array_equal(thomas_solve(mat, rhs), _indexed_thomas(mat, rhs))
