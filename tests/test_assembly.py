"""Discrete operator assembly: stiffness, the truncating slab, residual, Jacobian."""

import numpy as np
import pytest

from degen_blowup import (
    CallableNonlinearity,
    Domain,
    ParameterError,
    PowerNonlinearity,
    Problem,
    SolverError,
    Tridiagonal,
    WeightFamily,
    assemble_jacobian,
    assemble_residual,
    assemble_stiffness,
    build_graded_grid,
    eval_weight,
    grid_terms,
    thomas_solve,
    volume_weights,
)
from degen_blowup.assembly import residual_rows

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
        problem = interval_problem(b_coef=0.0)
        jac = assemble_jacobian(np.full(grid.m, 0.0), grid_terms(grid, problem))
        for _ in range(20):
            v = rng.standard_normal(grid.m)
            v[0] = v[-1] = 0.0  # interior support
            if np.max(np.abs(v)) < 1e-12:
                continue
            assert v @ jac.matvec(v) > 0.0


def _sampling(base):
    """A nonlinearity like base that records every argument f is evaluated at."""
    seen = []

    def func(t):
        seen.append(t.copy())
        return base.value(t)

    return CallableNonlinearity(func, base.slope), seen


class TestTruncation:
    """The slab of the grid terms truncates f: f only ever sees u clipped to it."""

    def test_clamp_values(self):
        grid = uniform_grid(m=12)
        nonlin, seen = _sampling(PowerNonlinearity(3.0))
        problem = interval_problem(nonlin=nonlin)
        terms = grid_terms(grid, problem, np.full(grid.m, -1.0), np.full(grid.m, 2.0))
        stiff = terms.operator
        mu = volume_weights(grid, 1)
        for t, clamped in ((-5.0, -1.0), (1.0, 1.0), (3.0, 2.0)):
            u = np.full(grid.m, t)
            res = assemble_residual(u, terms)
            np.testing.assert_array_equal(seen.pop(), np.full(grid.m, clamped))
            reaction = res[1:-1] - stiff.matvec(u)[1:-1]
            np.testing.assert_allclose(reaction, clamped**3 * mu[1:-1], rtol=1e-12)

    def test_ordering_error(self):
        grid = uniform_grid(m=12)
        lower = np.ones(grid.m)
        lower[7] = 2.0
        with pytest.raises(ParameterError, match="at node 7: 2.0 > 1.5"):
            grid_terms(grid, interval_problem(), lower, np.full(grid.m, 1.5))

    def test_idempotent_under_reclamping(self):
        grid = uniform_grid(m=16)
        nonlin, seen = _sampling(PowerNonlinearity(3.0))
        lo = -1.0 - grid.nodes
        hi = 1.0 + grid.nodes
        terms = grid_terms(grid, interval_problem(nonlin=nonlin), lo, hi)
        seen.clear()  # set-up evaluates f at the bounds and on monotonicity samples
        t = np.linspace(-4.0, 4.0, grid.m)
        assemble_residual(t, terms)
        assemble_residual(np.clip(t, lo, hi), terms)
        once, again = seen
        np.testing.assert_array_equal(once, again)
        np.testing.assert_array_equal(once, np.clip(t, lo, hi))

    def test_monotone_when_base_is(self):
        grid = uniform_grid(m=8)
        base = PowerNonlinearity(3.0)
        nonlin, seen = _sampling(base)
        terms = grid_terms(grid, interval_problem(nonlin=nonlin), np.full(grid.m, -2.0), np.full(grid.m, 1.5))
        for t_grid in (np.linspace(-5, 5, 101), np.linspace(-1, 1, 41)):
            seen.clear()
            for t in t_grid:
                assemble_residual(np.full(grid.m, t), terms)
            vals = base.value(np.stack(seen))
            assert np.all(np.diff(vals, axis=0) >= 0.0)

    def test_slope_vanishes_on_clamp_and_at_kinks(self):
        grid = uniform_grid(m=8)
        problem = interval_problem(nonlin=PowerNonlinearity(3.0))
        terms = grid_terms(grid, problem, np.full(grid.m, -1.0), np.full(grid.m, 2.0))
        stiff = terms.operator.diag[1:-1]
        for t in (-1.0, 2.0, -3.0):
            assert np.array_equal(assemble_jacobian(np.full(grid.m, t), terms).diag[1:-1], stiff), t
        assert np.all(assemble_jacobian(np.full(grid.m, 0.5), terms).diag[1:-1] > stiff)


class TestResidual:
    def test_penalty_vanishes_inside_slab(self):
        grid = uniform_grid(m=20)
        problem = interval_problem(source=1.0)
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        u = np.full(grid.m, 0.5)
        with_pen = assemble_residual(u, grid_terms(grid, problem, lo, hi, 1e6))
        without = assemble_residual(u, grid_terms(grid, problem, lo, hi, 0.0))
        np.testing.assert_array_equal(with_pen, without)

    def test_penalty_entry_below_slab(self):
        # b = 0 and h = 0 isolate the penalty contribution.
        grid = uniform_grid(m=20)
        problem = interval_problem(b_coef=0.0)
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        u = np.full(grid.m, -1.0)
        res = assemble_residual(u, grid_terms(grid, problem, lo, hi, 10.0))
        mu = volume_weights(grid, 1)
        np.testing.assert_allclose(res[1:-1], -10.0 * mu[1:-1], rtol=1e-14)

    def test_definition_of_discrete_solution(self):
        # Solving the eliminated linear system and feeding the result back
        # gives a residual at rounding level.
        grid = uniform_grid(m=41)
        problem = interval_problem(source=1.0)
        mu = volume_weights(grid, 1)
        terms = grid_terms(grid, problem)
        jac = assemble_jacobian(np.full(grid.m, 0.0), terms)
        rhs = mu.copy()
        rhs[0] = rhs[-1] = 0.0
        u = thomas_solve(jac, rhs)
        res = assemble_residual(u, terms)
        assert np.max(np.abs(res)) < 1e-11

    def test_nonfinite_coefficient_names_node(self):
        # a non-finite b is refused by grid_terms already (b/w); a source is not checked there
        grid = uniform_grid(m=10)
        problem = interval_problem(source=lambda r: np.where(r > 0.5, np.inf, 0.0))
        with pytest.raises(SolverError, match="node"):
            assemble_residual(np.full(grid.m, 1.0), grid_terms(grid, problem))


class TestJacobian:
    def test_identity_nonlinearity_inside_slab(self):
        grid = uniform_grid(m=15)
        problem = interval_problem()
        lo = np.full(grid.m, -1.0)
        hi = np.full(grid.m, 1.0)
        u = np.full(grid.m, 0.0)
        jac = assemble_jacobian(u, grid_terms(grid, problem, lo, hi, 5.0))
        stiff = assemble_stiffness(grid, problem)
        mu = volume_weights(grid, 1)
        expected = stiff.diag + mu
        expected[0] = expected[-1] = 1.0
        np.testing.assert_allclose(jac.diag, expected, rtol=1e-14)

    def test_clamped_branch_keeps_only_penalty(self):
        grid = uniform_grid(m=15)
        problem = interval_problem(nonlin=PowerNonlinearity(3.0))
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        u = np.full(grid.m, -10.0)
        jac = assemble_jacobian(u, grid_terms(grid, problem, lo, hi, 7.0))
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
        lo = np.full(grid.m, -2.0)
        hi = np.full(grid.m, 3.0)
        u = 0.3 + 0.2 * np.sin(5.0 * grid.nodes)
        direction = np.cos(4.0 * grid.nodes)
        terms = grid_terms(grid, problem, lo, hi, 3.0)
        jac = assemble_jacobian(u, terms)
        step = 1e-6
        plus = assemble_residual(u + step * direction, terms)
        minus = assemble_residual(u - step * direction, terms)
        fd = (plus - minus) / (2.0 * step)
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
            ([1.0, np.nan, 2.0], 1),
            # the infinite pivot makes c[1] = 0, so row 2's pivot is 0 - 0*0 = 0:
            # the first bad row is still the one reported
            ([1.0, np.inf, 0.0], 1),
        ],
        ids=["zero-row-0", "zero-row-1", "inf-row-1", "nan-row-1", "inf-row-1-then-zero"],
    )
    def test_singular_pivot_raises(self, diag, row):
        mat = Tridiagonal([0.0, 1.0, 0.0], diag, [1.0, 0.0, 0.0])
        with pytest.raises(SolverError, match=f"row {row}"):
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


def _reference_residual(grid, u, problem, penalty, lower, upper):
    """The residual with every term rebuilt from the problem, in the solver's operation order.

    ``lower`` and ``upper`` are the slab's bound arrays, +-inf where unbounded.
    """
    r = grid.nodes
    mu = volume_weights(grid, problem.domain.N)
    res = assemble_stiffness(grid, problem).matvec(u)
    res += problem.b_at(r) * problem.nonlin.value(np.clip(u, lower, upper)) * mu
    if penalty > 0.0:
        w_nodes = eval_weight(problem.weight, grid.boundary_gap)
        below = np.minimum(u - lower, 0.0)
        above = np.maximum(u - upper, 0.0)
        res += penalty * (below + above) * w_nodes * mu
    res -= problem.h_at(r) * mu
    mask = problem.dirichlet_mask(grid)
    res[mask] = u[mask] - problem.g_at(r[mask])
    return res


def _reference_jacobian(grid, u, problem, penalty, lower, upper):
    mu = volume_weights(grid, problem.domain.N)
    jac = assemble_stiffness(grid, problem)
    slope = np.where((u > lower) & (u < upper), problem.nonlin.slope(u), 0.0)
    diag_extra = problem.b_at(grid.nodes) * slope * mu
    if penalty > 0.0:
        w_nodes = eval_weight(problem.weight, grid.boundary_gap)
        violated = (u < lower) | (u > upper)
        diag_extra += penalty * w_nodes * mu * violated
    jac.diag += diag_extra
    mask = problem.dirichlet_mask(grid)
    jac.diag[mask] = 1.0
    jac.lower[mask] = 0.0
    jac.upper[mask] = 0.0
    return jac


class TestGridTerms:
    """Grid terms give the residual and the Jacobian bit for bit, and own the penalty checks."""

    @pytest.mark.parametrize("penalty", [0.0, 1e6])
    @pytest.mark.parametrize("domain", [Domain.interval(1.0), Domain.ball(1.0, 3)], ids=["interval", "ball"])
    def test_prebuilt_terms_are_bit_identical(self, domain, penalty):
        grid = build_graded_grid(R=1.0, eta=1e-2, m=31, grading=1.5)
        problem = Problem(
            domain=domain,
            weight=WeightFamily.power(0.5),
            nonlin=PowerNonlinearity(3.0),
            # reaction and penalty outweigh the flux term, so a change in
            # their rounding shows in the sum
            b_coef=lambda r: 1e4 * (1.0 + 0.5 * r),
            source=lambda r: np.sin(3.0 * r),
            boundary_value=lambda r: 0.2 + r,
        )
        lo = -0.5 - grid.nodes
        hi = 0.5 + grid.nodes
        values = 1.5 * np.sin(7.0 * grid.nodes) + 0.2  # leaves the slab on both sides
        values[3], values[5] = lo[3], hi[5]  # exactly on the clamp
        values[8] = -0.0
        assert np.any(values < lo) and np.any(values > hi)
        # clipping against +-inf keeps every bit, so the unbounded slab is the plain problem
        unbounded = (np.full(grid.m, -np.inf), np.full(grid.m, np.inf))
        clipped = np.clip(values, *unbounded)
        assert np.all(clipped == values) and np.array_equal(np.signbit(clipped), np.signbit(values))
        for terms, (lower, upper) in (
            (grid_terms(grid, problem, lo, hi, penalty), (lo, hi)),
            (grid_terms(grid, problem, penalty=penalty), unbounded),
        ):
            args = (grid, values, problem, penalty, lower, upper)
            res = assemble_residual(values, terms)
            expected = _reference_residual(*args)
            assert np.all(res == expected) and np.array_equal(np.signbit(res), np.signbit(expected))

            jac = assemble_jacobian(values, terms)
            expected = _reference_jacobian(*args)
            for band in ("lower", "diag", "upper"):
                assert np.array_equal(getattr(jac, band), getattr(expected, band)), band

    def test_nonlinearity_returning_its_argument_on_the_bounds(self):
        # IDENTITY's func returns the very array it is given, the clipped u
        # here, so updating f(u) in place would also change the penalty's
        # input.  u = -0.0 on lower = 0.0 must leave the reference's signed
        # zero; a negative b keeps the zero of the reaction term negative.
        grid = uniform_grid(m=11)
        problem = interval_problem(b_coef=lambda r: np.where(r < 0.5, -1e4, 1e4))
        lower = np.array([0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 0.0])
        upper = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
        values = np.array([0.5, 0.0, -0.0, 0.0, -2.0, 0.3, 3.0, 1.0, -1.0, -0.0, 0.0])
        # below, inside and above the slab, and on both bounds with either zero
        before = [a.tobytes() for a in (values, lower, upper)]

        terms = grid_terms(grid, problem, lower, upper, 1e6)
        res = assemble_residual(values, terms)
        expected = _reference_residual(grid, values, problem, 1e6, lower, upper)
        assert np.array_equal(res, expected)
        assert np.array_equal(np.signbit(res), np.signbit(expected))
        for j in range(1, grid.m - 1):
            entry = residual_rows(values[j - 1:j + 2], terms, j - 1)[1]
            assert entry == expected[j] and np.signbit(entry) == np.signbit(expected[j]), j
        assert [a.tobytes() for a in (values, lower, upper)] == before

    @pytest.mark.parametrize("with_trunc", [False, True], ids=["untruncated", "truncated"])
    def test_negative_penalty_is_refused(self, with_trunc):
        grid = uniform_grid(m=12)
        slab = (np.full(grid.m, -1.0), np.full(grid.m, 1.0)) if with_trunc else (None, None)
        with pytest.raises(ParameterError, match="penalty coefficient must be nonnegative; got -1.0"):
            grid_terms(grid, interval_problem(), *slab, -1.0)

    @pytest.mark.parametrize("side", ["lower", "upper", "neither"])
    def test_f_is_checked_only_at_the_finite_bounds(self, side):
        # f(+-inf) is +-inf, so a missing bound is neither evaluated nor sampled for monotonicity;
        # the default penalty takes f' over the finite bound alone: 1 + sup|b/w| * max 3t**2
        grid = uniform_grid(m=12)
        nonlin, seen = _sampling(PowerNonlinearity(3.0))
        bound = np.linspace(-1.0, 0.5, grid.m)
        bounds = {"lower": {"lower": bound}, "upper": {"upper": -bound}, "neither": {}}[side]
        terms = grid_terms(grid, interval_problem(nonlin=nonlin), **bounds, penalty=None)
        assert [t.tolist() for t in seen if t.size] == [b.tolist() for b in bounds.values()]
        assert terms.penalty == (1.0 if side == "neither" else 4.0)

    def test_f_overflowing_at_a_finite_bound_is_refused(self):
        grid = uniform_grid(m=12)
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="nonlinearity overflows on the slab"):
            grid_terms(grid, interval_problem(nonlin=PowerNonlinearity(3.0)), upper=np.full(grid.m, 1e200))

    def test_nonfinite_b_over_w_is_refused(self):
        grid = uniform_grid(m=10)
        problem = interval_problem(b_coef=lambda r: np.where(r > 0.5, np.inf, 1.0))
        with pytest.raises(ParameterError, match="b/w is not finite at all half-nodes"):
            grid_terms(grid, problem)

    @pytest.mark.parametrize("which", ["lower", "upper"])
    @pytest.mark.parametrize("size", [11, 13])
    def test_bounds_of_the_wrong_length_are_refused(self, which, size):
        grid = uniform_grid(m=12)
        bounds = {"lower": np.full(grid.m, -1.0), "upper": np.full(grid.m, 1.0)}
        bounds[which] = np.zeros(size)
        with pytest.raises(ParameterError, match="slab bounds need 12 values each"):
            grid_terms(grid, interval_problem(), **bounds)


class TestResidualRows:
    """A window of rows gives assemble_residual's entries bit for bit, signed zeros included."""

    @pytest.mark.parametrize("nonlin", [PowerNonlinearity(3.0), IDENTITY], ids=["cube", "identity"])
    @pytest.mark.parametrize(
        "truncated, penalty", [(False, 0.0), (True, 0.0), (True, 1e6)], ids=["plain", "clamped", "penalized"]
    )
    @pytest.mark.parametrize("domain", [Domain.interval(1.0), Domain.ball(1.0, 3)], ids=["interval", "ball"])
    def test_every_row_of_a_three_row_window(self, domain, truncated, penalty, nonlin):
        grid = build_graded_grid(R=1.0, eta=1e-2, m=41, grading=1.5)
        r = grid.nodes
        problem = Problem(
            domain=domain,
            weight=WeightFamily.power(0.5),
            nonlin=nonlin,
            # a negative b keeps the zero of a reaction term negative
            b_coef=lambda r: np.where(r < 0.5, -1e4, 1e4) * (1.0 + 0.5 * r),
            source=lambda r: np.sin(3.0 * r),
            boundary_value=lambda r: 0.2 + r,
        )
        lower = -0.5 - r
        upper = 0.5 + r
        values = 1.5 * np.sin(7.0 * r) + 0.2  # below, inside and above the slab
        values[3], values[5] = lower[3], upper[5]  # exactly on the clamp
        lower[8], values[8] = 0.0, -0.0  # -0.0 on a zero bound
        upper[9], values[9] = 0.0, -0.0
        lower[10], values[10] = 0.0, 0.0
        assert np.any(values < lower) and np.any(values > upper)
        slab = (lower, upper) if truncated else (None, None)
        terms = grid_terms(grid, problem, *slab, penalty)
        full = assemble_residual(values, terms)
        assert np.array_equal(residual_rows(values, terms), full)

        for j in range(grid.m):
            lo, hi = max(j - 1, 0), min(j + 2, grid.m)
            window = values[lo:hi].copy()
            entry = residual_rows(window, terms, lo)[j - lo]
            assert entry == full[j], j
            assert np.signbit(entry) == np.signbit(full[j]), j
            assert np.array_equal(window, values[lo:hi])
