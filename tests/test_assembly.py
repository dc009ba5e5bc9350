"""Discrete operator assembly: stiffness, the truncating slab, residual, Jacobian."""

import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from degen_blowup import kernels, tridiag
from degen_blowup.assembly import residual_rows
from degen_blowup.cli import _write_csv

IDENTITY = CallableNonlinearity(lambda t: t, lambda t: np.ones_like(t))


def _indexed_thomas(mat, rhs):
    """Reference elimination with row 0 as a special case and indexed numpy access."""
    n = mat.diag.size
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


_SUBNORMAL = np.nextafter(0.0, 1.0)
_EDGES = np.array([0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 1e-310, -1e-310, np.inf, -np.inf, 1e308, -1e308, 1.0, -1.0])


class TestPowerNonlinearity:
    @pytest.mark.parametrize("p", [1.02, 1.5, 2.0, 3.0, 5.0, 7.3])
    def test_value_and_slope_keep_the_plain_formulas_bits(self, p):
        # value and slope work in place; they must equal these expressions bit for bit,
        # signed zeros, subnormals, infinities and 0-d input included
        rng = np.random.default_rng(int(p * 100))
        inputs = [_EDGES, rng.standard_normal(1000) * 10.0, rng.standard_normal(1000) * 1e-200]
        inputs += [np.array(t) for t in _EDGES] + [float(t) for t in _EDGES]
        f = PowerNonlinearity(p)
        for t in inputs:
            a = np.asarray(t, dtype=float)
            with np.errstate(over="ignore"):
                pairs = [
                    (f.value(t), np.sign(a) * np.abs(a) ** p),
                    (f.slope(t), p * np.abs(a) ** (p - 1.0)),
                ]
            for got, plain in pairs:
                assert np.shape(got) == np.shape(plain)
                assert np.asarray(got).tobytes() == np.asarray(plain).tobytes(), (t, got, plain)

    def test_value_leaves_its_argument_alone(self):
        t = np.array([-2.0, 0.5, 3.0])
        PowerNonlinearity(3.0).value(t)
        assert np.array_equal(t, [-2.0, 0.5, 3.0])


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
            res, _, _ = assemble_residual(u, terms)
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
        with_pen, _, _ = assemble_residual(u, grid_terms(grid, problem, lo, hi, 1e6))
        without, _, _ = assemble_residual(u, grid_terms(grid, problem, lo, hi, 0.0))
        np.testing.assert_array_equal(with_pen, without)

    def test_penalty_entry_below_slab(self):
        # b = 0 and h = 0 isolate the penalty contribution.
        grid = uniform_grid(m=20)
        problem = interval_problem(b_coef=0.0)
        lo = np.full(grid.m, 0.0)
        hi = np.full(grid.m, 1.0)
        u = np.full(grid.m, -1.0)
        res, _, _ = assemble_residual(u, grid_terms(grid, problem, lo, hi, 10.0))
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
        _, norm, _ = assemble_residual(u, terms)
        assert norm < 1e-11

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
        plus, _, _ = assemble_residual(u + step * direction, terms)
        minus, _, _ = assemble_residual(u - step * direction, terms)
        fd = (plus - minus) / (2.0 * step)
        jd = jac.matvec(direction)
        denom = np.max(np.abs(jd))
        assert np.max(np.abs(fd - jd)) / denom < 1e-6


def _random_bands(n, seed):
    rng = np.random.default_rng(seed)
    lower = np.concatenate(([0.0], rng.uniform(-1.0, 0.0, n - 1)))
    upper = np.concatenate((rng.uniform(-1.0, 0.0, n - 1), [0.0]))
    diag = 2.0 + rng.uniform(0.0, 1.0, n)
    return rng, Tridiagonal(lower, diag, upper)


def _solves_like_the_loop(n, seed):
    rng, mat = _random_bands(n, seed)
    rhs = rng.standard_normal(n)
    return np.array_equal(thomas_solve(mat, rhs), tridiag._thomas_loop(mat.lower, mat.diag, mat.upper, rhs))


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """kernels.load() uncached, with its cache under tmp_path; later tests load the usual one again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    kernels.load.cache_clear()
    yield tmp_path / "cache" / "degen-blowup"
    kernels.load.cache_clear()


class TestThomas:
    """thomas_solve's cases, on the C kernel wherever a compiler is found."""

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
        rng, mat = _random_bands(n, n)
        rhs = rng.standard_normal(2 * n)
        rhs = rhs[::2] if strided else rhs[:n]
        assert np.array_equal(thomas_solve(mat, rhs), _indexed_thomas(mat, rhs))


class TestThomasLoop(TestThomas):
    """The same cases on _thomas_loop, the path where no compiler is found."""

    @pytest.fixture(autouse=True)
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(kernels, "load", lambda: None)


class TestThomasKernel:
    """The kernels' build, their cache and the checks in front of the solve."""

    @needs_cc
    def test_kernel_gives_the_loops_bits_on_a_large_matrix(self):
        assert _solves_like_the_loop(200001, 7)

    @pytest.mark.parametrize("n", [0, 5])
    def test_bands_of_another_length_never_reach_the_solve(self, monkeypatch, n):
        # the bands are mutable after construction, and C would read past a short one;
        # at n = 0 its back substitution would write x[-1]
        if n == 0:
            mat = Tridiagonal([], [], [])
        else:
            _, mat = _random_bands(n, 1)
            mat.diag = mat.diag[:-1]
        picked = []
        monkeypatch.setattr(kernels, "load", lambda: picked.append("a path"))
        with pytest.raises(ValueError, match="need n >= 1 values each"):
            thomas_solve(mat, np.ones(n))
        assert not picked

    @needs_cc
    def test_the_kernel_builds_where_a_compiler_is_found(self):
        # a broken build fails here instead of leaving the solver on the loop
        assert kernels.load() is not None

    @needs_cc
    def test_a_warm_cache_loads_without_compiling(self, fresh_kernel, monkeypatch):
        assert kernels.load() is not None
        assert [p.suffix for p in fresh_kernel.iterdir()] == [".so"]
        kernels.load.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert _solves_like_the_loop(31, 2)

    @needs_cc
    def test_a_build_removes_the_builds_it_replaces(self, fresh_kernel):
        # each edit of _kernels.c or of the flags names a new build, and the
        # kernels were first built as thomas-<crc>.so
        fresh_kernel.mkdir(parents=True)
        stale = ["kernels-00000000.so", "thomas-00000000.so"]
        for name in stale:
            (fresh_kernel / name).write_bytes(b"an older build")
        assert kernels.load() is not None
        built = [p.name for p in fresh_kernel.iterdir()]
        assert len(built) == 1 and built[0] not in stale and built[0].endswith(".so")
        # a warm load builds nothing, so it removes nothing
        kernels.load.cache_clear()
        (fresh_kernel / stale[0]).write_bytes(b"an older build")
        assert kernels.load() is not None
        assert sorted(p.name for p in fresh_kernel.iterdir()) == sorted([*built, stale[0]])

    @needs_cc
    def test_a_build_removed_right_after_it_is_published_still_loads(self, fresh_kernel, monkeypatch):
        # a process of another version may remove the build as stale in
        # between: the building process has loaded it before publishing it
        replace = os.replace

        def replace_then_remove(src, dst):
            replace(src, dst)
            os.remove(dst)

        monkeypatch.setattr(os, "replace", replace_then_remove)
        assert kernels.load() is not None
        assert _solves_like_the_loop(31, 5)
        assert list(fresh_kernel.iterdir()) == []

    @needs_cc
    def test_a_truncated_build_in_the_cache_is_built_again(self, fresh_kernel, monkeypatch, tmp_path):
        # the build's name, from a build in another cache
        assert kernels.load() is not None
        (name,) = (p.name for p in fresh_kernel.iterdir())
        kernels.load.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
        cut = tmp_path / "other" / "degen-blowup" / name
        cut.parent.mkdir(parents=True)
        cut.write_bytes(b"\x7fELF")
        assert kernels.load() is not None
        assert _solves_like_the_loop(31, 6)
        assert [p.name for p in cut.parent.iterdir()] == [name]
        assert cut.stat().st_size == (fresh_kernel / name).stat().st_size

    @needs_cc
    def test_an_unwritable_cache_builds_a_private_copy(self, fresh_kernel, monkeypatch, tmp_path):
        (tmp_path / "cache").write_text("a file where the cache directory would go")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert kernels.load() is not None
        # the private copy is removed once loaded
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]
        assert _solves_like_the_loop(31, 3)

    @needs_cc
    def test_a_failing_compiler_raises(self, fresh_kernel, monkeypatch):
        monkeypatch.setattr(kernels, "_FLAGS", kernels._FLAGS + ("-no-such-flag",))
        with pytest.raises(RuntimeError, match="failed to build"):
            kernels.load()
        assert list(fresh_kernel.iterdir()) == []

    def test_without_a_compiler_the_loop_runs(self, fresh_kernel, monkeypatch, tmp_path):
        # both kernels' callers fall back to Python: the solve to _thomas_loop,
        # the CSV writer to the _fmt join, with the same bits and bytes
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert kernels.load() is None
        rng, mat = _random_bands(2001, 4)
        rhs = rng.standard_normal(2001)
        assert np.array_equal(thomas_solve(mat, rhs), _indexed_thomas(mat, rhs))
        values = np.concatenate([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e-4, 1e16, 1e17], rhs])
        columns = (values, -values[::-1], values * 1e250)
        _write_csv(tmp_path / "table.csv", ["a", "b", "c"], columns)
        want = "a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "table.csv").read_bytes() == want.encode()

    def test_the_kernel_source_ships_with_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            shipped = tomllib.load(f)["tool"]["setuptools"]["package-data"]["degen_blowup"]
        assert shipped == ["_kernels.c"]
        assert (Path(kernels.__file__).parent / "_kernels.c").is_file()


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
            res, _, _ = assemble_residual(values, terms)
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
        res, _, _ = assemble_residual(values, terms)
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
        # naming f, the bounds and the grid that reaches where they are largest
        grid = uniform_grid(m=12)
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="nonlinearity overflows on the slab") as raised:
            grid_terms(grid, interval_problem(nonlin=PowerNonlinearity(3.0)), upper=np.full(grid.m, 1e200))
        assert raised.value.names == ("nonlin", "lower", "upper", "grid")

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


def _window_case(domain, nonlin):
    """A grid, a problem and a slab [lower, upper] with values below, inside, above and on it."""
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
    return grid, problem, lower, upper, values


class TestResidualRows:
    """A window of rows gives assemble_residual's entries bit for bit, signed zeros included."""

    @pytest.mark.parametrize("nonlin", [PowerNonlinearity(3.0), IDENTITY], ids=["cube", "identity"])
    @pytest.mark.parametrize(
        "truncated, penalty", [(False, 0.0), (True, 0.0), (True, 1e6)], ids=["plain", "clamped", "penalized"]
    )
    @pytest.mark.parametrize("domain", [Domain.interval(1.0), Domain.ball(1.0, 3)], ids=["interval", "ball"])
    def test_every_row_of_a_three_row_window(self, domain, truncated, penalty, nonlin):
        grid, problem, lower, upper, values = _window_case(domain, nonlin)
        slab = (lower, upper) if truncated else (None, None)
        terms = grid_terms(grid, problem, *slab, penalty)
        full, _, _ = assemble_residual(values, terms)
        assert np.array_equal(residual_rows(values, terms), full)

        for j in range(grid.m):
            lo, hi = max(j - 1, 0), min(j + 2, grid.m)
            window = values[lo:hi].copy()
            entry = residual_rows(window, terms, lo)[j - lo]
            assert entry == full[j], j
            assert np.signbit(entry) == np.signbit(full[j]), j
            assert np.array_equal(window, values[lo:hi])


    @pytest.mark.parametrize("lo, size", [(-1, 3), (39, 3), (0, 0), (0, 42)])
    def test_rows_outside_the_grid_are_refused(self, lo, size):
        # the C kernel would read past the ends of the terms' arrays
        grid, problem, lower, upper, _ = _window_case(Domain.interval(1.0), IDENTITY)
        terms = grid_terms(grid, problem, lower, upper, 1e6)
        with pytest.raises(ValueError, match="residual rows need"):
            residual_rows(np.zeros(size), terms, lo)
        with pytest.raises(ValueError, match="a Jacobian needs 41 nodal values"):
            assemble_jacobian(np.zeros(size), terms)


class TestResidualRowsNumpy(TestResidualRows):
    """The same windows on the numpy formulas, the path where no compiler is found."""

    @pytest.fixture(autouse=True)
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(kernels, "load", lambda: None)


class TestGridTermsNumpy(TestGridTerms):
    """The same terms, residuals and Jacobians on the numpy formulas."""

    @pytest.fixture(autouse=True)
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(kernels, "load", lambda: None)


def _on_both_paths(monkeypatch, run):
    """run() with the C kernels, then with kernels.load patched to None (the numpy formulas)."""
    kernel = run()
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "load", lambda: None)
        return kernel, run()


@needs_cc
class TestAssemblyKernel:
    """The C residual and Jacobian give the numpy formulas' bits, norm and errors in one process."""

    @pytest.mark.parametrize("nonlin", [PowerNonlinearity(3.0), IDENTITY], ids=["cube", "identity"])
    @pytest.mark.parametrize("slab", ["finite", "partly-infinite", "unbounded"])
    @pytest.mark.parametrize("penalty", [0.0, 1e6])
    @pytest.mark.parametrize("domain", [Domain.interval(1.0), Domain.ball(1.0, 3)], ids=["interval", "ball"])
    def test_kernel_gives_the_numpy_bits(self, monkeypatch, domain, penalty, slab, nonlin):
        grid, problem, lower, upper, values = _window_case(domain, nonlin)
        if slab == "partly-infinite":
            lower[::3] = -np.inf
            upper[1::4] = np.inf
        bounds = (None, None) if slab == "unbounded" else (lower, upper)
        windows = (0, grid.m // 2 - 1, grid.m - 3)  # at the start, in the interior and at the last row

        def assemble():
            terms = grid_terms(grid, problem, *bounds, penalty)
            res, norm, row = assemble_residual(values, terms)
            rows = [residual_rows(values[lo:lo + 3], terms, lo) for lo in windows]
            return terms.kernel is not None, res, norm, row, rows, assemble_jacobian(values, terms).diag

        (kernel, *got), (numpy_, *want) = _on_both_paths(monkeypatch, assemble)
        assert kernel and not numpy_
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize(
        "left, right, row", [(-5.0, 5.0, 0), (-1.0, 5.0, 10), (0.0, 0.0, 0)], ids=["tie", "last", "zero"]
    )
    def test_norm_is_the_first_largest_magnitude(self, monkeypatch, left, right, row):
        # u = 0 leaves every interior entry an exact zero and the two
        # Dirichlet rows -g: a tie goes to the first row, as np.argmax does
        grid = uniform_grid(m=11)
        problem = interval_problem(boundary_value=lambda r: np.where(r < 0.5, -left, -right))

        def peak():
            res, norm, at = assemble_residual(np.zeros(grid.m), grid_terms(grid, problem))
            magnitudes = np.abs(res)
            assert norm == magnitudes.max() and at == np.argmax(magnitudes)
            return norm, at

        assert _on_both_paths(monkeypatch, peak) == ((max(abs(left), abs(right)), row),) * 2

    def test_nonfinite_entries_raise_the_same_errors(self, monkeypatch):
        grid = uniform_grid(m=10)
        problem = interval_problem(source=lambda r: np.where(r > 0.5, np.inf, 0.0))
        steep = interval_problem(nonlin=CallableNonlinearity(lambda t: t, lambda t: np.full_like(t, np.inf)))

        def errors():
            messages = []
            u = np.full(grid.m, 0.5)
            gapped = u.copy()
            gapped[4] = np.nan  # its flux reaches rows 3 and 5
            for call, terms, values in (
                (assemble_residual, grid_terms(grid, problem), u),
                (assemble_residual, grid_terms(grid, interval_problem()), gapped),
                (assemble_jacobian, grid_terms(grid, steep, np.zeros(grid.m), np.ones(grid.m)), u),
            ):
                with pytest.raises(SolverError) as raised:
                    call(values, terms)
                messages.append(str(raised.value))
            return messages

        kernel, numpy_ = _on_both_paths(monkeypatch, errors)
        assert kernel == numpy_
        assert kernel[1].startswith("non-finite residual entry at node 3 ")


# finite values from +-0 and subnormals up to 1e100, where the cube and its
# slope stay finite
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 1e-310, -1e-310, 1e100, -1e100]),
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
)


@st.composite
def _dirichlet_cases(draw):
    """A problem on an interval or a ball of dimension 1 to 3, its Dirichlet
    data, a field, a finite, partly infinite or absent slab, a penalty and
    the windows of residual_rows that end or start on a Dirichlet row."""
    if draw(st.booleans()):
        domain = Domain.interval(1.0)
    else:
        domain = Domain.ball(1.0, draw(st.sampled_from([1, 2, 3])))
    m = draw(st.integers(4, 12))
    grid = build_graded_grid(R=1.0, eta=1e-2, m=m, grading=1.5)
    left, right = draw(_FINITE), draw(_FINITE)
    problem = Problem(
        domain=domain,
        weight=draw(st.sampled_from([WeightFamily.constant(), WeightFamily.power(0.5)])),
        nonlin=PowerNonlinearity(3.0),
        b_coef=lambda r: np.where(r < 0.5, -1e4, 1e4) * (1.0 + 0.5 * r),
        source=lambda r: np.sin(3.0 * r),
        boundary_value=lambda r: np.where(r < 0.5, left, right),
    )
    field = st.lists(_FINITE, min_size=m, max_size=m).map(np.array)
    values = draw(field)
    slab = draw(st.sampled_from(["finite", "partly-infinite", "absent"]))
    bounds = (None, None)
    if slab != "absent":
        a, b = draw(field), draw(field)
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        if slab == "partly-infinite":
            lower[draw(st.lists(st.booleans(), min_size=m, max_size=m).map(np.array))] = -np.inf
            upper[draw(st.lists(st.booleans(), min_size=m, max_size=m).map(np.array))] = np.inf
        bounds = (lower, upper)
    penalty = draw(st.sampled_from([0.0, 1e6]))
    ends = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))  # windows lo .. m - 1
    starts = draw(st.lists(st.integers(1, m), min_size=1, max_size=3))  # windows 0 .. k - 1
    return grid, problem, values, bounds, penalty, ends, starts


@needs_cc
class TestDirichletRowsAreData:
    """A Dirichlet row, an identity row with zero volume and its datum as right-hand
    side, reads u - g in the residual and 1.0 in the Jacobian on both paths."""

    @settings(max_examples=150, deadline=None)
    @given(_dirichlet_cases())
    def test_residual_reads_u_minus_g_and_jacobian_identity_rows(self, case):
        grid, problem, values, bounds, penalty, ends, starts = case
        rows = np.flatnonzero(problem.dirichlet_mask(grid))
        g = problem.g_at(grid.nodes)

        def assemble():
            terms = grid_terms(grid, problem, *bounds, penalty)
            full = residual_rows(values, terms)
            windows = [residual_rows(values[lo:], terms, lo)[-1] for lo in ends]
            if problem.domain.kind == "interval":
                windows += [residual_rows(values[:k], terms)[0] for k in starts]
            jac = assemble_jacobian(values, terms)
            return terms.kernel is not None, full, np.array(windows), jac.lower, jac.diag, jac.upper

        with pytest.MonkeyPatch.context() as patch:
            (kernel, *got), (numpy_, *want) = _on_both_paths(patch, assemble)
        assert kernel and not numpy_
        for a, b in zip(got, want):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        full, windows, lower, diag, upper = got
        assert np.all(full[rows] == values[rows] - g[rows])
        expected = [values[-1] - g[-1]] * len(ends)
        if problem.domain.kind == "interval":
            expected += [values[0] - g[0]] * len(starts)
        assert np.all(windows == expected)
        assert np.all(diag[rows] == 1.0) and np.all(lower[rows] == 0.0) and np.all(upper[rows] == 0.0)

    def test_f_overflowing_at_a_dirichlet_node_raises_the_same_error(self, monkeypatch):
        # with no slab to clip it, f(u) and f'(u) are inf at the last node:
        # the zero volume weight there makes that row NaN, not u - g
        grid = uniform_grid(m=11)
        problem = interval_problem(nonlin=PowerNonlinearity(3.0))
        u = np.full(grid.m, 0.5)
        u[-1] = 1e200

        def errors():
            terms = grid_terms(grid, problem)
            messages = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in (assemble_residual, assemble_jacobian):
                    with np.errstate(over="ignore"), pytest.raises(SolverError) as raised:  # f's own overflow
                        call(u, terms)
                    messages.append(str(raised.value))
            return messages

        kernel, numpy_ = _on_both_paths(monkeypatch, errors)
        assert kernel == numpy_
        assert kernel[0].startswith("non-finite residual entry at node 10 ")
        assert kernel[1] == "non-finite Jacobian entry"


# the values the C kernels and their Python mirrors must treat alike: signed
# zeros, subnormals, the ends of the float range, infinities and NaN
_INJECTED = st.sampled_from([*_EDGES.tolist(), np.nan])


def _outcome(call, *args):
    """call(*args)'s arrays, or the message of the SolverError it raised."""
    try:
        return call(*args)
    except SolverError as exc:
        return str(exc)


def _same_outcome(a, b):
    """Both raised the same message, or gave equal arrays: signs and NaN positions included."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(
        np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y)) for x, y in zip(a, b)
    )


@st.composite
def _injected_systems(draw):
    """Bands and an rhs of n = 1 .. 64 rows, diagonally dominant, with special values injected."""
    n = draw(st.integers(1, 64))
    rng, mat = _random_bands(n, draw(st.integers(0, 2**32 - 1)))
    arrays = [mat.lower, mat.diag, mat.upper, rng.standard_normal(n)]
    for _ in range(draw(st.integers(0, 4))):
        arrays[draw(st.integers(0, 3))][draw(st.integers(0, n - 1))] = draw(_INJECTED)
    return arrays


@st.composite
def _overflowing_fields(draw):
    """A problem whose b * f, flux or penalty may overflow, and a field with special values.

    f(t) = k * t is user code that silences its own overflow, so that any
    warning left comes from the assembly."""
    domain = Domain.interval(1.0) if draw(st.booleans()) else Domain.ball(1.0, draw(st.sampled_from([1, 2, 3])))
    m = draw(st.integers(4, 12))
    k = draw(st.sampled_from([1.0, 1e300]))

    def value(t):
        with np.errstate(all="ignore"):
            return k * t

    problem = Problem(
        domain=domain,
        weight=draw(st.sampled_from([WeightFamily.constant(), WeightFamily.power(0.5)])),
        nonlin=CallableNonlinearity(value, lambda t: np.full_like(t, k)),
        b_coef=draw(st.sampled_from([1.0, -1e10, 1e300])),
    )
    grid = build_graded_grid(R=1.0, eta=1e-2, m=m, grading=1.5)
    values = np.array(draw(st.lists(st.one_of(_INJECTED, st.floats(-1e10, 1e10)), min_size=m, max_size=m)))
    bounds = draw(st.sampled_from([(None, None), (np.full(m, -1.0), np.full(m, 1.0))]))
    return grid, problem, values, bounds, draw(st.sampled_from([0.0, 1e300]))


@needs_cc
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPythonPathsMirrorTheKernels:
    """Where no compiler is found, the Python paths give the kernels' bits and
    errors on any input, and do not warn where the kernels are silent."""

    @settings(max_examples=300, deadline=None)
    @given(_injected_systems())
    def test_thomas_loop_gives_the_kernels_bits_or_refuses_the_same_row(self, arrays):
        lower, diag, upper, rhs = arrays
        kernel = _outcome(lambda: (thomas_solve(Tridiagonal(lower, diag, upper), rhs),))
        loop = _outcome(lambda: (tridiag._thomas_loop(lower, diag, upper, rhs),))
        assert _same_outcome(kernel, loop), (kernel, loop)

    @settings(max_examples=200, deadline=None)
    @given(_overflowing_fields())
    def test_assembly_gives_the_kernels_bits_or_raises_the_same_error(self, case):
        grid, problem, values, bounds, penalty = case

        def assemble():
            terms = grid_terms(grid, problem, *bounds, penalty)
            outcomes = (
                _outcome(lambda: assemble_residual(values, terms)),
                _outcome(lambda: (assemble_jacobian(values, terms).diag,)),
            )
            return terms.kernel is not None, outcomes

        with pytest.MonkeyPatch.context() as patch:
            (kernel, got), (numpy_, want) = _on_both_paths(patch, assemble)
        assert kernel and not numpy_
        for a, b in zip(got, want):
            assert _same_outcome(a, b), (a, b)
