"""Nested-domain sweeps toward the boundary blow-up solution."""

import math

import numpy as np
import pytest

from degen_blowup import (
    BlowupParams,
    ParameterError,
    SolveOptions,
    build_subsolution,
    find_min_A,
    residual_on_monitor,
    solve_large_solution,
)
from degen_blowup.exhaustion import (
    STATUS_CERTIFICATION_FAILED,
    STATUS_CONVERGED,
    STATUS_EXHAUSTED,
)


@pytest.fixture(scope="module")
def setup():
    params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, epsilon=0.1)
    sup = find_min_A(params, np.linspace(0.0, 1.0, 10001)).envelope
    sub = build_subsolution(params, -1.0)
    return params, sub, sup


def small_run(params, sub, sup, **overrides):
    kwargs = dict(
        n0=4,
        n_max=32,
        compact_radius=0.5,
        tol=1e-2,
        m=401,
        grading=2.0,
        opts=SolveOptions(abs_tol=1e-5, max_iters=80),
    )
    kwargs.update(overrides)
    return solve_large_solution(params, sub, sup, **kwargs)


def test_schedule_is_geometric_and_certified(setup):
    params, sub, sup = setup
    run = small_run(params, sub, sup, tol=1e-12)
    assert run.n_values == [4, 8, 16, 32]
    assert run.outer_radii == [1.0 - 1.0 / n for n in run.n_values]
    assert all(run.sandwich_ok)
    assert run.status == STATUS_EXHAUSTED


def test_deltas_shrink_and_stop_on_tolerance(setup):
    params, sub, sup = setup
    run = small_run(params, sub, sup, tol=5e-2)
    assert run.status == STATUS_CONVERGED
    assert run.deltas[-1] < 5e-2
    assert all(a > b for a, b in zip(run.deltas, run.deltas[1:]))


def test_limit_field_lives_on_the_monitor(setup):
    params, sub, sup = setup
    run = small_run(params, sub, sup)
    limit = run.limit_on_monitor
    assert limit is not None
    assert run.monitor.nodes[-1] == pytest.approx(0.5)
    assert run.monitor.m == 101 and limit.shape == (101,)
    # interior consistency of the limit candidate
    assert residual_on_monitor(params, run.monitor, limit) < 1e-2


def test_warm_start_does_not_change_fixed_points(setup):
    # iterate counts differ but the certified fields agree per n
    params, sub, sup = setup
    run = small_run(params, sub, sup, tol=1e-12)
    rerun = small_run(params, sub, sup, tol=1e-12)
    np.testing.assert_array_equal(run.limit_on_monitor, rerun.limit_on_monitor)
    assert run.deltas == rerun.deltas


def test_forced_datum_violation_fails_certification(setup):
    params, sub, sup = setup

    def shifted_lower(r):
        return sub(r) + 4.0

    run = small_run(params, shifted_lower, sup)
    assert run.status == STATUS_CERTIFICATION_FAILED
    assert not run.sandwich_ok[-1]
    assert len(run.n_values) == 1


def test_empty_first_subdomain_propagates(setup):
    params, sub, sup = setup
    with pytest.raises(ParameterError, match="margin 1/1 >= R = 1.0 leaves an empty subdomain"):
        solve_large_solution(params, sub, sup, n0=1, n_max=8, compact_radius=0.5, tol=1e-3)


def test_derived_n0_is_the_first_subdomain_holding_half_the_radius():
    # n0 = None starts at floor(2/R) + 1, the smallest n with R - 1/n > R/2
    for R in (0.3, 0.5, 1.0, 2.5, 10.0):
        params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=R, epsilon=0.1)
        sup = find_min_A(params, np.linspace(0.0, R, 1001)).envelope
        n0 = math.floor(2.0 / R) + 1
        run = solve_large_solution(
            params, build_subsolution(params, -1.0), sup,
            n0=None, n_max=n0, compact_radius=R / 2, tol=1e-2,
            m=201, opts=SolveOptions(abs_tol=1e-5, max_iters=80),
        )
        assert run.n_values == [n0], R
        assert run.outer_radii == [R - 1.0 / n0] and R - 1.0 / n0 > R / 2 == run.monitor.nodes[-1]
        if n0 > 1:
            assert R - 1.0 / (n0 - 1) <= R / 2


def test_compact_radius_must_fit_first_subdomain(setup):
    params, sub, sup = setup
    # inside a given n0's subdomain, or with n0 = None inside the ball
    for n0, compact_radius in ((4, 0.9), (None, 1.0), (None, 1.5)):
        with pytest.raises(ParameterError, match=r"the monitored interval \[0, .*\] must lie inside"):
            solve_large_solution(params, sub, sup, n0=n0, n_max=8, compact_radius=compact_radius, tol=1e-3)


def test_limit_grows_toward_the_boundary(setup):
    # the blow-up candidate increases without bound as the monitoring rim
    # approaches the boundary
    params, sub, sup = setup
    rim_values = []
    for rim, n0, n_max in ((0.5, 4, 64), (0.9, 16, 256), (0.99, 128, 1024)):
        run = solve_large_solution(
            params, sub, sup,
            n0=n0, n_max=n_max, compact_radius=rim, tol=1e-4,
            m=801, grading=2.0, opts=SolveOptions(abs_tol=1e-4, max_iters=80),
        )
        assert all(run.sandwich_ok)
        rim_values.append(run.limit_on_monitor[-1])
    assert rim_values[0] < rim_values[1] < rim_values[2]
