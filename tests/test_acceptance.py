"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines
for passing criteria as well.
"""

import math
import time

import numpy as np
import pytest

from degen_blowup import (
    BlowupParams,
    CallableNonlinearity,
    Domain,
    InteriorVanishingWeight,
    Problem,
    SolveOptions,
    WeightFamily,
    blowup_constant,
    blowup_exponent,
    build_graded_grid,
    build_subsolution,
    catalogue_families,
    check_b2,
    check_epsilon_bounds,
    check_sandwich,
    constant_field,
    field_from_callable,
    find_min_A,
    fit_blowup_rate,
    leading_balance_residual,
    oracle_exact_1d,
    radial_blowup_problem,
    residual_on_monitor,
    solve_large_solution,
    solve_penalized,
    verify_sub_inequality,
    verify_super_inequality,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def blowup_solve():
    """Criterion-1 problem: p=3, alpha=gamma=0, N=3, a=1, R=1, eps=0.1 on the
    graded grid m=2001, eta=1e-4, grading 2, with midpoint boundary datum."""
    t0 = time.perf_counter()
    params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, a_coef=1.0, epsilon=0.1)
    sup = find_min_A(params, np.linspace(0.0, 1.0, 10001)).envelope
    sub = build_subsolution(params, -1.0)
    grid = build_graded_grid(R=1.0, eta=1e-4, m=2001, grading=2.0)
    lo = field_from_callable(grid, sub)
    hi = field_from_callable(grid, sup)
    datum = float(0.5 * (lo.values[-1] + hi.values[-1]))
    problem = radial_blowup_problem(params, boundary_value=datum)
    opts = SolveOptions(abs_tol=1e-5, max_iters=100)
    u, rep = solve_penalized(problem, grid, lo, hi, opts)
    elapsed = time.perf_counter() - t0
    return params, problem, grid, lo, hi, u, rep, opts, elapsed


@pytest.fixture(scope="module")
def oracle_solves():
    problem, u_star = oracle_exact_1d(R=1.0)
    results = {}
    for m in (200, 400, 800):
        grid = build_graded_grid(R=1.0, eta=0.1, m=m, grading=2.0)
        lo = field_from_callable(grid, lambda r: 0.9 * u_star(r))
        hi = field_from_callable(grid, lambda r: 1.1 * u_star(r))
        u, rep = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-9))
        results[m] = (grid, lo, hi, u, rep, np.max(np.abs(u.values - u_star(grid.nodes))))
    return results


@pytest.fixture(scope="module")
def linear_solve():
    problem = Problem(
        domain=Domain.interval(1.0),
        weight=WeightFamily.constant(),
        nonlin=CallableNonlinearity(lambda t: t, lambda t: np.ones_like(t)),
        b_coef=1.0,
        source=1.0,
        boundary_value=0.0,
    )
    grid = build_graded_grid(R=1.0, eta=1e-9, m=401, grading=1.0)
    lo = constant_field(grid, 0.0)
    hi = constant_field(grid, 1.0)
    u, rep = solve_penalized(problem, grid, lo, hi, SolveOptions(abs_tol=1e-10))
    return grid, lo, hi, u, rep


def test_criterion_1_blowup_rate_reproduction(blowup_solve):
    params, _, _, _, _, u, rep, _, elapsed = blowup_solve
    fit = fit_blowup_rate(u, (1e-3, 1e-2))
    K = math.sqrt(2.0)
    ratio = fit.K_hat / K
    lo_bound = 1.0 - 2.0 * params.epsilon - 0.05
    hi_bound = 1.0 + 2.0 * params.epsilon + 0.05
    ok = (
        rep.converged
        and 0.95 <= fit.beta_hat <= 1.05
        and lo_bound <= ratio <= hi_bound
        and elapsed <= 10.0
    )
    report(1, "blow-up rate reproduction", ok,
           f"beta_hat={fit.beta_hat:.4f}, K_hat/K={ratio:.4f}, {elapsed:.2f}s")
    assert rep.converged
    assert 0.95 <= fit.beta_hat <= 1.05
    assert lo_bound <= ratio <= hi_bound
    assert elapsed <= 10.0
    # the same run stays inside the stated envelope ratio band
    assert check_epsilon_bounds(u, params.K, params.beta, params.epsilon, (1e-3, 1e-2)).ok


def test_criterion_2_exact_oracle_convergence(oracle_solves):
    errors = [oracle_solves[m][5] for m in (200, 400, 800)]
    spacings = [1.0 / (m - 1) for m in (200, 400, 800)]
    orders = [
        float(np.log(errors[i] / errors[i + 1]) / np.log(spacings[i] / spacings[i + 1]))
        for i in range(2)
    ]
    ok = all(oracle_solves[m][4].converged for m in (200, 400, 800)) and all(
        o >= 1.8 for o in orders
    )
    report(2, "exact-oracle convergence", ok,
           "orders " + ", ".join(f"{o:.3f}" for o in orders))
    for m in (200, 400, 800):
        assert oracle_solves[m][4].converged
    assert all(o >= 1.8 for o in orders)


def test_criterion_3_sandwich_certificates(blowup_solve, oracle_solves, linear_solve):
    runs = [
        ("blowup", blowup_solve[3], blowup_solve[4], blowup_solve[5]),
        ("oracle", oracle_solves[800][1], oracle_solves[800][2], oracle_solves[800][3]),
        ("linear", linear_solve[1], linear_solve[2], linear_solve[3]),
    ]
    certificates = []
    for name, lo, hi, u in runs:
        tol = 1e-8 * (1.0 + float(np.max(np.abs(hi.values))))
        certificates.append((name, check_sandwich(u, lo, hi, tol)))
    ok = all(cert.ok for _, cert in certificates)
    detail = "; ".join(
        f"{name}: below={cert.max_below:.1e}, above={cert.max_above:.1e}"
        for name, cert in certificates
    )
    report(3, "sandwich certificate", ok, detail)
    for name, cert in certificates:
        assert cert.ok, f"{name} violated the certificate: {cert}"


def test_criterion_4_constant_formulas():
    rng = np.random.default_rng(0)
    worst_balance = 0.0
    for _ in range(20):
        p = rng.uniform(1.5, 5.0)
        gap = rng.uniform(0.0, 3.0)
        alpha = rng.uniform(-1.0, 1.0)
        gamma = alpha + gap
        a_R = rng.uniform(0.5, 2.0)
        beta = blowup_exponent(p, alpha, gamma)
        K = blowup_constant(p, alpha, a_R, beta)
        assert beta == pytest.approx((2.0 + gamma - alpha) / (p - 1.0), rel=1e-14)
        assert K == pytest.approx((beta * (beta + 1.0 - alpha) / a_R) ** (1.0 / (p - 1.0)), rel=1e-14)
        worst_balance = max(worst_balance, abs(leading_balance_residual(p, alpha, gamma, K, a_R)))
    ok = worst_balance <= 1e-12
    report(4, "constant formulas", ok, f"worst balance residual {worst_balance:.2e}")
    assert worst_balance <= 1e-12


def test_criterion_5_inequality_suite():
    params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, a_coef=1.0, epsilon=0.5)
    samples = np.linspace(0.0, 1.0, 10001)
    found = find_min_A(params, samples)
    A = found.envelope.shift
    super_rep = verify_super_inequality(params, found.envelope, samples)

    sub = build_subsolution(params, -1.0)
    sub_samples = np.linspace(sub.activation_radius, 1.0 - 1e-6, 10001)
    sub_rep = verify_sub_inequality(params, sub, sub_samples)

    golden_ok = abs(sub.activation_radius - GOLDEN) <= 1e-9
    cs = [-8.0, -4.0, -2.0, -1.0, -0.5, -0.1]
    radii = [build_subsolution(params, c).activation_radius for c in cs]
    monotone_ok = all(a > b for a, b in zip(radii, radii[1:]))
    small_ok = build_subsolution(params, -0.001).activation_radius < 0.1
    large_ok = build_subsolution(params, -1e6).activation_radius > 0.99

    ok = (
        A is not None
        and super_rep.ok
        and sub_rep.ok_full
        and sub_rep.ok_sufficient
        and golden_ok
        and monotone_ok
        and small_ok
        and large_ok
    )
    report(5, "inequality suite", ok,
           f"min_A={A}, c_bar(-1)={sub.activation_radius:.10f}")
    assert A is not None and super_rep.ok
    assert sub_rep.ok_full and sub_rep.ok_sufficient
    assert golden_ok and monotone_ok and small_ok and large_ok


def test_criterion_6_exhaustion_stabilization():
    t0 = time.perf_counter()
    params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, a_coef=1.0, epsilon=0.1)
    sup = find_min_A(params, np.linspace(0.0, 1.0, 10001)).envelope
    sub = build_subsolution(params, -1.0)
    run = solve_large_solution(
        params, sub, sup,
        n0=4, n_max=64, compact_radius=0.5, tol=1e-5,
        m=2001, grading=2.0, opts=SolveOptions(abs_tol=1e-6, max_iters=100),
    )
    elapsed = time.perf_counter() - t0
    sandwich_ok = bool(run.sandwich_ok) and all(run.sandwich_ok)
    limit_res = residual_on_monitor(params, run.limit_on_monitor)
    best_delta = min(run.deltas) if run.deltas else math.inf
    delta_ok = best_delta < 1e-5
    residual_ok = limit_res <= 1e-4
    runtime_ok = elapsed <= 60.0
    ok = sandwich_ok and delta_ok and residual_ok and runtime_ok
    report(6, "exhaustion stabilization", ok,
           f"deltas={['%.2e' % d for d in run.deltas]}, limit residual={limit_res:.2e}, "
           f"sandwich={sandwich_ok}, {elapsed:.1f}s")
    assert sandwich_ok
    assert residual_ok
    assert runtime_ok
    # The consecutive deltas on K decay as Theta(1/n^2): the midpoint datum
    # at r = R - 1/n misses the limiting solution by an O(1) amount whose
    # interior influence scales like (1/n / 0.5)**2, measured here as
    # 3.5e-1, 9.4e-2, 2.4e-2, 5.9e-3 over the stated schedule.  Reaching
    # 1e-5 requires n of order 2000, so this bound cannot hold at n = 64.
    assert delta_ok, (
        f"consecutive delta {best_delta:.2e} at n={run.n_values[-1]} exceeds 1e-5; "
        f"the sweep's deltas {['%.2e' % d for d in run.deltas]} follow the 1/n^2 law, "
        "so the stated schedule {4..64} cannot reach the stated tolerance"
    )


def test_criterion_6b_extended_schedule_stabilizes():
    """The same sweep does stabilize below 1e-5 once the schedule is allowed
    to continue geometrically, well inside the stated runtime budget."""
    t0 = time.perf_counter()
    params = BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, a_coef=1.0, epsilon=0.1)
    sup = find_min_A(params, np.linspace(0.0, 1.0, 10001)).envelope
    sub = build_subsolution(params, -1.0)
    run = solve_large_solution(
        params, sub, sup,
        n0=4, n_max=8192, compact_radius=0.5, tol=1e-5,
        m=2001, grading=2.0, opts=SolveOptions(abs_tol=1e-5, max_iters=100),
    )
    elapsed = time.perf_counter() - t0
    ok = run.status == "converged" and all(run.sandwich_ok) and elapsed <= 60.0
    report(6, "exhaustion stabilization (extended schedule)", ok,
           f"stopped at n={run.n_values[-1]}, delta={run.deltas[-1]:.2e}, {elapsed:.1f}s")
    assert run.status == "converged"
    assert run.deltas[-1] < 1e-5
    assert all(run.sandwich_ok)
    assert elapsed <= 60.0


def test_criterion_7_penalty_inactivity(blowup_solve):
    _, problem, grid, lo, hi, u1, rep1, opts, _ = blowup_solve
    doubled = SolveOptions(
        penalty=2.0 * rep1.penalty,
        max_iters=opts.max_iters,
        abs_tol=opts.abs_tol,
    )
    u2, rep2 = solve_penalized(problem, grid, lo, hi, doubled)
    diff = float(np.max(np.abs(u1.values - u2.values)))
    bound = 10.0 * opts.abs_tol
    ok = rep2.converged and diff <= bound
    report(7, "penalty inactivity", ok, f"max diff {diff:.2e} vs bound {bound:.0e}")
    assert rep2.converged
    assert diff <= bound


def test_criterion_8_b2_surrogate():
    dom = Domain.ball(1.0, 3)
    results = {
        label: check_b2(fam, dom, margin=0.1, quad_nodes=256)
        for label, fam in catalogue_families(3)
    }
    failing = check_b2(InteriorVanishingWeight(0.5), Domain.interval(1.0), margin=0.1)
    all_pass = all(rep.passes for rep in results.values())
    ok = all_pass and (not failing.passes) and failing.divergent
    report(8, "local-integrability surrogate", ok,
           f"{len(results)} admissible profiles pass; degeneracy case divergent={failing.divergent}")
    assert all_pass
    assert not failing.passes and failing.divergent
