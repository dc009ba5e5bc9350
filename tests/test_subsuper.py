"""Blow-up exponent and amplitude formulas, explicit envelopes, inequalities."""

import math

import numpy as np
import pytest

from degen_blowup import (
    BlowupParams,
    Envelope,
    ParameterError,
    blowup_constant,
    blowup_exponent,
    build_subsolution,
    build_supersolution,
    find_min_A,
    leading_balance_residual,
    verify_sub_inequality,
    verify_super_inequality,
)
from degen_blowup import subsuper
from degen_blowup.subsuper import sub_sufficient_margins, super_inequality_margins

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def std_params(epsilon=0.5):
    return BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, a_coef=1.0, epsilon=epsilon)


class TestConstants:
    @pytest.mark.parametrize(
        "p, alpha, gamma, expected",
        [(3.0, 0.0, 0.0, 1.0), (2.0, 1.0, 1.0, 2.0), (2.0, 0.5, 1.0, 2.5)],
    )
    def test_exponent(self, p, alpha, gamma, expected):
        assert blowup_exponent(p, alpha, gamma) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "p, alpha, a_R, beta, expected",
        [(3.0, 0.0, 1.0, 1.0, math.sqrt(2.0)), (2.0, 1.0, 1.0, 2.0, 4.0), (2.0, 0.5, 2.0, 2.5, 3.75)],
    )
    def test_amplitude(self, p, alpha, a_R, beta, expected):
        assert blowup_constant(p, alpha, a_R, beta) == pytest.approx(expected)

    def test_exponent_preconditions(self):
        with pytest.raises(ParameterError):
            blowup_exponent(1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            blowup_exponent(2.0, 1.0, 0.0)

    def test_amplitude_preconditions(self):
        with pytest.raises(ParameterError):
            blowup_constant(2.0, 4.0, 1.0, 2.0)  # beta + 1 - alpha <= 0
        with pytest.raises(ParameterError):
            blowup_constant(2.0, 0.0, -1.0, 2.0)

    def test_params_without_an_envelope_amplitude_are_refused(self):
        # alpha = gamma = 3, p = 3: beta = 1 and beta + 1 - alpha = -1, so no
        # envelope exists, and the envelope builders refuse only their shift
        with pytest.raises(ParameterError, match="beta \\+ 1 - alpha must be positive"):
            BlowupParams(p=3.0, alpha=3.0, gamma=3.0, N=3, R=1.0)

    @pytest.mark.parametrize(
        "a_coef, R, ok",
        [
            # minimum 5.0035e-05 - 2**-14 < 0 at r = 2**-7, between 65 uniform samples
            ((5.0035e-05, -0.015625, 1.0), 1.0, False),
            ((6.2e-05, -0.015625, 1.0), 1.0, True),
            # the same minimum lies past R = 2**-8, and a is decreasing and positive on [0, R]
            ((5.0035e-05, -0.015625, 1.0), 2.0**-8, True),
            ((1.0, -2.0), 1.0, False),  # a(R) = -1
            ((1.0, -2.0, 1.0), 1.0, False),  # a double root at r = 1 = R: a(R) = 0
            ((1.0, 0.0, -3.0, 2.0), 1.0, False),  # (1 - r)**2 (1 + 2r): zero at its interior minimum
            ((1.0, 0.0, -2.999, 2.0), 1.0, True),
            ((1.0, 1e308, 1e308), 1.0, False),  # a(R) overflows
            # a' = 1e308 - 2e308 r overflows, a = 1 + 1e308 r (1 - r) does not
            ((1.0, 1e308, -1e308), 1.0, True),
            ((1.0, float("nan")), 1.0, False),
            ((0.0,), 1.0, False),
        ],
    )
    def test_positivity_of_a_is_decided_at_its_extremes(self, a_coef, R, ok):
        make = lambda: BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=R, a_coef=a_coef)
        if ok:
            assert make().a_coef == a_coef
        else:
            with pytest.raises(ParameterError, match=r"a\(r\) must be finite and positive on \[0, R\]"):
                make()

    def test_balance_residual_signs(self):
        K = blowup_constant(3.0, 0.0, 1.0, 1.0)
        assert leading_balance_residual(3.0, 0.0, 0.0, K, 1.0) == pytest.approx(0.0, abs=1e-14)
        K2 = blowup_constant(2.0, 0.0, 1.0, 2.0)
        assert leading_balance_residual(2.0, 0.0, 0.0, 1.1 * K2, 1.0) < 0.0
        assert leading_balance_residual(2.0, 0.0, 0.0, 0.9 * K2, 1.0) > 0.0

    def test_balance_residual_zero_at_amplitude_over_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(1.5, 5.0)
            gap = rng.uniform(0.0, 3.0)
            alpha = rng.uniform(-1.0, 1.0)
            gamma = alpha + gap
            a_R = rng.uniform(0.5, 2.0)
            beta = blowup_exponent(p, alpha, gamma)
            K = blowup_constant(p, alpha, a_R, beta)
            assert abs(leading_balance_residual(p, alpha, gamma, K, a_R)) <= 1e-12


class TestEnvelopeConstruction:
    def test_upper_amplitude_frozen_value(self):
        # (1.5 * 1 * 2 / 1)**(1/2) = sqrt(3) at the standard parameters
        sup = build_supersolution(std_params(), 4.0)
        assert sup.B == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_lower_amplitude_frozen_value(self):
        sub = build_subsolution(std_params(), -1.0)
        assert sub.B == pytest.approx(1.0, rel=1e-15)

    def test_amplitude_factor_exact_over_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(1.5, 5.0)
            gap = rng.uniform(0.0, 3.0)
            alpha = rng.uniform(-1.0, 1.0)
            eps = rng.uniform(0.05, 0.95)
            params = BlowupParams(p=p, alpha=alpha, gamma=alpha + gap, N=3, R=1.0, epsilon=eps)
            sup = build_supersolution(params, 1.0)
            sub = build_subsolution(params, -1.0)
            assert (sup.B / params.K) ** (p - 1.0) == pytest.approx(1.0 + eps, rel=1e-12)
            assert (sub.B / params.K) ** (p - 1.0) == pytest.approx(1.0 - eps, rel=1e-12)

    def test_evaluation_at_center_and_midpoint(self):
        sup = build_supersolution(std_params(), 10.0)
        assert sup(0.0) == pytest.approx(10.0)
        assert sup(0.5) == pytest.approx(10.0 + math.sqrt(3.0) / 2.0)

    def test_upper_envelope_is_the_unclamped_formula_bit_for_bit(self):
        # for a shift A > 0 the clamp at 0 never acts
        params = std_params()
        sup = build_supersolution(params, 0.25)
        r = np.linspace(0.0, 1.0 - 1e-9, 2001)
        unclamped = 0.25 + sup.B * (r / params.R) ** 2 * (params.R - r) ** (-params.beta)
        assert np.array_equal(sup(r), unclamped)
        assert sup.activation_radius == 0.0

    def test_blowup_endpoint_refused(self):
        sup = build_supersolution(std_params(), 1.0)
        sub = build_subsolution(std_params(), -1.0)
        for env in (sup, sub):
            with pytest.raises(ParameterError, match=r"envelope evaluation needs 0 <= r < R \(blow-up at r = R\)"):
                env(1.0)

    def test_reduced_endpoint_inequality(self):
        # at r = R the barrier condition collapses to a(R)*B**p >= B*beta*(beta+1-alpha)
        params = std_params()
        sup = build_supersolution(params, 4.0)
        assert sup.B ** (params.p - 1.0) == pytest.approx(3.0)
        assert sup.B ** (params.p - 1.0) >= params.beta * (params.beta + 1.0 - params.alpha)

    def test_shift_sign_preconditions(self):
        with pytest.raises(ParameterError):
            build_supersolution(std_params(), 0.0)
        with pytest.raises(ParameterError):
            build_subsolution(std_params(), 0.5)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ParameterError):
            BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, epsilon=-0.5)

    def test_ordering_lower_below_upper(self):
        rng = np.random.default_rng(2)
        r = np.linspace(0.0, 1.0 - 1e-9, 2001)
        for _ in range(10):
            eps = rng.uniform(0.05, 0.9)
            params = std_params(epsilon=eps)
            sup = build_supersolution(params, float(rng.uniform(0.5, 8.0)))
            sub = build_subsolution(params, float(-rng.uniform(0.1, 8.0)))
            assert np.all(sub(r) <= sup(r))

    def test_normalized_boundary_growth(self):
        # envelope * d**beta / amplitude -> 1 as d -> 0
        d = 1e-6
        for params in (std_params(0.5), BlowupParams(p=4.0, alpha=0.5, gamma=0.5, N=3, R=1.0, epsilon=0.3)):
            sup = build_supersolution(params, 1.0)
            sub = build_subsolution(params, -1.0)
            r = params.R - d * params.R
            for env, B in ((sup, sup.B), (sub, sub.B)):
                ratio = env(r) * (params.R - r) ** params.beta / B
                assert abs(ratio - 1.0) < 1e-3


class TestActivationRadius:
    def test_golden_ratio_root(self):
        sub = build_subsolution(std_params(), -1.0)
        assert sub.activation_radius == pytest.approx(GOLDEN, abs=1e-9)

    @pytest.mark.parametrize(
        "C, expected",
        [
            (-8.0, -4.0 + math.sqrt(24.0)),
            (-4.0, -2.0 + math.sqrt(8.0)),
            (-2.0, -1.0 + math.sqrt(3.0)),
            (-0.5, 0.5),
        ],
    )
    def test_quadratic_roots(self, C, expected):
        # with amplitude 1 and beta 1 the root solves r**2 = |C|*(1 - r)
        sub = build_subsolution(std_params(), C)
        assert sub.activation_radius == pytest.approx(expected, abs=1e-9)

    def test_vanishes_below_activation(self):
        sub = build_subsolution(std_params(), -1.0)
        r = np.linspace(0.0, sub.activation_radius - 1e-6, 50)
        assert np.all(sub(r) == 0.0)
        assert sub(sub.activation_radius + 1e-6) > 0.0

    def test_limits_in_shift(self):
        assert build_subsolution(std_params(), -1e-8).activation_radius < 1e-3
        assert build_subsolution(std_params(), -1e12).activation_radius > 1.0 - 1e-5

    def test_monotone_in_shift(self):
        cs = [-8.0, -4.0, -2.0, -1.0, -0.5, -0.1]
        radii = [build_subsolution(std_params(), c).activation_radius for c in cs]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_unbracketable_shift_raises(self):
        with pytest.raises(ParameterError, match="activation radius not bracketed below r = .*: [|]C[|] = 1e[+]20 too large"):
            build_subsolution(std_params(), -1e20)

    def test_profile_past_the_float_range_counts_as_positive(self):
        # p = 1.05: beta = 40, so (R - r)**(-beta) overflows near R while the
        # amplitude (about 1e65) is still a float
        params = BlowupParams(p=1.05, alpha=0.0, gamma=0.0, N=3, R=1.0)
        assert 0.0 < build_subsolution(params, -1.0).activation_radius < 1e-11

    def test_activation_radius_resolved_at_any_size(self):
        # p = 1.02: beta = 100 and B is about 1e198, so each root lies near
        # 1e-99, where R - r rounds to R and the root is sqrt(-C/B)
        params = BlowupParams(p=1.02, alpha=0.0, gamma=0.0, N=3, R=1.0)
        cs = [-8.0, -4.0, -2.0, -1.0, -0.5, -0.1]
        subs = [build_subsolution(params, c) for c in cs]
        radii = [sub.activation_radius for sub in subs]
        assert all(a > b > 0.0 for a, b in zip(radii, radii[1:]))
        for c, sub in zip(cs, subs):
            assert sub.activation_radius == pytest.approx(math.sqrt(-c / sub.B), rel=1e-14)


class TestInequalities:
    def test_super_holds_with_min_shift(self):
        params = std_params()
        samples = np.linspace(0.0, 1.0, 10001)
        found = find_min_A(params, samples)
        assert found.ok and found.envelope.shift == 4.0
        rep = verify_super_inequality(params, found.envelope, samples)
        assert rep.ok and np.all(rep.margins >= 0.0)

    def test_super_fails_with_balanced_amplitude_and_no_shift(self):
        # the balanced amplitude alone cannot carry the condition at small r
        params = std_params()
        samples = np.linspace(0.0, 0.5, 2001)
        balanced = Envelope(shift=0.0, B=params.K, beta=params.beta, R=params.R)
        rep = verify_super_inequality(params, balanced, samples)
        assert not rep.ok
        assert np.min(rep.margins) < 0.0

    def test_min_shift_monotone(self):
        params = std_params()
        samples = np.linspace(0.0, 1.0, 4001)
        A = find_min_A(params, samples).envelope.shift
        assert verify_super_inequality(params, build_supersolution(params, 2.0 * A), samples).ok

    def test_reports_carry_the_sample_margins(self):
        params = std_params()
        samples = np.linspace(0.0, 1.0, 1001)
        sup = build_supersolution(params, 2.0)
        rep = verify_super_inequality(params, sup, samples)
        assert rep.envelope is sup and np.array_equal(rep.samples, samples)
        assert np.array_equal(rep.margins, super_inequality_margins(params, sup, samples))
        sub = build_subsolution(params, -1.0)
        sub_samples = np.linspace(sub.activation_radius, 1.0 - 1e-6, 1001)
        sub_rep = verify_sub_inequality(params, sub, sub_samples)
        assert sub_rep.envelope is sub and np.array_equal(sub_rep.samples, sub_samples)
        assert np.array_equal(sub_rep.sufficient_margins, sub_sufficient_margins(params, sub, sub_samples))

    def test_sub_verifier_uses_the_envelope_as_built(self, monkeypatch):
        params = std_params()
        sub = build_subsolution(params, -1.0)

        def no_bisection(*args):
            raise AssertionError("verify_sub_inequality rebuilt the envelope")

        monkeypatch.setattr(subsuper, "build_subsolution", no_bisection)
        samples = np.linspace(sub.activation_radius, 1.0 - 1e-6, 101)
        assert verify_sub_inequality(params, sub, samples).ok

    def test_min_shift_doubles_past_two_to_the_fifteen(self):
        # at p = 1.5 the smallest passing power of 2 is 2**20
        params = BlowupParams(p=1.5, alpha=0.0, gamma=0.0, N=3, R=1.0)
        samples = np.linspace(0.0, 1.0, 4097)
        found = find_min_A(params, samples)
        assert found.ok and found.envelope.shift == 2.0**20
        assert not verify_super_inequality(params, build_supersolution(params, 2.0**19), samples).ok

    def test_sufficient_form_pointwise_value(self):
        # amplitude 1: margin(0.9) = 2 - 0.9**4
        margins = sub_sufficient_margins(std_params(), build_subsolution(std_params(), -1.0), np.asarray([0.9]))
        assert margins[0] == pytest.approx(2.0 - 0.9**4)

    def test_sufficient_form_strict_at_boundary(self):
        params = std_params()
        margin_at_R = sub_sufficient_margins(params, build_subsolution(params, -1.0), np.asarray([params.R]))[0]
        expected = 2.0 - (1.0 - params.epsilon) * 2.0
        assert margin_at_R == pytest.approx(expected)
        assert margin_at_R > 0.0

    def test_full_and_sufficient_hold_beyond_activation(self):
        params = std_params()
        sub = build_subsolution(params, -1.0)
        samples = np.linspace(sub.activation_radius, 1.0 - 1e-6, 10001)
        rep = verify_sub_inequality(params, sub, samples)
        assert rep.ok and rep.ok_full and rep.ok_sufficient

    def test_samples_below_activation_rejected(self):
        params = std_params()
        with pytest.raises(ParameterError):
            verify_sub_inequality(params, build_subsolution(params, -1.0), np.linspace(0.0, 0.9, 101))

    def test_super_margin_nonnegative_at_endpoint_sample(self):
        params = std_params()
        sup = build_supersolution(params, 4.0)
        margins = super_inequality_margins(params, sup, np.asarray([params.R]))
        B = sup.B
        expected = params.a_R * B**params.p - B * params.beta * (params.beta + 1.0)
        assert margins[0] == pytest.approx(expected)
        assert margins[0] > 0.0
