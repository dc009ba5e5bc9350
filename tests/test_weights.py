"""Weight families, boundary distance, and the local-integrability surrogate."""

import math
import tracemalloc

import numpy as np
import pytest

from degen_blowup import (
    Domain,
    InteriorVanishingWeight,
    ParameterError,
    WeightFamily,
    catalogue_families,
    check_a2,
    check_b2,
    distance_to_boundary,
    eval_weight,
)
from degen_blowup.weights import _BLOCK


class TestDistance:
    def test_ball_interior_point(self):
        dom = Domain.ball(1.0, 3)
        assert distance_to_boundary(dom, [0.25, 0.0, 0.0]) == pytest.approx(0.75)

    def test_ball_center(self):
        dom = Domain.ball(1.0, 3)
        assert distance_to_boundary(dom, [0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_ball_boundary_point(self):
        dom = Domain.ball(2.0, 2)
        assert distance_to_boundary(dom, [2.0, 0.0]) == pytest.approx(0.0)

    def test_outside_rejected(self):
        dom = Domain.ball(1.0, 3)
        with pytest.raises(ParameterError, match="point at radius 1.5 lies outside the ball of radius 1.0"):
            distance_to_boundary(dom, [1.5, 0.0, 0.0])

    def test_interval_uses_right_end_gap(self):
        dom = Domain.interval(1.0)
        assert distance_to_boundary(dom, 0.25) == pytest.approx(0.75)
        with pytest.raises(ParameterError, match=r"point 1.25 lies outside the interval \(0, 1.0\)"):
            distance_to_boundary(dom, 1.25)

    def test_interval_forces_one_dimension(self):
        with pytest.raises(ParameterError):
            Domain("interval", R=1.0, N=3)


class TestEvalWeight:
    def test_power_half(self):
        assert eval_weight(WeightFamily.power(0.5), 0.25) == pytest.approx(0.5)

    def test_constant(self):
        assert eval_weight(WeightFamily.constant(), 0.9) == pytest.approx(1.0)

    def test_power_log(self):
        got = eval_weight(WeightFamily.power_log(1.0, 1.0), 0.5)
        assert got == pytest.approx(0.5 * np.log(4.0))

    @pytest.mark.parametrize("alpha", [0.5, -0.9])
    def test_boundary_evaluation_refused(self, alpha):
        with pytest.raises(ParameterError, match=r"power weight cannot be evaluated at the boundary \(d = 0\)"):
            eval_weight(WeightFamily.power(alpha), 0.0)

    def test_constant_allowed_at_boundary(self):
        assert eval_weight(WeightFamily.constant(), 0.0) == pytest.approx(1.0)

    def test_strictly_positive_on_gap_range(self):
        d = np.linspace(1e-6, 1.0, 200)
        for _, fam in catalogue_families(3):
            assert np.all(eval_weight(fam, d) > 0.0)

    def test_power_monotone_for_positive_exponent(self):
        fam = WeightFamily.power(0.7)
        d = np.linspace(1e-4, 1.0, 50)
        assert np.all(np.diff(eval_weight(fam, d)) > 0.0)


class TestFamilyValidation:
    def test_power_needs_alpha_above_minus_one(self):
        with pytest.raises(ParameterError):
            WeightFamily.power(-1.0)

    def test_power_log_needs_positive_log_power(self):
        with pytest.raises(ParameterError):
            WeightFamily.power_log(0.5, 0.0)

    def test_log_negative_needs_positive_alpha(self):
        with pytest.raises(ParameterError):
            WeightFamily.log_negative(-0.5)

    def test_exp_deficit_needs_negative_rate(self):
        with pytest.raises(ParameterError):
            WeightFamily.exp_deficit(0.5)

    def test_dimension_upper_bound(self):
        with pytest.raises(ParameterError):
            WeightFamily.power(2.5).validate_for_dimension(3)

    def test_exp_deficit_needs_three_dimensions(self):
        with pytest.raises(ParameterError):
            WeightFamily.exp_deficit(-1.0).validate_for_dimension(2)


class TestCheckB2:
    def test_degenerate_power_passes(self):
        rep = check_b2(WeightFamily.power(0.5), Domain.ball(1.0, 3), margin=0.1)
        assert rep.passes and not rep.divergent

    def test_singular_power_passes(self):
        rep = check_b2(WeightFamily.power(-0.9), Domain.ball(1.0, 3), margin=0.1)
        assert rep.passes and not rep.divergent

    def test_catalogue_all_pass_on_unit_ball(self):
        dom = Domain.ball(1.0, 3)
        for label, fam in catalogue_families(3):
            rep = check_b2(fam, dom, margin=0.1, quad_nodes=256)
            assert rep.passes, f"{label} unexpectedly failed: {rep}"

    def test_interior_vanishing_diverges(self):
        # 1/|x-0.5| integrated across the degeneracy point grows without
        # bound under midpoint refinement.
        rep = check_b2(InteriorVanishingWeight(0.5), Domain.interval(1.0), margin=0.1)
        assert not rep.passes
        assert rep.divergent

    def test_result_stable_under_node_doubling(self):
        dom = Domain.ball(1.0, 3)
        for _, fam in catalogue_families(3):
            a = check_b2(fam, dom, margin=0.1, quad_nodes=128)
            b = check_b2(fam, dom, margin=0.1, quad_nodes=256)
            rel = abs(b.integral_estimate - a.integral_estimate) / abs(b.integral_estimate)
            assert a.passes == b.passes
            assert rel < 1e-3

    def test_margin_precondition(self):
        with pytest.raises(ParameterError):
            check_b2(WeightFamily.constant(), Domain.ball(1.0, 3), margin=1.5)

    def test_quad_nodes_precondition(self):
        with pytest.raises(ParameterError):
            check_b2(WeightFamily.constant(), Domain.ball(1.0, 3), margin=0.1, quad_nodes=8)

    @pytest.mark.parametrize("margin", [0.5, 0.6])
    @pytest.mark.parametrize(
        "weight",
        [InteriorVanishingWeight(0.5), WeightFamily.power(0.5)],
        ids=["interior-vanishing", "power"],
    )
    def test_interval_margin_below_half_length(self, weight, margin):
        # (margin, R - margin) is empty at R/2 and reversed beyond it
        with pytest.raises(ParameterError, match=r"margin=.*R/2=0\.5"):
            check_b2(weight, Domain.interval(1.0), margin=margin)


class TestCheckA2:
    """Two-sided average surrogate; recorded but never gated on."""

    def test_constant_profile_has_unit_product(self):
        rep = check_a2(WeightFamily.constant())
        assert rep.passes
        assert rep.a2_estimate == pytest.approx(1.0)

    def test_power_half_product_matches_closed_form(self):
        # avg(t**a) * avg(t**-a) on (0, b) is 1/((1+a)(1-a)), independent of b
        rep = check_a2(WeightFamily.power(0.5))
        assert rep.passes
        assert rep.a2_estimate == pytest.approx(4.0 / 3.0, rel=0.05)

    def test_two_sided_class_is_strictly_smaller(self):
        # integrable reciprocal in three dimensions, but the gap profile
        # t**1.9 fails the two-sided averages
        fam = WeightFamily.power(1.9)
        assert check_b2(fam, Domain.ball(1.0, 3), margin=0.1).passes
        rep = check_a2(fam)
        assert not rep.passes and rep.divergent

    def test_linear_vanishing_fails(self):
        rep = check_a2(WeightFamily.exp_deficit(-1.0))
        assert not rep.passes and rep.divergent

    def test_singular_admissible_profile_passes(self):
        rep = check_a2(WeightFamily.power(-0.9))
        assert rep.passes

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            check_a2(WeightFamily.constant(), R=-1.0)
        with pytest.raises(ParameterError):
            check_a2(WeightFamily.constant(), quad_nodes=4)

    @pytest.mark.parametrize(
        "kwargs",
        [{"R": 0.0}, {"R": math.nan}, {"levels": 0}, {"levels": -1}],
        ids=["R-zero", "R-nan", "levels-0", "levels-negative"],
    )
    def test_preconditions_radius_and_levels(self, kwargs):
        # a nan radius would read as divergent, zero levels as a vacuous pass
        with pytest.raises(ParameterError):
            check_a2(WeightFamily.constant(), **kwargs)

    @pytest.mark.parametrize("levels", [1, 3, 6])
    @pytest.mark.parametrize("n", [16, 17, 256])
    def test_tau_evaluated_once_per_distinct_point(self, monkeypatch, n, levels):
        # tau runs once per scale of the nested grids: on n, 2n and 4n
        # points at the first three and on 8n at each of the other
        # `levels`; 1/tau reuses those values
        counted = []
        tau_in_place = WeightFamily.tau_in_place

        def counting_tau(self, t, scratch=None):
            counted.append(np.size(t))
            return tau_in_place(self, t, scratch)

        monkeypatch.setattr(WeightFamily, "tau_in_place", counting_tau)
        assert check_a2(WeightFamily.power(0.5), levels=levels, quad_nodes=n).passes
        assert sum(counted) == 7 * n + 8 * n * levels

    def test_traced_peak_at_65536_nodes(self):
        # the work arrays of the largest grid, 8 * 65536 doubles of 4 MB
        # each, are all a call allocates: the i + 0.5 values and the
        # values, plus one block of power-log's log factor
        peaks = {}
        tracemalloc.start()
        try:
            for label, fam in catalogue_families(3):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                check_a2(fam, quad_nodes=65536)
                peaks[label] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert all(peak <= 8.25 for peak in peaks.values()), peaks


def _literal_tau(family, t):
    """The profile formulas as plain numpy expressions."""
    if family.tag == "constant":
        return np.ones_like(t)
    if family.tag == "power":
        return t**family.alpha
    if family.tag == "power-log":
        return t**family.alpha * np.log(2.0 + 1.0 / t) ** family.beta_log
    if family.tag == "log-negative":
        return np.log(2.0 + 1.0 / t) ** (-family.alpha)
    return 1.0 - np.exp(family.a_exp * t)


def _reference_midpoint(f, a, b, n):
    x = a + (b - a) * (np.arange(n) + 0.5) / n
    return float((b - a) / n * np.sum(f(x)))


def _reference_refined_integral(f, a, b, n):
    """Midpoint estimates at n, 2n, 4n, 8n cells with a divergence verdict."""
    estimates = [_reference_midpoint(f, a, b, n * k) for k in (1, 2, 4, 8)]
    if not all(math.isfinite(e) for e in estimates):
        return math.inf, True
    d = [estimates[i + 1] - estimates[i] for i in range(3)]
    drift = abs(d[-1]) / max(abs(estimates[-1]), 1e-300)
    same_sign = d[0] * d[1] > 0.0 and d[1] * d[2] > 0.0
    ratios = [abs(d[i + 1]) / max(abs(d[i]), 1e-300) for i in range(2)]
    divergent = same_sign and drift > 1e-10 and min(ratios) >= 0.97
    return estimates[-1], divergent


def _reference_check_a2(family, R, levels, quad_nodes):
    """The two-sided check with each level's four grids built and evaluated apart."""
    worst = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(levels):
            b = R / 2.0**k
            direct, div_direct = _reference_refined_integral(lambda t: _literal_tau(family, t), 0.0, b, quad_nodes)
            recip, div_recip = _reference_refined_integral(lambda t: 1.0 / _literal_tau(family, t), 0.0, b, quad_nodes)
            if div_direct or div_recip:
                return False, math.inf, True
            worst = max(worst, (direct / b) * (recip / b))
    return True, worst, False


# catalogue N = 3 and N = 5; power(1.9) and exp-deficit(-1) take the early return
_A2_FAMILIES = dict(catalogue_families(3) + catalogue_families(5))


@pytest.mark.parametrize("quad_nodes", [16, 17, 100, 1000, 4096])
@pytest.mark.parametrize("label", list(_A2_FAMILIES))
def test_check_a2_bit_identical_to_per_level_quadrature(label, quad_nodes):
    family = _A2_FAMILIES[label]
    for R in (1e-3, 0.3, 1.0, 2.7):
        for levels in (1, 3, 6, 9):
            rep = check_a2(family, R=R, levels=levels, quad_nodes=quad_nodes)
            expected = _reference_check_a2(family, R, levels, quad_nodes)
            assert (rep.passes, rep.a2_estimate, rep.divergent) == expected, (R, levels)


@pytest.mark.parametrize("label", list(_A2_FAMILIES))
def test_tau_bit_identical_to_formula(label):
    family = _A2_FAMILIES[label]
    gaps = np.geomspace(1e-300, 1e3, 20001)
    kept = gaps.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in (gaps, np.zeros(3), np.asarray(0.25)):
            assert np.asarray(family.tau(t)).tobytes() == np.asarray(_literal_tau(family, t)).tobytes()
    assert gaps.tobytes() == kept.tobytes()  # tau leaves its argument alone


@pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, None], ids=lambda s: f"size-{s}")
@pytest.mark.parametrize("label", [label for label in _A2_FAMILIES if label.startswith("power-log")])
def test_blocked_power_log_tau_bit_identical_to_formula(label, size):
    # the log factor is built a block at a time: around one block, past
    # three with a short last one, and on a 0-d array (size None)
    family = _A2_FAMILIES[label]
    t = np.asarray(0.25) if size is None else np.geomspace(1e-300, 1e3, size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expected = np.asarray(_literal_tau(family, t)).tobytes()
        assert np.asarray(family.tau(t)).tobytes() == expected
        assert family.tau_in_place(t.copy()).tobytes() == expected
        assert family.tau_in_place(t.copy(), np.empty(_BLOCK)).tobytes() == expected


def _reference_check_b2(weight, domain, margin, quad_nodes):
    """check_b2's report from the plain integrands, each grid built apart."""
    if isinstance(weight, InteriorVanishingWeight):
        a, b = margin, domain.R - margin

        def f(x):
            return 1.0 / np.abs(x - weight.center)
    elif domain.kind == "ball":
        a, b = 0.0, domain.R - margin

        def f(r):
            return r ** (domain.N - 1) / _literal_tau(weight, domain.R - r)
    else:
        a, b = margin, domain.R - margin

        def f(x):
            return 1.0 / _literal_tau(weight, np.minimum(x, domain.R - x))

    with np.errstate(divide="ignore", over="ignore"):
        e = [_reference_midpoint(f, a, b, quad_nodes * k) for k in (1, 2, 4)]
    if not all(np.isfinite(e)):
        return False, e[-1], math.inf, True
    rel = abs(e[2] - e[1]) / max(abs(e[2]), 1e-300)
    passes = rel < 1e-3
    increments = (e[1] - e[0], e[2] - e[1])
    return passes, e[2], rel, (not passes) and increments[1] > 0.0 and increments[1] > 0.5 * increments[0]


def _b2_cases(n_dim, R, margin):
    """The entries of a catalogue b2 run: each family on the ball, the failing case on the interval."""
    ball = Domain.ball(R, n_dim)
    cases = [(f"{label}-N{n_dim}-R{R:g}", fam, ball, margin) for label, fam in catalogue_families(n_dim)]
    return cases + [(f"interior-vanishing-R{R:g}", InteriorVanishingWeight(R / 2), Domain.interval(R), margin)]


_B2_CASES = [
    *_b2_cases(3, 1.0, 0.1),
    *_b2_cases(5, 2.7, 0.3),
    *_b2_cases(3, 1e-3, 2e-4),
    # families admissible on an interval (N = 1), for check_b2's interval branch
    *[
        (f"{fam.tag}-interval", fam, Domain.interval(1.0), 0.1)
        for fam in (
            WeightFamily.constant(),
            WeightFamily.power(-0.9),
            WeightFamily.power_log(-0.5, 2.0),
            WeightFamily.log_negative(1.0),
        )
    ],
]


# 4 * 4097 points: the integrands' last block holds 4 values
@pytest.mark.parametrize("quad_nodes", [16, 17, 100, 4096, 4097])
@pytest.mark.parametrize("case", _B2_CASES, ids=[case[0] for case in _B2_CASES])
def test_check_b2_bit_identical_to_plain_midpoint_rule(case, quad_nodes):
    _, weight, domain, margin = case
    rep = check_b2(weight, domain, margin, quad_nodes)
    expected = _reference_check_b2(weight, domain, margin, quad_nodes)
    assert (rep.passes, rep.integral_estimate, rep.relative_change, rep.divergent) == expected


def test_check_b2_traced_peak_at_65536_nodes():
    # two work arrays of 4 * 65536 doubles and a block, 2.1 MB each, the block
    # for the gap; power-log adds one block of its log factor
    peaks = {}
    tracemalloc.start()
    try:
        for label, fam in catalogue_families(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            check_b2(fam, Domain.ball(1.0, 3), 0.1, quad_nodes=65536)
            peaks[label] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert all(peak <= 4.5 for peak in peaks.values()), peaks
