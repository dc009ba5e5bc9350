"""Explicit blow-up envelopes for the singular radial reaction problem.

The radial problem

    psi'' + ((N-1)/r - alpha/(R-r)) psi' = a(r) (R-r)**(gamma-alpha) psi**p

with psi'(0) = 0 and psi -> inf as r -> R admits solutions growing like
K * (R-r)**(-beta) at the boundary, where

    beta = (2 + gamma - alpha) / (p - 1)
    K    = (beta*(beta + 1 - alpha) / a(R)) ** (1/(p-1))

is the amplitude balancing the leading boundary terms.  This module builds
the two explicit one-parameter envelope families

    upper:  A + B_up  * (r/R)**2 * (R-r)**(-beta),   A > 0
    lower:  max(0, C + B_low * (r/R)**2 * (R-r)**(-beta)),   C < 0

whose amplitudes satisfy B_up**(p-1) * a(R) = (1+eps) * beta*(beta+1-alpha)
and B_low**(p-1) * a(R) = (1-eps) * beta*(beta+1-alpha), each as one
``Envelope`` (the clamp at 0 never acts on the upper one).  It verifies by
dense sampling, on the envelope as built, the pointwise differential
inequalities that make them an upper and a lower barrier.  Multiplying the
barrier condition through by (R-r)**(beta+2) turns it into the polynomial
comparison

    2N*B/R^2 * (R-r)^2 + ((3+N)*beta - 2*alpha)*B/R^2 * r*(R-r)
        + B*beta*(beta+1-alpha)*(r/R)^2   vs   a(r)*(c*(R-r)**beta + B*(r/R)^2)**p

(c = A for the upper barrier, c = C for the lower one), which is finite on
the closed interval [0, R] and is what the verifiers evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def blowup_exponent(p: float, alpha: float, gamma: float) -> float:
    """Boundary growth rate beta = (2 + gamma - alpha)/(p - 1)."""
    if p <= 1.0:
        raise ParameterError(f"superlinear power p > 1 required; got p={p}", "p")
    if gamma - alpha < 0.0:
        raise ParameterError(f"gamma - alpha must be >= 0; got {gamma - alpha}", "gamma", "alpha")
    return (2.0 + gamma - alpha) / (p - 1.0)


def blowup_constant(p: float, alpha: float, a_R: float, beta: float) -> float:
    """Amplitude K = (beta*(beta+1-alpha)/a_R)**(1/(p-1)) of the boundary rate."""
    if p <= 1.0:
        raise ParameterError(f"superlinear power p > 1 required; got p={p}")
    if beta <= 0.0:
        raise ParameterError(f"growth rate beta must be positive; got beta={beta}")
    if beta + 1.0 - alpha <= 0.0:
        raise ParameterError(
            f"beta + 1 - alpha must be positive for the amplitude; got {beta + 1.0 - alpha}"
        )
    if a_R <= 0.0:
        raise ParameterError(f"reaction coefficient a(R) must be positive; got {a_R}")
    return (beta * (beta + 1.0 - alpha) / a_R) ** (1.0 / (p - 1.0))


def leading_balance_residual(p: float, alpha: float, gamma: float, B: float, a_R: float) -> float:
    """beta*(beta+1-alpha) - a_R * B**(p-1); zero exactly when B = K."""
    beta = blowup_exponent(p, alpha, gamma)
    return beta * (beta + 1.0 - alpha) - a_R * B ** (p - 1.0)


@dataclass(frozen=True)
class BlowupParams:
    """Data of the singular radial problem with power reaction; ``a_coef`` holds
    the coefficients c0, c1, ... in r of a(r) (a number: its constant one)."""

    p: float
    alpha: float
    gamma: float
    N: int
    R: float
    a_coef: tuple[float, ...] = (1.0,)
    epsilon: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "a_coef", tuple(map(float, np.atleast_1d(self.a_coef))))
        blowup_exponent(self.p, self.alpha, self.gamma)
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in (0, 1); got {self.epsilon}", "epsilon")
        if self.R <= 0.0:
            raise ParameterError(f"radius R must be positive; got {self.R}", "R")
        if int(self.N) != self.N or self.N < 1:
            raise ParameterError(f"dimension N must be a positive integer; got {self.N}", "N")
        # a's extremes on [0, R] lie at 0, R and real roots of a' between them; each
        # root's real part is probed (a double root may carry a rounding imaginary
        # part).  a' is taken of a scaled to coefficients in [-1, 1], so it cannot overflow.
        scale = np.max(np.abs(self.a_coef))
        crit = np.roots(np.polyder(np.divide(self.a_coef[::-1], scale))).real if 0.0 < scale < np.inf else np.nan
        with np.errstate(over="ignore"):  # an a past the float range probes inf
            probe = self.a_at(np.append([0.0, self.R], np.clip(crit, 0.0, self.R)))
        if not (np.all(np.isfinite(probe)) and np.all(probe > 0.0)):
            raise ParameterError("a(r) must be finite and positive on [0, R]", "a_coef", "R")
        # so that every envelope amplitude exists, and the envelope builders
        # refuse only their shift
        if self.beta + 1.0 - self.alpha <= 0.0:
            raise ParameterError(
                f"beta + 1 - alpha must be positive; got {self.beta + 1.0 - self.alpha}", "p", "alpha", "gamma"
            )
        try:  # the largest amplitude, the upper envelope's, is a power 1/(p-1): near p = 1 it overflows
            _envelope_amplitude(self, 1.0 + self.epsilon)
        except OverflowError:
            raise ParameterError(f"envelope amplitude overflows the float range at p={self.p}", "p") from None

    def a_at(self, r) -> np.ndarray:
        """a(r) by Horner's rule."""
        return np.polyval(self.a_coef[::-1], np.asarray(r, dtype=float))

    @property
    def a_R(self) -> float:
        return float(self.a_at(np.asarray(self.R)))

    @property
    def beta(self) -> float:
        return blowup_exponent(self.p, self.alpha, self.gamma)

    @property
    def K(self) -> float:
        return blowup_constant(self.p, self.alpha, self.a_R, self.beta)


def _envelope_amplitude(params: BlowupParams, factor: float) -> float:
    """Amplitude B with B**(p-1)*a(R) = factor * beta*(beta+1-alpha).

    factor = 1 + eps gives the upper envelope, 1 - eps the lower one; both
    collapse onto the balanced amplitude K as eps -> 0.
    """
    beta = params.beta
    return (factor * beta * (beta + 1.0 - params.alpha) / params.a_R) ** (
        1.0 / (params.p - 1.0)
    )


@dataclass(frozen=True)
class Envelope:
    """Barrier max(0, shift + B*(r/R)^2*(R-r)^(-beta)) on 0 <= r < R.

    The upper barrier has a shift A > 0, where the clamp never acts, and
    activation radius 0.  The lower one has a shift C < 0: it vanishes
    identically on [0, activation_radius) and is positive, increasing
    beyond it.
    """

    shift: float
    B: float
    beta: float
    R: float
    activation_radius: float = 0.0

    def __call__(self, r):
        x = np.asarray(r, dtype=float)
        if np.any(x >= self.R) or np.any(x < 0.0):
            raise ParameterError("envelope evaluation needs 0 <= r < R (blow-up at r = R)")
        out = np.maximum(0.0, self.shift + self.B * (x / self.R) ** 2 * (self.R - x) ** (-self.beta))
        return float(out) if np.ndim(r) == 0 else out


def build_supersolution(params: BlowupParams, A: float) -> Envelope:
    """Upper envelope with amplitude factor 1 + eps and vertical shift A > 0."""
    if A <= 0.0:
        raise ParameterError(f"shift A must be positive; got A={A}")
    B = _envelope_amplitude(params, 1.0 + params.epsilon)
    return Envelope(shift=float(A), B=B, beta=params.beta, R=params.R)


def build_subsolution(params: BlowupParams, C: float) -> Envelope:
    """Lower envelope with amplitude factor 1 - eps and shift C < 0.

    The activation radius is the unique root of C + B*(r/R)^2*(R-r)^(-beta)
    in (0, R); the profile is nondecreasing in r, so bisection converges
    unconditionally, and it runs until the bracket's ends are adjacent
    floats, so a root of any size is resolved.  As C -> 0- the root slides
    to 0, as C -> -inf it approaches R.
    """
    if C >= 0.0:
        raise ParameterError(f"shift C must be negative; got C={C}")
    B = _envelope_amplitude(params, 1.0 - params.epsilon)
    beta, R = params.beta, params.R

    def profile(r: float) -> float:
        try:
            return C + B * (r / R) ** 2 * (R - r) ** (-beta)
        except OverflowError:  # (R - r)**(-beta) past the float range, so the profile is positive
            return float("inf")

    lo, hi = 0.0, R * (1.0 - 1e-13)
    if profile(hi) <= 0.0:
        raise ParameterError(
            f"activation radius not bracketed below r = {hi}: |C| = {abs(C)} too large"
        )
    c_bar = 0.5 * (lo + hi)
    while lo < c_bar < hi:
        if profile(c_bar) < 0.0:
            lo = c_bar
        else:
            hi = c_bar
        c_bar = 0.5 * (lo + hi)
    return Envelope(shift=float(C), B=B, beta=beta, R=R, activation_radius=c_bar)


@dataclass(frozen=True)
class InequalityReport:
    """Upper-barrier condition for one envelope, with its margins at the samples."""

    ok: bool
    envelope: Envelope
    samples: np.ndarray
    margins: np.ndarray


@dataclass(frozen=True)
class SubInequalityReport:
    """Both forms of the lower-barrier condition on [activation radius, R).

    ``sufficient_margins`` holds the sufficient form's margins at the samples.
    """

    ok: bool
    ok_full: bool
    ok_sufficient: bool
    envelope: Envelope
    samples: np.ndarray
    sufficient_margins: np.ndarray


def _barrier_lhs(params: BlowupParams, B: float, r: np.ndarray) -> np.ndarray:
    """Polynomial form of the diffusion side of the barrier condition."""
    beta, N, R, alpha = params.beta, params.N, params.R, params.alpha
    return (
        2.0 * N * B / R**2 * (R - r) ** 2
        + (3.0 * beta + N * beta - 2.0 * alpha) * (B / R**2) * r * (R - r)
        + B * beta * (beta + 1.0 - alpha) * (r / R) ** 2
    )


def _barrier_rhs(params: BlowupParams, shift: float, B: float, r: np.ndarray) -> np.ndarray:
    """Reaction side a(r)*(shift*(R-r)^beta + B*(r/R)^2)^p, clamped at 0.

    The clamp only matters below the activation radius of a lower barrier,
    where the profile itself is cut off at zero.  A power past the float
    range is inf, a correct verdict for the margins, so it does not warn.
    """
    base = shift * (params.R - r) ** params.beta + B * (r / params.R) ** 2
    with np.errstate(over="ignore"):
        return params.a_at(r) * np.maximum(base, 0.0) ** params.p


def super_inequality_margins(params: BlowupParams, sup: Envelope, samples: np.ndarray) -> np.ndarray:
    """Margins rhs - lhs of the upper-barrier condition for sup (>= 0 means barrier)."""
    samples = np.asarray(samples, dtype=float)
    if np.any(samples < 0.0) or np.any(samples > params.R):
        raise ParameterError("samples must lie in [0, R]")
    return _barrier_rhs(params, sup.shift, sup.B, samples) - _barrier_lhs(params, sup.B, samples)


def _refine_worst(margins_of, samples: np.ndarray, refine: int = 64) -> tuple[float, np.ndarray]:
    """Worst margin, with a dense local re-scan around the coarsest worst sample,
    and the margins at the samples."""
    margins = margins_of(samples)
    k = int(np.argmin(margins))
    lo = samples[max(k - 1, 0)]
    hi = samples[min(k + 1, samples.size - 1)]
    local_margins = margins_of(np.linspace(lo, hi, refine))
    return float(min(margins[k], np.min(local_margins))), margins


def verify_super_inequality(params: BlowupParams, sup: Envelope, samples: np.ndarray) -> InequalityReport:
    """Check the upper-barrier condition for sup at all samples, refining the worst spot."""
    samples = np.asarray(samples, dtype=float)
    worst, margins = _refine_worst(lambda r: super_inequality_margins(params, sup, r), samples)
    return InequalityReport(ok=worst >= 0.0, envelope=sup, samples=samples, margins=margins)


def find_min_A(params: BlowupParams, samples: np.ndarray) -> InequalityReport:
    """The report of the smallest shift 2**k, k >= 0, making the upper barrier hold.

    Near the boundary the 1+eps amplitude alone carries the condition; a
    large enough shift extends it to the whole interval.  If none does, this
    is the failing report of 2**1023, the last power of 2 in the float range.
    """
    for k in range(1024):
        report = verify_super_inequality(params, build_supersolution(params, 2.0**k), samples)
        if report.ok:
            break
    return report


def sub_sufficient_margins(params: BlowupParams, sub: Envelope, r: np.ndarray) -> np.ndarray:
    """Margins of the sufficient lower-barrier form for sub.

    beta*(beta+1-alpha) >= a(r) * B**(p-1) * (r/R)**(2(p-1)) implies the
    full condition once the negative shift is discarded; with the 1-eps
    amplitude it holds with strict margin at r = R.
    """
    beta = params.beta
    r = np.asarray(r, dtype=float)
    return beta * (beta + 1.0 - params.alpha) - params.a_at(r) * sub.B ** (params.p - 1.0) * (
        r / params.R
    ) ** (2.0 * (params.p - 1.0))


def verify_sub_inequality(params: BlowupParams, sub: Envelope, samples: np.ndarray) -> SubInequalityReport:
    """Check the full and the sufficient lower-barrier conditions for sub.

    Samples must not dip below the activation radius: there the profile is
    clamped to zero and the condition is vacuous.
    """
    samples = np.asarray(samples, dtype=float)
    if np.any(samples < sub.activation_radius - 1e-9):
        raise ParameterError("samples must lie at or beyond the activation radius")
    if np.any(samples >= params.R):
        raise ParameterError("samples must stay strictly below R")

    def full_margins(r):
        return _barrier_lhs(params, sub.B, r) - _barrier_rhs(params, sub.shift, sub.B, r)

    ok_full = _refine_worst(full_margins, samples)[0] >= 0.0
    worst, sufficient = _refine_worst(lambda r: sub_sufficient_margins(params, sub, r), samples)
    ok_suff = worst >= 0.0
    return SubInequalityReport(
        ok=ok_full and ok_suff,
        ok_full=ok_full,
        ok_sufficient=ok_suff,
        envelope=sub,
        samples=samples,
        sufficient_margins=sufficient,
    )
