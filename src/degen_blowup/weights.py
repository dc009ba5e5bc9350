"""Boundary-distance weight families and a local-integrability surrogate check.

The diffusion coefficient w multiplies the flux of the operator
-div(w grad u).  It may degenerate (w -> 0) or become singular (w -> inf)
at the boundary.  Every admissible family here is a composition
w(x) = tau(d(x)) of a one-dimensional profile tau with the distance d to
the boundary.  The profiles:

    constant      tau(t) = 1
    power         tau(t) = t**alpha,                -1 < alpha < N-1
    power-log     tau(t) = t**alpha * log(2+1/t)**beta_log,  beta_log > 0
    log-negative  tau(t) = log(2+1/t)**(-alpha),    alpha > 0
    exp-deficit   tau(t) = 1 - exp(a_exp*t),        a_exp < 0, N > 2

The weighted Sobolev machinery needs 1/w to be locally integrable.  That
cannot be certified by finitely many integrals, so ``check_b2`` evaluates a
surrogate: composite quadrature of 1/w over one compact subset
{d >= margin}, accepted only when the estimate is stable under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_FAMILY_TAGS = ("constant", "power", "power-log", "log-negative", "exp-deficit")

# Values per block where a formula needs a second array next to its input:
# that array is one block long, not as long as the grid.
_BLOCK = 16384


@dataclass(frozen=True)
class WeightFamily:
    """One boundary-distance weight profile tau with its parameters."""

    tag: str
    alpha: float = 0.0
    beta_log: float = 0.0
    a_exp: float = 0.0

    def __post_init__(self):
        if self.tag not in _FAMILY_TAGS:
            raise ParameterError(f"unknown weight family tag {self.tag!r}", "tag")
        if self.tag in ("power", "power-log") and self.alpha <= -1.0:
            raise ParameterError(
                f"power-type profile needs alpha > -1; got alpha={self.alpha}", "alpha"
            )
        if self.tag == "power-log" and self.beta_log <= 0.0:
            raise ParameterError(
                f"power-log profile needs beta_log > 0; got beta_log={self.beta_log}", "beta_log"
            )
        if self.tag == "log-negative" and self.alpha <= 0.0:
            raise ParameterError(
                f"log-negative profile needs alpha > 0; got alpha={self.alpha}", "alpha"
            )
        if self.tag == "exp-deficit" and self.a_exp >= 0.0:
            raise ParameterError(
                f"exp-deficit profile needs a_exp < 0; got a_exp={self.a_exp}", "a_exp"
            )

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls) -> "WeightFamily":
        return cls("constant")

    @classmethod
    def power(cls, alpha: float) -> "WeightFamily":
        return cls("power", alpha=alpha)

    @classmethod
    def power_log(cls, alpha: float, beta_log: float) -> "WeightFamily":
        return cls("power-log", alpha=alpha, beta_log=beta_log)

    @classmethod
    def log_negative(cls, alpha: float) -> "WeightFamily":
        return cls("log-negative", alpha=alpha)

    @classmethod
    def exp_deficit(cls, a_exp: float) -> "WeightFamily":
        return cls("exp-deficit", a_exp=a_exp)

    # -- evaluation ---------------------------------------------------
    def validate_for_dimension(self, n_dim: int) -> None:
        """Check the dimension-dependent part of the admissible range."""
        if self.tag in ("power", "power-log") and not self.alpha < n_dim - 1:
            raise ParameterError(
                f"power-type profile needs alpha < N-1 = {n_dim - 1}; "
                f"got alpha={self.alpha}",
                "alpha",
                "n_dim",
            )
        if self.tag == "exp-deficit" and n_dim <= 2:
            raise ParameterError("exp-deficit profile needs dimension N > 2", "n_dim")

    def tau_in_place(self, t: np.ndarray, block: np.ndarray | None = None) -> np.ndarray:
        """Overwrite the float array t with tau(t) and return it.

        Each profile runs the ufuncs of its formula in the formula's order,
        with the in-place operators (``**=`` takes numpy's scalar-power fast
        paths just as ``**`` does), so the values are those of the plain
        expressions bit for bit.  power-log needs a second array for its
        log factor; it builds it ``_BLOCK`` values at a time in ``block``
        (a fresh array when None), so t must be 1-d or contiguous.
        """
        if self.tag == "constant":
            t.fill(1.0)
        elif self.tag == "power":
            t **= self.alpha
        elif self.tag == "power-log":
            # t**alpha * log(2 + 1/t)**beta_log; the log factor reads t first
            flat = t.reshape(-1)
            if block is None:
                block = np.empty(min(flat.size, _BLOCK))
            for lo in range(0, flat.size, _BLOCK):
                part = flat[lo : lo + _BLOCK]
                log_term = np.divide(1.0, part, out=block[: part.size])
                log_term += 2.0
                np.log(log_term, out=log_term)
                log_term **= self.beta_log
                part **= self.alpha
                part *= log_term
        elif self.tag == "log-negative":
            # log(2 + 1/t)**(-alpha)
            np.divide(1.0, t, out=t)
            t += 2.0
            np.log(t, out=t)
            t **= -self.alpha
        else:
            # exp-deficit: 1 - exp(a_exp * t)
            t *= self.a_exp
            np.exp(t, out=t)
            np.subtract(1.0, t, out=t)
        return t

    def finite_positive_at_zero(self) -> bool:
        """True when tau extends continuously to a positive value at t = 0."""
        if self.tag == "constant":
            return True
        return self.tag == "power" and self.alpha == 0.0


@dataclass(frozen=True)
class InteriorVanishingWeight:
    """Test weight |x - center| vanishing at an interior point.

    Not a boundary-distance composition: it exists to give the
    local-integrability check a genuine failing case (1/w is not locally
    integrable across the degeneracy point).  Only ``check_b2`` consumes it.
    """

    center: float

    def value_in_place(self, x: np.ndarray) -> np.ndarray:
        """Overwrite the float array x with |x - center| and return it."""
        x -= self.center
        np.abs(x, out=x)
        return x


@dataclass(frozen=True)
class Domain:
    """Radial geometry: an interval (0, R) or a ball of radius R in R^N."""

    kind: str
    R: float
    N: int = 1

    def __post_init__(self):
        if self.kind not in ("interval", "ball"):
            raise ParameterError(f"unknown domain kind {self.kind!r}")
        if not self.R > 0.0:
            raise ParameterError(f"radius R must be positive; got R={self.R}", "R")
        if int(self.N) != self.N or self.N < 1:
            raise ParameterError(f"dimension N must be a positive integer; got {self.N}", "N")
        if self.kind == "interval" and self.N != 1:
            raise ParameterError("interval domains force N = 1")

    @classmethod
    def interval(cls, R: float) -> "Domain":
        return cls("interval", R=R, N=1)

    @classmethod
    def ball(cls, R: float, N: int) -> "Domain":
        return cls("ball", R=R, N=N)


def eval_weight(family: WeightFamily, d) -> np.ndarray:
    """Evaluate w = tau(d) at boundary gaps d > 0.

    Evaluation at d = 0 is refused whenever the profile is singular or
    degenerates there; discrete schemes only ever evaluate w at interior
    half-nodes, so the endpoint is never needed.
    """
    arr = np.array(d, dtype=float)  # tau_in_place overwrites it
    if np.any(arr < 0.0):
        raise ParameterError("boundary gap d must be nonnegative")
    if np.any(arr == 0.0) and not family.finite_positive_at_zero():
        raise ParameterError(
            f"{family.tag} weight cannot be evaluated at the boundary (d = 0)"
        )
    return family.tau_in_place(arr)


@dataclass(frozen=True)
class B2Report:
    """Outcome of the local-integrability surrogate."""

    passes: bool
    integral_estimate: float
    relative_change: float
    divergent: bool


@dataclass(frozen=True, eq=False)
class QuadWork:
    """Arrays for the midpoint grids of ``check_b2`` and ``check_a2``.

    ``half`` holds i + 0.5 for every i below its length and is read only,
    so threads may share one table.  ``values`` is as long; a call builds
    its points and integrand values in it.  ``block``, ``_BLOCK`` values,
    holds power-log's log factor a block at a time.  A call writes both,
    so each thread needs its own.  Sized for 8 * quad_nodes, one object
    serves both checks at quad_nodes (``check_b2`` needs at most that,
    ``check_a2`` exactly that).
    """

    half: np.ndarray
    values: np.ndarray
    block: np.ndarray

    @classmethod
    def allocate(cls, size: int) -> "QuadWork":
        half = np.arange(size, dtype=float)
        half += 0.5
        half.flags.writeable = False
        return cls(half, np.empty(size), np.empty(_BLOCK))

    def sibling(self) -> "QuadWork":
        """A work object sharing this one's i + 0.5 table, with its own values and block."""
        return QuadWork(self.half, np.empty(self.half.size), np.empty(_BLOCK))

    def values_for(self, size: int, caller: str) -> np.ndarray:
        """The first size values, refusing a work object sized for fewer."""
        if self.values.size < size:
            raise ParameterError(f"{caller} needs work arrays of {size} values; got {self.values.size}")
        return self.values[:size]


def _midpoint(f, a: float, b: float, n: int, half: np.ndarray, out: np.ndarray) -> float:
    """Midpoint rule for f on (a, b) with n cells, the points built in out[:n].

    ``half`` holds i + 0.5 for i < n at least; f receives the points and
    may overwrite them.
    """
    x = np.multiply(half[:n], b - a, out=out[:n])
    x /= n
    x += a
    return float((b - a) / n * np.sum(f(x)))


def check_b2_margin(domain: Domain, margin: float) -> None:
    """Refuse a margin that leaves ``check_b2`` no compact subset {d >= margin} of the domain."""
    if not 0.0 < margin < domain.R:
        raise ParameterError(f"margin must lie in (0, R); got margin={margin}, R={domain.R}", "margin")
    if domain.kind == "interval" and not margin < domain.R / 2.0:
        # the subset (margin, R - margin) is empty or reversed from R/2 on
        raise ParameterError(
            f"on an interval the margin must lie in (0, R/2); got margin={margin}, R/2={domain.R / 2.0}", "margin"
        )


def check_quad_nodes(quad_nodes: int) -> None:
    """Refuse a coarsest grid of fewer than 16 cells, for either check."""
    if quad_nodes < 16:
        raise ParameterError(f"quad_nodes must be at least 16; got {quad_nodes}", "quad_nodes")


def check_b2(weight, domain: Domain, margin: float, quad_nodes: int = 256, work: QuadWork | None = None) -> B2Report:
    """Integrate 1/w over the compact subset {d >= margin} with refinement.

    Composite midpoint quadrature at quad_nodes, 2*quad_nodes and
    4*quad_nodes points; the check passes when the finest estimate is
    finite and the last refinement moved it by less than 1e-3 relative.
    A monotone-growing sequence whose increments do not shrink is flagged
    divergent (the signature of a non-integrable 1/w), and so is a
    non-finite estimate of the interior-vanishing weight.  A non-finite
    estimate of a ``WeightFamily``, whose 1/w is bounded there, is refused
    naming R and margin.  This is a surrogate for local integrability,
    not a proof.

    The grids are built in ``work`` (see ``QuadWork``), or in arrays
    allocated for this call when it is None.
    """
    check_b2_margin(domain, margin)
    check_quad_nodes(quad_nodes)

    # each estimate builds its points in a prefix of the first 4n values; the
    # integrands build R - x a block at a time in the values after them, so
    # at most 8n values are used, as in check_a2
    n = 4 * quad_nodes
    size = n + min(n, _BLOCK)
    if work is None:
        work = QuadWork.allocate(size)
    values = work.values_for(size, "check_b2")
    points, gap = values[:n], values[n:]

    if isinstance(weight, InteriorVanishingWeight):
        if domain.kind != "interval":
            raise ParameterError("interior-vanishing test weights live on intervals")

        def integrand(x):
            return np.divide(1.0, weight.value_in_place(x), out=x)

        a, b = margin, domain.R - margin
    else:
        weight.validate_for_dimension(domain.N)

        def integrand(r):
            # r**(N-1) / tau(gap), the gap R - r on a ball and min(r, R - r)
            # on an interval, where N = 1 makes it 1 / tau(gap)
            for lo in range(0, r.size, _BLOCK):
                part = r[lo : lo + _BLOCK]
                g = np.subtract(domain.R, part, out=gap[: part.size])
                if domain.kind == "interval":
                    np.minimum(part, g, out=g)
                weight.tau_in_place(g, work.block)
                part **= domain.N - 1
                np.divide(part, g, out=part)
            return r

        a, b = (0.0 if domain.kind == "ball" else margin), domain.R - margin

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        estimates = [_midpoint(integrand, a, b, quad_nodes * k, work.half, points) for k in (1, 2, 4)]

    if not all(np.isfinite(estimates)):
        if isinstance(weight, WeightFamily):  # 1/w is bounded on {d >= margin}, so the float range overflowed
            raise ParameterError(
                f"integral of 1/w over {{d >= margin}} overflows the float range at R={domain.R}, margin={margin}",
                "R", "margin",
            )
        return B2Report(False, estimates[-1], math.inf, True)

    rel = abs(estimates[2] - estimates[1]) / max(abs(estimates[2]), 1e-300)
    passes = rel < 1e-3
    increments = (estimates[1] - estimates[0], estimates[2] - estimates[1])
    divergent = (not passes) and increments[1] > 0.0 and increments[1] > 0.5 * increments[0]
    return B2Report(passes, estimates[2], rel, divergent)


@dataclass(frozen=True)
class A2Report:
    """Outcome of the two-sided (Muckenhoupt-style) average surrogate."""

    passes: bool
    a2_estimate: float


def _refinement_verdict(estimates: list[float]):
    """Finest of the midpoint estimates at n, 2n, 4n, 8n cells, with a divergence verdict.

    Convergent-but-singular integrands (t**(-s), s < 1) have increments
    shrinking by 2**(s-1) per doubling, a logarithmic divergence keeps them
    constant, and a power divergence grows them; the increment ratio
    separates the three without needing a rate-specific tolerance.
    """
    if not all(math.isfinite(e) for e in estimates):
        return math.inf, True
    d = [estimates[i + 1] - estimates[i] for i in range(3)]
    drift = abs(d[-1]) / max(abs(estimates[-1]), 1e-300)
    same_sign = d[0] * d[1] > 0.0 and d[1] * d[2] > 0.0
    ratios = [abs(d[i + 1]) / max(abs(d[i]), 1e-300) for i in range(2)]
    divergent = same_sign and drift > 1e-10 and min(ratios) >= 0.97
    return estimates[-1], divergent


def check_a2(
    family: WeightFamily | InteriorVanishingWeight, R: float = 1.0, levels: int = 6, quad_nodes: int = 256,
    work: QuadWork | None = None,
) -> A2Report:
    """Two-sided average surrogate over boundary-touching gap intervals.

    For the one-dimensional profile tau on the boundary gap, estimates

        avg_I(tau) * avg_I(1/tau),   I = (0, R / 2**k),  k = 0..levels-1,

    and reports the largest product.  Each average is the mean of its
    midpoint values, not an integral divided by the interval's length, so
    a large R cannot overflow it.  Divergence of either average on any
    interval fails the check: the two-sided class is strictly smaller than
    integrability of 1/w alone (tau(t) = t**1.9 passes the latter in three
    dimensions but fails here).  Nothing downstream gates on this check;
    it is recorded next to the local-integrability surrogate because the
    nested-domain limit argument assumes the stronger two-sided class.
    Near the endpoints of an admissible range the quadrature converges
    slowly and deeper refinement may be needed; this is a desk-scale
    surrogate, not a proof.

    Each interval is integrated by the midpoint rule on n, 2n, 4n and 8n
    cells (n = quad_nodes).  The grids nest: on (0, R / 2**k) the grid of
    8n / 2**i cells is the first 8n / 2**i midpoints of the 8n-cell grid
    on (0, R / 2**(k-i)), bit for bit, since only powers of two are
    rescaled.  So tau is evaluated once on the largest grid of each scale
    s = k + log2(cells / n), and 1/tau is taken from the same values:
    7n + 8n*levels points (55n at six levels) instead of 30n*levels.
    The grids are built in ``work`` (see ``QuadWork``), or in arrays
    allocated for this call when it is None.
    """
    if not R > 0.0:
        raise ParameterError(f"R must be positive; got {R}")
    if levels < 1:
        raise ParameterError(f"levels must be at least 1; got {levels}")
    check_quad_nodes(quad_nodes)
    if isinstance(family, InteriorVanishingWeight):  # 1/w is not integrable across its zero
        return A2Report(False, math.inf)
    direct: list[list[float]] = [[] for _ in range(levels)]
    recip: list[list[float]] = [[] for _ in range(levels)]
    worst = 0.0
    # each scale fills a prefix of the work arrays, sized for the largest grid, 8n cells
    top = 8 * quad_nodes
    if work is None:
        work = QuadWork.allocate(top)
    half, values = work.half, work.values_for(top, "check_a2")
    with np.errstate(divide="ignore", over="ignore"):
        for s in range(levels + 3):
            # level k meets scale s with quad_nodes * 2**(s-k) cells; the
            # first such level has the largest grid, the others its prefixes
            grids = [(k, quad_nodes * 2 ** (s - k)) for k in range(max(s - 3, 0), min(s, levels - 1) + 1)]
            k, cells = grids[0]
            t = np.multiply(half[:cells], R / 2.0**k, out=values[:cells])
            t /= cells
            family.tau_in_place(t, work.block)
            for k, c in grids:
                direct[k].append(float(np.sum(t[:c]) / c))
            np.divide(1.0, t, out=t)
            for k, c in grids:
                recip[k].append(float(np.sum(t[:c]) / c))
            k = s - 3
            if k < 0:
                continue
            direct_k, div_direct = _refinement_verdict(direct[k])
            recip_k, div_recip = _refinement_verdict(recip[k])
            if div_direct or div_recip:
                return A2Report(False, math.inf)
            worst = max(worst, direct_k * recip_k)
    return A2Report(True, worst)


def catalogue_families(n_dim: int = 3) -> list[tuple[str, WeightFamily]]:
    """Representative admissible profiles for each family, for sweeps: those
    of the list below that ``validate_for_dimension(n_dim)`` accepts.

    Labels stay comma-free so they can sit in CSV cells unquoted.
    """
    upper = n_dim - 1
    catalogue = [
        ("constant", WeightFamily.constant()),
        ("power(-0.9)", WeightFamily.power(-0.9)),
        ("power(0.5)", WeightFamily.power(0.5)),
        (f"power({upper - 0.1:g})", WeightFamily.power(upper - 0.1)),
        ("power-log(0.5;1)", WeightFamily.power_log(0.5, 1.0)),
        ("power-log(-0.5;2)", WeightFamily.power_log(-0.5, 2.0)),
        ("log-negative(1)", WeightFamily.log_negative(1.0)),
        ("exp-deficit(-1)", WeightFamily.exp_deficit(-1.0)),
    ]
    admissible = []
    for label, family in catalogue:
        try:
            family.validate_for_dimension(n_dim)
        except ParameterError:
            continue
        admissible.append((label, family))
    return admissible
