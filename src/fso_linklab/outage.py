"""Outage probability, diversity behavior and blockage power penalties.

An outage happens when the instantaneous electrical SNR falls below a
threshold, which for an intensity-modulated link is the event that the
irradiance drops under gamma_n^(-1/2) with gamma_n the normalized SNR.
Exact values come from the mixture distribution function; large-SNR
behavior is captured by a diversity order and gain coefficient per
sub-channel, and the blockage cost is summarized as a decibel power
penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .errors import BracketError, DegenerateParameterError, DomainError
from .malaga import (
    _ALPHA_NUDGE,
    _INTEGER_GAP_TOL,
    BlockageConfig,
    MixtureExpansion,
    _blocked_branch,
    _point_blocks,
    gk_cdf,
)
from .special_math import AccuracyBudget

_GAMMA_N_BRACKET = (1.0, 1e20)  # 0 dB to 200 dB


@dataclass(frozen=True)
class SnrPoint:
    """Electrical SNR operating point: nominal gamma0 against threshold gamma_th."""

    gamma0: float
    gamma_th: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma0 <= 0.0:
            raise DomainError(f"gamma0 must be > 0, got {self.gamma0}")
        if self.gamma_th <= 0.0:
            raise DomainError(f"gamma_th must be > 0, got {self.gamma_th}")

    @property
    def gamma_n(self) -> float:
        """Normalized SNR, the single number the outage curves depend on."""
        return self.gamma0 / self.gamma_th

    @property
    def gamma_n_db(self) -> float:
        return 10.0 * math.log10(self.gamma_n)

    @classmethod
    def from_db(cls, gamma_n_db: float) -> "SnrPoint":
        return cls(gamma0=10.0 ** (gamma_n_db / 10.0), gamma_th=1.0)


@dataclass
class OutageResult:
    """Outage at one SNR point, with its large-SNR decomposition.

    per_subchannel rows are (order, weight, outage-of-that-branch);
    blockage_pout is the outage of the scatter-only blocked branch, 1 at
    rho = 1 where a blocked path receives nothing. The convex recombination
    of those pieces reproduces `exact` to rounding. gain_coeff is the
    coefficient of the gamma_n^(-1/2) law; it is None when the large-scale
    shape is <= 1, where that gain diverges, and at rho = 1, where the
    asymptote is the blockage floor plus the single branch's
    gamma_n^(-min(alpha, beta)/2) decay. asymptotic is None for
    alpha <= 1 below rho = 1 and for alpha = beta at rho = 1, an alpha that
    mixture_weights nudged off those poles included.
    """

    exact: float
    asymptotic: float | None
    gain_coeff: float | None
    blockage_pout: float
    per_subchannel: list[tuple[float, float, float]]


def gain_coefficient(expansion: MixtureExpansion, blockage: BlockageConfig) -> float:
    """Large-SNR gain coefficient of the blocked/unblocked combination.

    The outage behaves like gain * gamma_n^(-1/2) once gamma_n is large;
    both the blocked branch and the lowest mixture order decay with
    diversity 1/2 in SNR, so they set the coefficient together. At rho = 1
    the blocked branch is an atom at zero and there is no such law.
    """
    _require_scatter(expansion, "gain coefficient")
    alpha = expansion.alpha
    if _gain_diverges(alpha):
        raise DomainError("gain coefficient diverges for alpha <= 1")
    lead = alpha / (alpha - 1.0)
    m1 = float(expansion.weights[0])
    mu1 = float(expansion.means[0])
    return lead * (blockage.p_b / expansion.xi_g + (1.0 - blockage.p_b) * m1 / mu1)


def _on_nudged_pole(gap: float) -> bool:
    # mixture_weights moves alpha by _ALPHA_NUDGE off an integer gap; a gap
    # that close to zero is the pole itself, not a usable value
    return abs(gap) <= _ALPHA_NUDGE + _INTEGER_GAP_TOL


def _gain_diverges(alpha: float) -> bool:
    return alpha <= 1.0 or _on_nudged_pole(alpha - 1.0)


def _asymptote(gamma_n: list[float], x: np.ndarray, expansion: MixtureExpansion,
               blockage: BlockageConfig) -> tuple[np.ndarray, float | None]:
    """Large-SNR outage at each point (NaN where there is none), and the gain."""
    alpha = expansion.alpha
    p_b = blockage.p_b
    none = np.full(len(gamma_n), math.nan)
    if expansion.xi_g == 0.0:
        # a blocked path receives nothing, so blockage is an outage floor
        # over the single two-gamma branch; b is the transform-limit gain and
        # the outage coefficient carries an extra 1/Gamma(d+1). At
        # alpha = beta the Gamma(alpha - beta) pole swamps that coefficient.
        order, mean = float(expansion.orders[0]), float(expansion.means[0])
        if _on_nudged_pole(alpha - order):
            return none, None
        d, b = subchannel_diversity(alpha, order, mean)
        coeff = b / math.gamma(d + 1.0)
        return np.array([p_b + (1.0 - p_b) * coeff * g ** (-d / 2.0)
                         for g in gamma_n]), None
    if _gain_diverges(alpha):
        return none, None
    gain = gain_coefficient(expansion, blockage)
    return gain * x, gain


def _outage_parts(gamma_n, expansion: MixtureExpansion, blockage: BlockageConfig,
                  budget: AccuracyBudget | None):
    """Exact outage, blocked column, (branch x point) matrix, asymptote, gain.

    The (branch, point) pairs go through one broadcast gk_cdf call per block
    of points (one for any usual grid), the blocked branch through one more.
    """
    gamma_n = np.asarray(gamma_n, dtype=float).ravel().tolist()
    if not all(g > 0.0 for g in gamma_n):
        raise DomainError("normalized SNR must be > 0")
    # per point on Python floats: np.power can land an ulp away from **
    x = np.array([g ** -0.5 for g in gamma_n])
    p_b = blockage.p_b
    blocked = np.asarray(_blocked_branch("cdf", x, expansion, budget), dtype=float)
    orders, means = expansion.orders[:, None], expansion.means[:, None]
    per = np.empty((len(orders), len(x)))
    for block in _point_blocks(len(x), len(orders)):
        per[:, block] = gk_cdf(x[None, block], expansion.alpha, orders, means, budget)
    unblocked = np.zeros(len(x))
    for w, row in zip(expansion.weights, per):
        unblocked += w * row
    exact = p_b * blocked + (1.0 - p_b) * unblocked
    asym, gain = _asymptote(gamma_n, x, expansion, blockage)
    return exact, blocked, per, asym, gain


def outage_exact(
    snr: SnrPoint,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    budget: AccuracyBudget | None = None,
) -> OutageResult:
    """Exact outage probability at one SNR point, with its decomposition."""
    exact, blocked, per, asym, gain = _outage_parts(
        [snr.gamma_n], expansion, blockage, budget)
    rows = [(float(order), float(w), float(pk)) for order, w, pk
            in zip(expansion.orders, expansion.weights, per[:, 0])]
    return OutageResult(
        exact=float(exact[0]),
        asymptotic=None if math.isnan(asym[0]) else float(asym[0]),
        gain_coeff=gain, blockage_pout=float(blocked[0]), per_subchannel=rows)


def outage_curve(
    gamma_n,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    budget: AccuracyBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact and asymptotic outage over a sequence of normalized SNRs.

    Returns two arrays with one value per gamma_n, equal bit for bit to
    outage_exact point by point; the asymptote is NaN where outage_exact
    reports None.
    """
    exact, _, _, asym, _ = _outage_parts(gamma_n, expansion, blockage, budget)
    return exact, asym


def subchannel_diversity(alpha: float, k: float, mean: float) -> tuple[float, float]:
    """Diversity order and gain coefficient of one generalized-K branch.

    The diversity order is d = min(alpha, k). The gain b is normalized as the
    transform-tail limit, s^d * E[exp(-s I)] -> b as s grows; equivalently
    the branch outage decays like (b / Gamma(d+1)) * gamma_n^(-d/2). For the
    order-1 branches driving the overall asymptote the two conventions
    coincide. Equal shapes sit on a pole of the coefficient and raise
    DegenerateParameterError (nudge one shape).
    """
    if alpha <= 0.0 or k <= 0.0 or mean <= 0.0:
        raise DomainError("alpha, k, mean must all be > 0")
    gap = alpha - k
    if abs(gap) < 1e-9:
        raise DegenerateParameterError(
            f"alpha = k = {alpha}: branch gain has a pole, nudge a shape")
    d = min(alpha, k)
    rate = alpha * k / mean
    if alpha < k:
        b = math.exp(gammaln(k - alpha) - gammaln(k) + alpha * math.log(rate))
    else:
        b = math.exp(gammaln(alpha - k) - gammaln(alpha) + k * math.log(rate))
    return d, b


def asymptotic_outage(
    snr: SnrPoint, expansion: MixtureExpansion, blockage: BlockageConfig
) -> float:
    """First-order large-SNR outage, gain * gamma_n^(-1/2).

    The lowest mixture order is always populated and the blocked branch has
    order one as well, so the overall diversity order is 1 (slope one half
    decade of outage per 10 dB).
    """
    return gain_coefficient(expansion, blockage) * snr.gamma_n ** -0.5


def _require_scatter(expansion: MixtureExpansion, what: str) -> None:
    if expansion.xi_g == 0.0:
        raise DomainError(f"{what} needs rho < 1: at rho = 1 the blocked "
                          "branch is an atom at zero")


def _penalty_ratio(expansion: MixtureExpansion) -> float:
    _require_scatter(expansion, "power penalty")
    if _gain_diverges(expansion.alpha):
        raise DomainError("power penalty is defined through the large-SNR "
                          "asymptote, which needs alpha > 1")
    m1 = float(expansion.weights[0])
    mu1 = float(expansion.means[0])
    return mu1 / (expansion.xi_g * m1)


def power_penalty(expansion: MixtureExpansion, blockage: BlockageConfig) -> float:
    """Extra transmit power (dB) needed to hold the outage level under blockage.

    Ratio of the SNRs required with and without blockage at a fixed target,
    evaluated on the large-SNR asymptote where it no longer depends on the
    target itself.
    """
    r = _penalty_ratio(expansion)
    return 20.0 * math.log10(1.0 + blockage.p_b * (r - 1.0))


def max_power_penalty(expansion: MixtureExpansion) -> float:
    """Power penalty ceiling, reached when the line of sight is always blocked."""
    return 20.0 * math.log10(_penalty_ratio(expansion))


def required_gamma_n(
    target_pout: float,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    mode: str = "exact",
    budget: AccuracyBudget | None = None,
) -> float:
    """Normalized SNR that hits a target outage probability.

    mode "exact" inverts the exact curve by root finding on the 0-200 dB
    bracket (answer matches the target to 1e-10 relative); "asymptotic"
    inverts the closed-form large-SNR law. Targets not reachable inside the
    bracket raise BracketError.
    """
    if not 0.0 < target_pout < 1.0:
        raise DomainError(f"target outage must be in (0, 1), got {target_pout}")
    lo, hi = _GAMMA_N_BRACKET
    if mode == "asymptotic":
        gain = gain_coefficient(expansion, blockage)
        gamma_n = (gain / target_pout) ** 2
        if not lo <= gamma_n <= hi:
            raise BracketError(
                f"asymptotic answer {gamma_n:.3e} falls outside [0, 200] dB")
        return gamma_n
    if mode != "exact":
        raise DomainError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")

    def log_excess(u: float) -> float:
        point = SnrPoint(gamma0=10.0 ** u)
        val = outage_exact(point, expansion, blockage, budget).exact
        if val <= 0.0:
            return -745.0 - math.log(target_pout)
        return math.log(val) - math.log(target_pout)

    f_lo = log_excess(math.log10(lo))
    f_hi = log_excess(math.log10(hi))
    if f_lo < 0.0 or f_hi > 0.0:
        raise BracketError(
            f"target {target_pout} not reachable on the [0, 200] dB bracket")
    u = brentq(log_excess, math.log10(lo), math.log10(hi), xtol=1e-11, rtol=9e-16)
    return 10.0 ** u
