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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    BracketError,
    DegenerateParameterError,
    DomainError,
)
from .malaga import (
    BlockageConfig,
    MixtureExpansion,
    _columns,
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
        for name in ("gamma0", "gamma_th"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise DomainError(f"{name} must be finite and > 0, got {value}")

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
    of those pieces, each evaluated on its own, reproduces `exact` within
    the accuracy budget. gain_coeff is the
    coefficient of the gamma_n^(-1/2) law; it is None when the large-scale
    shape is <= 1, where that gain diverges, and at rho = 1, where the
    asymptote is the blockage floor plus the single branch's
    gamma_n^(-min(alpha, beta)/2) decay. asymptotic is None for
    alpha <= 1 below rho = 1 and for alpha = beta at rho = 1, the poles of
    those coefficients.
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
    if alpha <= 1.0:
        raise DomainError("gain coefficient diverges for alpha <= 1")
    lead = alpha / (alpha - 1.0)
    m1 = float(expansion.weights[0])
    mu1 = float(expansion.means[0])
    return lead * (blockage.p_b / expansion.xi_g + (1.0 - blockage.p_b) * m1 / mu1)


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
        # alpha = beta that coefficient has a pole and there is no asymptote.
        try:
            d, b = subchannel_diversity(alpha, float(expansion.orders[0]),
                                        float(expansion.means[0]))
        except DegenerateParameterError:
            return none, None
        coeff = b / math.gamma(d + 1.0)
        return np.array([p_b + (1.0 - p_b) * coeff * g ** (-d / 2.0)
                         for g in gamma_n]), None
    if alpha <= 1.0:
        return none, None
    gain = gain_coefficient(expansion, blockage)
    return gain * x, gain


def _thresholds(gamma_n) -> tuple[list[float], np.ndarray]:
    """Normalized SNRs as Python floats and the irradiance thresholds x."""
    gamma_n = np.asarray(gamma_n, dtype=float).ravel().tolist()
    if not all(g > 0.0 for g in gamma_n):
        raise DomainError("normalized SNR must be > 0")
    # per point on Python floats: np.power can land an ulp away from **
    return gamma_n, np.array([g ** -0.5 for g in gamma_n])


def _blockage_list(blockage) -> tuple[list[BlockageConfig], bool]:
    # one BlockageConfig, or a sequence of them evaluated against one channel
    if isinstance(blockage, BlockageConfig):
        return [blockage], True
    return list(blockage), False


def outage_exact(
    snr: SnrPoint,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    budget: AccuracyBudget | None = None,
) -> OutageResult:
    """Exact outage probability at one SNR point, with its decomposition."""
    gamma_n, x = _thresholds([snr.gamma_n])
    (blocked,), (unblocked,) = _columns("cdf", [x], [expansion], budget)
    p_b = blockage.p_b
    exact = p_b * blocked + (1.0 - p_b) * unblocked
    asym, gain = _asymptote(gamma_n, x, expansion, blockage)
    per = gk_cdf(x[0], expansion.alpha, expansion.orders, expansion.means, budget)
    rows = [(float(order), float(w), float(pk)) for order, w, pk
            in zip(expansion.orders, expansion.weights, per)]
    return OutageResult(
        exact=float(exact[0]),
        asymptotic=None if math.isnan(asym[0]) else float(asym[0]),
        gain_coeff=gain, blockage_pout=float(blocked[0]), per_subchannel=rows)


def outage_curve(
    gamma_n,
    expansion: MixtureExpansion,
    blockage: BlockageConfig | Sequence[BlockageConfig],
    budget: AccuracyBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact and asymptotic outage over a sequence of normalized SNRs.

    Returns two arrays with one value per gamma_n, equal bit for bit to
    outage_exact point by point; the asymptote is NaN where outage_exact
    reports None. blockage may also be a sequence of BlockageConfig: the
    channel is then evaluated once for all of them and both arrays have
    shape (len(blockage), len(gamma_n)).
    """
    blockages, single = _blockage_list(blockage)
    (exact, asym), = _curves(gamma_n, [expansion], blockages, budget)
    return (exact[0], asym[0]) if single else (exact, asym)


def _curves(gamma_n, expansions: Sequence[MixtureExpansion],
            blockages: list[BlockageConfig], budget: AccuracyBudget | None):
    """outage_curve's (exact, asym) pair for each channel, all from one _columns call.

    Both arrays of a pair have shape (len(blockages), len(gamma_n)).
    """
    gamma_n, x = _thresholds(gamma_n)
    blocked, unblocked = _columns("cdf", [x] * len(expansions), expansions, budget,
                                  [bl.p_b for bl in blockages])
    shape = (len(blockages), len(x))
    curves = []
    for expansion, b, u in zip(expansions, blocked, unblocked):
        exact = np.array([bl.p_b * b + (1.0 - bl.p_b) * u
                          for bl in blockages]).reshape(shape)
        asym = np.array([_asymptote(gamma_n, x, expansion, bl)[0]
                         for bl in blockages]).reshape(shape)
        curves.append((exact, asym))
    return curves


def subchannel_diversity(alpha: float, k: float, mean: float) -> tuple[float, float]:
    """Diversity order and gain coefficient of one generalized-K branch.

    The diversity order is d = min(alpha, k). The gain b is normalized as the
    transform-tail limit, s^d * E[exp(-s I)] -> b as s grows; equivalently
    the branch outage decays like (b / Gamma(d+1)) * gamma_n^(-d/2). For the
    order-1 branches driving the overall asymptote the two conventions
    coincide. Equal shapes sit on a pole of the coefficient and raise
    DegenerateParameterError.
    """
    # chained comparisons: NaN fails each, and inf fails the upper bound
    if not (0.0 < alpha < math.inf and 0.0 < k < math.inf and 0.0 < mean < math.inf):
        raise DomainError(f"alpha, k, mean must all be finite and > 0, got "
                          f"{alpha}, {k}, {mean}")
    gap = alpha - k
    if abs(gap) < 1e-9:
        raise DegenerateParameterError(
            f"alpha = k = {alpha}: branch gain has a pole")
    d = min(alpha, k)
    rate = alpha * k / mean
    if alpha < k:
        b = math.exp(math.lgamma(k - alpha) - math.lgamma(k) + alpha * math.log(rate))
    else:
        b = math.exp(math.lgamma(alpha - k) - math.lgamma(alpha) + k * math.log(rate))
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
    if expansion.alpha <= 1.0:
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
    blockage: BlockageConfig | Sequence[BlockageConfig],
    mode: str = "exact",
    budget: AccuracyBudget | None = None,
) -> float | np.ndarray:
    """Normalized SNR that hits a target outage probability.

    mode "exact" inverts the exact curve by root finding on the 0-200 dB
    bracket (answer matches the target to 1e-10 relative); "asymptotic"
    inverts the closed-form large-SNR law. Targets not reachable inside the
    bracket raise BracketError, a root search that does not converge raises
    AccuracyError. blockage may also be a sequence of BlockageConfig: the
    result is then an array with one root per blockage, the exact roots
    found together with one channel evaluation per search step.
    """
    if not 0.0 < target_pout < 1.0:
        raise DomainError(f"target outage must be in (0, 1), got {target_pout}")
    blockages, single = _blockage_list(blockage)
    if mode == "asymptotic":
        lo, hi = _GAMMA_N_BRACKET
        roots = []
        for bl in blockages:
            gamma_n = (gain_coefficient(expansion, bl) / target_pout) ** 2
            if not lo <= gamma_n <= hi:
                raise BracketError(f"asymptotic answer {gamma_n:.3e} at "
                                   f"p_b = {bl.p_b} falls outside [0, 200] dB")
            roots.append(gamma_n)
    elif mode == "exact":
        roots = [10.0 ** u for u in
                 _invert_exact(target_pout, [expansion], blockages, budget)[0]]
    else:
        raise DomainError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    return roots[0] if single else np.array(roots)


def _invert_exact(target_pout: float, expansions: Sequence[MixtureExpansion],
                  blockages: list[BlockageConfig],
                  budget: AccuracyBudget | None) -> list[list[float]]:
    """log10 gamma_n of each (channel, blockage) root, all Brent searches in lockstep.

    Every round evaluates the abscissae of all unfinished searches, of every
    channel, in one stacked _columns call; the bracket ends are shared by
    every search. The roots come back per channel, one per blockage.
    """
    log_target = math.log(target_pout)
    p_bs = [bl.p_b for bl in blockages]

    def columns(points):
        # (channel, abscissa) pairs -> (blocked, unblocked) pairs, in order
        per = [[] for _ in expansions]
        for c, u in points:
            per[c].append(10.0 ** u)
        blocked, unblocked = _columns("cdf", [_thresholds(g)[1] for g in per],
                                      expansions, budget, p_bs)
        values = [iter(zip(b.tolist(), m.tolist())) for b, m in zip(blocked, unblocked)]
        return [next(values[c]) for c, _ in points]

    def log_excess(blocked: float, unblocked: float, p_b: float) -> float:
        val = p_b * blocked + (1.0 - p_b) * unblocked
        if math.isnan(val):
            raise AccuracyError(f"outage at p_b = {p_b} evaluated to NaN")
        if val <= 0.0:
            return -745.0 - log_target
        return math.log(val) - log_target

    ua, ub = (math.log10(g) for g in _GAMMA_N_BRACKET)
    ends = columns([(c, u) for c in range(len(expansions)) for u in (ua, ub)])
    pairs = [(c, bl) for c in range(len(expansions)) for bl in blockages]
    searches = []
    for c, bl in pairs:
        f_lo = log_excess(*ends[2 * c], bl.p_b)
        f_hi = log_excess(*ends[2 * c + 1], bl.p_b)
        if f_lo < 0.0 or f_hi > 0.0:
            raise BracketError(f"target {target_pout} at p_b = {bl.p_b} not "
                               "reachable on the [0, 200] dB bracket")
        searches.append(_brent(ua, ub, f_lo, f_hi,
                               f"target {target_pout} at p_b = {bl.p_b}"))

    roots = [math.nan] * len(searches)
    values = dict.fromkeys(range(len(searches)))  # sending None starts a search
    while values:
        abscissae = {}
        for i, value in values.items():
            try:
                abscissae[i] = searches[i].send(value)
            except StopIteration as done:
                roots[i] = done.value
        if not abscissae:
            break
        found = columns([(pairs[i][0], u) for i, u in abscissae.items()])
        values = {i: log_excess(*bm, pairs[i][1].p_b) for i, bm in zip(abscissae, found)}
    return [roots[c * len(blockages):(c + 1) * len(blockages)]
            for c in range(len(expansions))]


_BRENT_XTOL, _BRENT_RTOL = 1e-11, 9e-16
_BRENT_MAXITER = 100


def _brent(xpre: float, xcur: float, fpre: float, fcur: float, what: str):
    """Brent's method on a sign-changing bracket, as a generator.

    Yields each abscissa to evaluate, is sent its function value, and
    returns the root. The steps are those of scipy's brentq (Brent 1973,
    ch. 4) operation for operation, so the roots agree bit for bit.
    """
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
    raise AccuracyError(f"root search for {what} did not converge in "
                        f"{_BRENT_MAXITER} iterations")
