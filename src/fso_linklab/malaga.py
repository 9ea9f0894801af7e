"""Composite irradiance fading for an optical link, with line-of-sight blockage.

The received irradiance is modeled as the product of a gamma-distributed
large-scale factor and a small-scale factor built from a coherent component
plus scattered power. That composite law is exactly a mixture of
generalized-K (gamma times gamma) channels: a finite mixture when the
small-scale shape ``beta`` is a natural number, an infinite negative-binomial
mixture otherwise. Blockage of the line of sight removes the coherent part
and leaves the purely scattered channel, so the blocked/unblocked composite
is a two-branch convex combination.

Everything here works on the mixture representation: build it once with
:func:`mixture_weights`, then evaluate densities, distribution functions and
Laplace transforms of the irradiance through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gammaln, gammasgn, kve, roots_laguerre

from .errors import (
    AccuracyError,
    DegenerateModelError,
    DegenerateParameterError,
    DomainError,
)
from .special_math import DEFAULT_BUDGET, AccuracyBudget, bessel_k_log, tricomi_u

_EPS = float(np.finfo(float).eps)

# series/quadrature switch for the generalized-K distribution function:
# past this value of B*x the ascending series loses digits to cancellation
_CDF_SERIES_LIMIT = 81.0

_INTEGER_GAP_TOL = 1e-9
_ALPHA_NUDGE = 1e-6

# (branch x point) pairs per broadcast call of a mixture law
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class MalagaParams:
    """Physical parameters of the composite fading law.

    alpha : float
        Large-scale shape, > 0.
    beta : float
        Small-scale shape, >= 1. Treated as natural when within 1e-9 of an
        integer, which selects the exact finite mixture.
    rho : float
        Fraction of scattered power coupled to the coherent component, in
        [0, 1]. rho = 1 is the end point of the same law: no uncoupled
        scatter is left, the unblocked channel is a single two-gamma branch
        of order beta and a blocked path receives nothing (see
        mixture_weights).
    omega : float
        Average power of the coherent component, >= 0.
    xi : float
        Total average scattered power, > 0.
    delta_phi : float
        Phase offset between the coherent and coupled scattered fields.
    normalize : bool
        When True (default) the power pair (omega, xi) is rescaled so the
        unblocked mean irradiance is exactly 1.
    """

    alpha: float
    beta: float
    rho: float
    omega: float
    xi: float
    delta_phi: float = 0.0
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 1.0:
            raise DomainError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"rho must be in [0, 1], got {self.rho}")
        if self.omega < 0.0:
            raise DomainError(f"omega must be >= 0, got {self.omega}")
        if self.xi <= 0.0:
            raise DomainError(f"xi must be > 0, got {self.xi}")

    @property
    def natural_beta(self) -> bool:
        return abs(self.beta - round(self.beta)) < _INTEGER_GAP_TOL

    def _raw_components(self) -> tuple[float, float, float]:
        xi_c = self.rho * self.xi
        xi_g = (1.0 - self.rho) * self.xi
        omega_prime = (
            self.omega + xi_c
            + 2.0 * math.sqrt(self.omega * xi_c) * math.cos(self.delta_phi)
        )
        return xi_c, xi_g, omega_prime

    @property
    def xi_g(self) -> float:
        """Scattered power not coupled to the coherent component (scaled)."""
        _, xi_g, omega_prime = self._raw_components()
        if self.normalize:
            return xi_g / (omega_prime + xi_g)
        return xi_g

    @property
    def omega_prime(self) -> float:
        """Average power of the coherent plus coupled-scatter field (scaled)."""
        _, xi_g, omega_prime = self._raw_components()
        if self.normalize:
            return omega_prime / (omega_prime + xi_g)
        return omega_prime

    @property
    def mean(self) -> float:
        """Mean irradiance of the unblocked channel."""
        return self.omega_prime + self.xi_g


@dataclass(frozen=True)
class BlockageConfig:
    """Line-of-sight blockage: the coherent path is lost with probability p_b."""

    p_b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_b <= 1.0:
            raise DomainError(f"p_b must be in [0, 1], got {self.p_b}")


@dataclass(eq=False)
class MixtureExpansion:
    """Generalized-K mixture representation of the unblocked channel.

    weights[j], means[j] describe the sub-channel of small-scale order
    orders[j]. alpha carries the (possibly nudged, see mixture_weights)
    large-scale shape used for every branch; xi_g is the mean of the blocked
    branch, 0 when that branch is an atom at zero (rho = 1). tail_mass is the
    weight mass beyond the last emitted branch of an infinite expansion, at
    most the epsilon it was built with.
    """

    weights: np.ndarray
    means: np.ndarray
    orders: np.ndarray
    alpha: float
    xi_g: float
    omega_prime: float
    beta: float
    p: float
    natural: bool
    tail_mass: float = 0.0


def coupling_probability(params: MalagaParams) -> float:
    """Success probability driving the mixture weights.

    Equals the share of the coherent-branch power in the total
    branch-weighted power; 0 when there is no coherent power, 1 in the
    fully coupled limit.
    """
    xi_g = params.xi_g
    omega_prime = params.omega_prime
    denom = omega_prime + params.beta * xi_g
    if denom == 0.0:
        raise DegenerateModelError("no received power: omega' and xi_g are both zero")
    return omega_prime / denom


def _nudged_alpha(alpha: float, orders: np.ndarray) -> float:
    # an integer gap alpha - k is a pole of the distribution-function series
    # for that branch; shift alpha by a hair off every such pole
    gaps = alpha - orders
    if np.any(np.abs(gaps - np.round(gaps)) < _INTEGER_GAP_TOL):
        return alpha + _ALPHA_NUDGE
    return alpha


def mixture_weights(
    params: MalagaParams, epsilon: float = 1e-8, k_max: int = 200
) -> MixtureExpansion:
    """Build the generalized-K mixture for the unblocked channel.

    Natural beta gives the exact binomial mixture of beta branches. Real
    beta gives the negative-binomial expansion, accumulated until the
    remaining weight mass is at most epsilon; weights are kept as computed,
    never renormalized. If that takes more than k_max branches, an
    AccuracyError reports the stranded tail mass instead of returning a
    silently biased expansion.

    rho = 1 is the end point of both: one two-gamma branch of order beta,
    weight 1 and mean omega', with xi_g = 0 marking the blocked branch as an
    atom at zero. alpha is nudged off every integer gap alpha - k with a
    branch order k.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if not params.natural_beta and epsilon > 1e-3:
        raise DomainError(
            f"epsilon must be <= 1e-3 for non-integer beta, got {epsilon}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    xi_g = params.xi_g
    omega_prime = params.omega_prime
    p = coupling_probability(params)
    beta = params.beta

    def expansion(weights, means, orders, tail_mass=0.0):
        return MixtureExpansion(
            weights=weights, means=means, orders=orders,
            alpha=_nudged_alpha(params.alpha, orders), xi_g=xi_g,
            omega_prime=omega_prime, beta=beta, p=p,
            natural=params.natural_beta, tail_mass=tail_mass)

    if xi_g == 0.0:
        return expansion(np.ones(1), np.array([omega_prime]), np.array([beta]))

    if params.natural_beta:
        n = int(round(beta))
        orders = np.arange(1, n + 1, dtype=float)
        # binomial weights over branch order, exact in log space
        lw = (
            gammaln(n) - gammaln(orders) - gammaln(n - orders + 1.0)
            + np.where(orders > 1, (orders - 1.0) * np.log(p if p > 0.0 else 1.0), 0.0)
            + np.where(orders < n, (n - orders) * np.log1p(-p if p < 1.0 else 0.0), 0.0)
        )
        weights = np.exp(lw)
        if p == 0.0:
            weights = np.zeros(n)
            weights[0] = 1.0
        elif p == 1.0:
            weights = np.zeros(n)
            weights[-1] = 1.0
        return expansion(weights, orders * (xi_g + omega_prime / n), orders)

    # negative-binomial expansion; weight of order k is
    # Gamma(beta+k-1)/(Gamma(k)Gamma(beta)) p^(k-1) (1-p)^beta
    lbeta = gammaln(beta)
    lp = np.log(p) if p > 0.0 else -np.inf
    l1p = beta * np.log1p(-p)
    weights_list: list[float] = []
    acc = 0.0
    k = 0
    while k < k_max:
        k += 1
        lw = gammaln(beta + k - 1.0) - gammaln(k) - lbeta + l1p
        if k > 1:
            lw += (k - 1.0) * lp
        w = math.exp(lw)
        weights_list.append(w)
        acc += w
        if 1.0 - acc <= epsilon:
            break
    tail = max(1.0 - acc, 0.0)
    if tail > epsilon:
        raise AccuracyError(
            f"negative-binomial expansion still holds {tail:.3e} weight "
            f"beyond k_max={k_max} branches (requested epsilon {epsilon:g}); "
            "raise k_max or relax epsilon")
    orders = np.arange(1, len(weights_list) + 1, dtype=float)
    return expansion(np.asarray(weights_list), orders * xi_g, orders, tail)


# ----------------------------------------------------------------------------
# generalized-K building blocks (product of two independent gamma factors)


def _broadcast_gk(arg, alpha: float, k, mean, what: str):
    """Validate and broadcast (arg, k, mean): the common shape, then each flat."""
    arg, k, mean = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (arg, k, mean)))
    if alpha <= 0.0 or np.any(k <= 0.0):
        raise DomainError("shape parameters must be > 0, got "
                          f"alpha={alpha}, k={k.min(initial=math.inf)}")
    if np.any(mean <= 0.0):
        raise DomainError(f"mean must be > 0, got {mean.min(initial=math.inf)}")
    if np.any(arg < 0.0):
        raise DomainError(f"{what} must be >= 0")
    return arg.shape, arg.ravel(), k.ravel(), mean.ravel()


def _shaped(out: np.ndarray, shape: tuple):
    return float(out[0]) if shape == () else out.reshape(shape)


def _gk_pdf_at_zero(alpha: float, k: float, b: float) -> float:
    # K_nu(x) ~ Gamma(|nu|)/2 (x/2)^-|nu| near 0 makes the density behave
    # like Gamma(|nu|) b^m i^(m-1) / (Gamma(alpha) Gamma(k)), m = min(alpha, k);
    # at nu = 0 a logarithm replaces Gamma(|nu|) and diverges for m = 1
    m = min(alpha, k)
    if m > 1.0:
        return 0.0
    if m < 1.0 or alpha == k:
        return math.inf
    return math.exp(gammaln(abs(alpha - k)) + math.log(b)
                    - gammaln(alpha) - gammaln(k))


def gk_pdf(i, alpha: float, k, mean):
    """Density of a generalized-K channel with the given shapes and mean.

    Broadcast over i, k and mean. The i = 0 endpoint is the distribution's
    limit, set by min(alpha, k): 0 above 1, finite at 1, infinite below 1
    and at alpha = k = 1.
    """
    shape, i, k, mean = _broadcast_gk(i, alpha, k, mean, "irradiance")
    b = alpha * k / mean
    h = 0.5 * (alpha + k)
    out = np.zeros(i.shape)
    zero = i == 0.0
    for idx in np.flatnonzero(zero):
        out[idx] = _gk_pdf_at_zero(alpha, float(k[idx]), float(b[idx]))
    pos = ~zero
    if np.any(pos):
        bp, hp, kp = b[pos], h[pos], k[pos]
        x = 2.0 * np.sqrt(bp * i[pos])
        ln_f = (
            np.log(2.0) + hp * np.log(bp) + (hp - 1.0) * np.log(i[pos])
            - gammaln(alpha) - gammaln(kp) + bessel_k_log(alpha - kp, x)
        )
        with np.errstate(under="ignore"):
            out[pos] = np.exp(ln_f)
    return _shaped(out, shape)


def _gk_cdf_tail_quad(z: float, alpha: float, k: float) -> float:
    # complement integral of the density in the Bessel variable u = 2 sqrt(B i)
    u0 = 2.0 * math.sqrt(z)
    ln_norm = math.log(2.0) - gammaln(alpha) - gammaln(k)
    nu = alpha - k

    def integrand(u: float) -> float:
        s = kve(nu, u)
        if s <= 0.0 or not np.isfinite(s):
            return 0.0
        ln_val = ln_norm + (alpha + k - 1.0) * math.log(0.5 * u) + math.log(s) - u
        return math.exp(ln_val) if ln_val > -745.0 else 0.0

    val, _ = integrate.quad(
        integrand, u0, np.inf, epsabs=1e-300, epsrel=1e-12, limit=200)
    return 1.0 - min(max(val, 0.0), 1.0)


@lru_cache(maxsize=8)
def _laguerre_nodes(n: int):
    return roots_laguerre(n)


def _tail_log_laguerre(z: np.ndarray, alpha: float, k: float, n: int) -> np.ndarray:
    # log of the complement integral, nodes shifted to start at u0
    nodes, weights = _laguerre_nodes(n)
    u0 = 2.0 * np.sqrt(z)
    u = u0[:, None] + nodes[None, :]
    ln_norm = math.log(2.0) - gammaln(alpha) - gammaln(k)
    with np.errstate(divide="ignore"):
        ln_g = (
            ln_norm + (alpha + k - 1.0) * np.log(0.5 * u)
            + np.log(kve(alpha - k, u)) + np.log(weights)[None, :]
        )
    top = np.max(ln_g, axis=1)
    return -u0 + top + np.log(np.sum(np.exp(ln_g - top[:, None]), axis=1))


def _gk_cdf_tail(z: np.ndarray, alpha: float, k: float,
                 rel_tol: float) -> np.ndarray:
    # vectorized complement with a coarse/fine quadrature disagreement check;
    # stragglers go to adaptive quadrature one by one
    lo = _tail_log_laguerre(z, alpha, k, 40)
    hi = _tail_log_laguerre(z, alpha, k, 64)
    out = 1.0 - np.exp(hi)
    bad = np.abs(hi - lo) > rel_tol
    for idx in np.flatnonzero(bad):
        out[idx] = _gk_cdf_tail_quad(float(z[idx]), alpha, k)
    return np.clip(out, 0.0, 1.0)


def gk_cdf(x, alpha: float, k, mean, budget: AccuracyBudget | None = None):
    """Distribution function of a generalized-K channel.

    Broadcast over x, k and mean, so a mixture passes its branch orders and
    means as a column against a row of points. Ascending two-series
    evaluation with a rounding guard, switching to quadrature of the
    complementary integral (once per distinct k) where the series cancels or
    the argument is large. The series has poles when alpha - k is an
    integer; that exact gap in any element raises DegenerateParameterError
    (mixtures built by mixture_weights are already nudged off it).
    """
    shape, x, k, mean = _broadcast_gk(x, alpha, k, mean, "irradiance")
    budget = budget or DEFAULT_BUDGET
    gap = alpha - k
    on_pole = np.abs(gap - np.round(gap)) < _INTEGER_GAP_TOL
    if np.any(on_pole):
        raise DegenerateParameterError(
            f"alpha - k = {gap[on_pole][0]} is an integer; "
            "nudge alpha (see mixture_weights)")
    out = np.zeros(x.shape)
    b = alpha * k / mean
    z = b * x
    inf_mask = np.isinf(x)
    out[inf_mask] = 1.0
    # the ascending series loses ~exp(2 sqrt(Z)) digits to cancellation, so
    # the cutover point depends on how much accuracy the budget demands; the
    # post-hoc guard still rechecks every value
    series_limit = _CDF_SERIES_LIMIT
    if budget.rel_tol > 1e4 * _EPS:
        series_limit = max(series_limit, (0.5 * math.log(budget.rel_tol / _EPS)) ** 2)
    series_mask = (z > 0.0) & (z <= series_limit) & ~inf_mask
    quad_mask = (z > series_limit) & ~inf_mask

    if np.any(series_mask):
        sm = np.flatnonzero(series_mask)
        zs, ks, gs = z[sm], k[sm], gap[sm]
        # series constants once per distinct order, on scalar math
        la = gammaln(alpha)
        orders, which = np.unique(ks, return_inverse=True)
        c1 = np.empty(len(orders))
        c2 = np.empty(len(orders))
        for j, order in enumerate(orders.tolist()):
            g = alpha - order
            lk = gammaln(order)
            c1[j] = gammasgn(g) * math.exp(gammaln(g) - la - lk)
            c2[j] = gammasgn(-g) * math.exp(gammaln(-g) - la - lk)
        lz = np.log(zs)
        t1 = c1[which] * np.exp(ks * lz) / ks
        t2 = c2[which] * np.exp(alpha * lz) / alpha
        acc = t1 + t2
        asum = np.abs(t1) + np.abs(t2)
        # accumulate with active-set compaction: converged entries retire
        # so per-iteration work tracks the slowest-converging arguments only
        active = np.arange(len(zs))
        for j in range(1, budget.max_terms):
            t1 = t1 * zs * (ks + j - 1.0) / ((ks + j) * (j - gs) * j)
            t2 = t2 * zs * (alpha + j - 1.0) / ((alpha + j) * (j + gs) * j)
            step = np.abs(t1) + np.abs(t2)
            acc[active] += t1 + t2
            asum[active] += step
            live = step > 1e-17 * np.abs(acc[active]) + 1e-300
            if not np.any(live):
                break
            if not np.all(live):
                t1, t2, zs, ks, gs = t1[live], t2[live], zs[live], ks[live], gs[live]
                active = active[live]
        guard = _EPS * asum / np.maximum(np.abs(acc), 1e-300)
        ok = (guard <= budget.rel_tol) & (acc >= -1e-12) & (acc <= 1.0 + 1e-9)
        out[sm[ok]] = np.clip(acc[ok], 0.0, 1.0)
        quad_mask[sm[~ok]] = True

    if np.any(quad_mask):
        qm = np.flatnonzero(quad_mask)
        for order in np.unique(k[qm]).tolist():
            sel = qm[k[qm] == order]
            out[sel] = _gk_cdf_tail(z[sel], alpha, order, budget.rel_tol)
    return _shaped(out, shape)


def gk_mgf(s, alpha: float, k, mean, budget: AccuracyBudget | None = None):
    """Laplace transform E[exp(-s I)] of a generalized-K channel, s >= 0.

    Closed form through the Tricomi function, one element at a time;
    inherits its degenerate-gap and accuracy behavior. Broadcast over s, k
    and mean.
    """
    shape, s, k, mean = _broadcast_gk(s, alpha, k, mean, "transform variable")
    budget = budget or DEFAULT_BUDGET
    out = np.empty(s.shape)
    for idx, (sv, kv, mv) in enumerate(zip(s.tolist(), k.tolist(), mean.tolist())):
        if sv == 0.0:
            out[idx] = 1.0
            continue
        z = alpha * kv / (mv * sv)
        if z > 1e60:
            # first-order expansion; the neglected terms are O((mean*s)^2)
            out[idx] = 1.0 - mv * sv
            continue
        out[idx] = math.exp(alpha * math.log(z)) * tricomi_u(
            alpha, alpha - kv + 1.0, z, budget)
    return _shaped(out, shape)


# ----------------------------------------------------------------------------
# mixture-level laws


def _point_blocks(points: int, branches: int) -> list[slice]:
    # cap each (branch x point) block near _BLOCK_ELEMENTS pairs so memory
    # grows with the grid, not with branches x grid
    step = max(1, _BLOCK_ELEMENTS // branches)
    return [slice(start, start + step) for start in range(0, points, step)]


def _mixture_apply(fn, arg, expansion: MixtureExpansion):
    # one broadcast call per block of (branch x point), then w * row summed
    # in branch order; branches of zero weight are never evaluated
    arg = np.asarray(arg, dtype=float)
    flat = arg.reshape(-1)
    live = expansion.weights != 0.0
    weights = expansion.weights[live]
    orders, means = expansion.orders[live, None], expansion.means[live, None]
    total = np.zeros(flat.size)
    for block in _point_blocks(flat.size, len(weights)):
        rows = fn(flat[None, block], expansion.alpha, orders, means)
        for w, row in zip(weights, rows):
            total[block] += w * row
    return float(total[0]) if arg.ndim == 0 else total.reshape(arg.shape)


def malaga_pdf(i, expansion: MixtureExpansion):
    """Density of the unblocked composite channel."""
    return _mixture_apply(gk_pdf, i, expansion)


def malaga_cdf(x, expansion: MixtureExpansion,
               budget: AccuracyBudget | None = None):
    """Distribution function of the unblocked composite channel."""
    return _mixture_apply(
        lambda a, al, k, mu: gk_cdf(a, al, k, mu, budget), x, expansion)


def malaga_mgf(s, expansion: MixtureExpansion,
               budget: AccuracyBudget | None = None):
    """Laplace transform of the unblocked composite channel."""
    return _mixture_apply(
        lambda a, al, k, mu: gk_mgf(a, al, k, mu, budget), s, expansion)


# an atom at zero has no density off the origin, all of its mass below any
# threshold, and a transform that is identically one
_ATOM_AT_ZERO = {"pdf": 0.0, "cdf": 1.0, "mgf": 1.0}


def _blocked_branch(kind: str, arg, expansion: MixtureExpansion,
                   budget: AccuracyBudget | None = None):
    """pdf, cdf or mgf of the channel left when the line of sight is blocked.

    Only uncoupled scatter remains: a generalized-K channel of small-scale
    order 1 with mean xi_g, or, when rho = 1 leaves none (xi_g = 0), an atom
    at zero.
    """
    if expansion.xi_g == 0.0:
        value = _ATOM_AT_ZERO[kind]
        shape = np.shape(arg)
        return value if shape == () else np.full(shape, value)
    if kind == "pdf":
        return gk_pdf(arg, expansion.alpha, 1.0, expansion.xi_g)
    fn = gk_cdf if kind == "cdf" else gk_mgf
    return fn(arg, expansion.alpha, 1.0, expansion.xi_g, budget)


def malaga_blockage_pdf(i, expansion: MixtureExpansion, blockage: BlockageConfig):
    """Density of the channel with random line-of-sight blockage.

    At rho = 1 this is the density of the continuous part only; the blocked
    probability sits in the atom at zero.
    """
    p_b = blockage.p_b
    blocked = _blocked_branch("pdf", i, expansion)
    return p_b * blocked + (1.0 - p_b) * malaga_pdf(i, expansion)


def malaga_blockage_cdf(x, expansion: MixtureExpansion, blockage: BlockageConfig,
                        budget: AccuracyBudget | None = None):
    """Distribution function of the channel with line-of-sight blockage."""
    p_b = blockage.p_b
    blocked = _blocked_branch("cdf", x, expansion, budget)
    return p_b * blocked + (1.0 - p_b) * malaga_cdf(x, expansion, budget)


def malaga_blockage_mgf(s, expansion: MixtureExpansion, blockage: BlockageConfig,
                        budget: AccuracyBudget | None = None):
    """Laplace transform of the channel with line-of-sight blockage."""
    p_b = blockage.p_b
    blocked = _blocked_branch("mgf", s, expansion, budget)
    return p_b * blocked + (1.0 - p_b) * malaga_mgf(s, expansion, budget)
