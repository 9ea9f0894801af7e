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
Laplace transforms of the irradiance through it. All three are one integral
over the small-scale factor, taken for the whole expansion at once by a
log-trapezoid kernel that refines each point until its error estimate meets
the accuracy budget.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DegenerateModelError, DomainError
from .special_math import DEFAULT_BUDGET, AccuracyBudget, _incomplete_gamma
# not called here: a forwarder to scipy's Bessel function, which
# bench/spans.py traces where this module binds it
from .special_math import kve  # noqa: F401

_EPS = float(np.finfo(float).eps)

_INTEGER_GAP_TOL = 1e-9
_K_MAX = 200  # branches a real-beta expansion may take, k_max


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
        # chained comparisons: NaN fails each, and inf fails the upper bound
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 1.0 <= self.beta < math.inf:
            raise DomainError(f"beta must be finite and >= 1, got {self.beta}")
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.omega < math.inf:
            raise DomainError(f"omega must be finite and >= 0, got {self.omega}")
        if not 0.0 < self.xi < math.inf:
            raise DomainError(f"xi must be finite and > 0, got {self.xi}")
        if not math.isfinite(self.delta_phi):
            raise DomainError(f"delta_phi must be finite, got {self.delta_phi}")

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
    orders[j]. alpha is the large-scale shape of every branch, as given;
    xi_g is the mean of the blocked branch, 0 when that branch is an atom at
    zero (rho = 1). tail_mass is the weight mass beyond the last emitted
    branch of an infinite expansion, at most the epsilon it was built with.
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


def mixture_weights(params: MalagaParams, epsilon: float = 1e-8) -> MixtureExpansion:
    """Build the generalized-K mixture for the unblocked channel.

    Natural beta gives the exact binomial mixture of beta branches. Real
    beta gives the negative-binomial expansion, each weight the running
    ratio w_k = w_(k-1) p (beta + k - 2) / (k - 1) from w_1 = (1 - p)^beta,
    accumulated until the remaining weight mass is at most epsilon; weights
    are kept as computed, never renormalized. If that takes more than
    k_max = 200 branches, an AccuracyError reports the stranded tail mass
    instead of returning a silently biased expansion.

    rho = 1 is the end point of both: one two-gamma branch of order beta,
    weight 1 and mean omega', with xi_g = 0 marking the blocked branch as an
    atom at zero. alpha is kept as given.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if not params.natural_beta and epsilon > 1e-3:
        raise DomainError(
            f"epsilon must be <= 1e-3 for non-integer beta, got {epsilon}")
    xi_g = params.xi_g
    omega_prime = params.omega_prime
    p = coupling_probability(params)
    beta = params.beta
    # 1 - p formed without the subtraction, which near rho = 1 would leave
    # it with a relative error of eps / (1 - p)
    q = beta * xi_g / (omega_prime + beta * xi_g)

    def expansion(weights, means, orders, tail_mass=0.0):
        return MixtureExpansion(
            weights=weights, means=means, orders=orders,
            alpha=params.alpha, xi_g=xi_g,
            omega_prime=omega_prime, beta=beta, p=p,
            natural=params.natural_beta, tail_mass=tail_mass)

    if xi_g == 0.0:
        return expansion(np.ones(1), np.array([omega_prime]), np.array([beta]))

    if params.natural_beta:
        n = int(round(beta))
        orders = np.arange(1, n + 1, dtype=float)
        # binomial weights over branch order, exact in log space
        lw = (
            np.array([math.log(math.comb(n - 1, j)) for j in range(n)])
            + np.where(orders > 1, (orders - 1.0) * np.log(p if p > 0.0 else 1.0), 0.0)
            + np.where(orders < n, (n - orders) * np.log(q if q > 0.0 else 1.0), 0.0)
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
    # Gamma(beta+k-1)/(Gamma(k)Gamma(beta)) p^(k-1) (1-p)^beta, formed as a
    # running ratio: a difference of log gammas would lose digits with k
    w = q ** beta
    weights_list = [w]
    acc = w
    k = 1
    while 1.0 - acc > epsilon and k < _K_MAX:
        w *= p * (beta + k - 1.0) / k
        k += 1
        weights_list.append(w)
        acc += w
    tail = max(1.0 - acc, 0.0)
    if tail > epsilon:
        raise AccuracyError(
            f"negative-binomial expansion still holds {tail:.3e} weight "
            f"beyond k_max={_K_MAX} branches (requested epsilon {epsilon:g}); "
            "relax epsilon")
    orders = np.arange(1, len(weights_list) + 1, dtype=float)
    return expansion(np.asarray(weights_list), orders * xi_g, orders, tail)


# ----------------------------------------------------------------------------
# generalized-K building blocks (product of two independent gamma factors)


def _checked(arg, alpha: float, what: str) -> np.ndarray:
    """arg as floats, once it and alpha are checked."""
    # chained comparisons: NaN fails each, and inf fails the upper bound
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and > 0, got {alpha}")
    arg = np.asarray(arg, dtype=float)
    # a NaN fails the one test too: a minimum with a NaN is NaN
    if not arg.min(initial=0.0) >= 0.0:
        raise DomainError(f"{what} must be >= 0" if (arg < 0.0).any()
                          else f"{what} must not be NaN")
    return arg


def _broadcast_gk(arg, alpha: float, k, mean, what: str):
    """Validate and broadcast (arg, k, mean): the common shape, then each flat."""
    arg = _checked(arg, alpha, what)
    k, mean = np.asarray(k, dtype=float), np.asarray(mean, dtype=float)
    for name, v in (("k", k), ("mean", mean)):
        bad = ~((0.0 < v) & (v < math.inf))  # as for alpha
        if np.any(bad):
            raise DomainError(f"{name} must be finite and > 0, got {v[bad][0]}")
    arg, k, mean = np.broadcast_arrays(arg, k, mean)
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
    return math.exp(math.lgamma(abs(alpha - k)) + math.log(b)
                    - math.lgamma(alpha) - math.lgamma(k))


# ----------------------------------------------------------------------------
# conditional-integral kernel for the density, the distribution function and
# the transform
#
# A generalized-K mixture is I = A * Y with A ~ Gamma(alpha, 1/alpha) and
# Y = theta * T, T ~ sum_k w_k Gamma(k, 1): every branch of an expansion
# shares the scale theta = mean / order. Given Y = y, the large-scale factor
# leaves the density f_A(x / y) / y at x, P(alpha, alpha x / y) below x and
# (1 + s y / alpha)^-alpha as the transform, so all three laws are one smooth
# integral over u = log(y / theta), with no pole at any shape. The trapezoid
# rule on the lattice u_j = j h converges exponentially in 1/h on such
# integrands (Trefethen & Weideman, SIAM Review 56, 2014); the rule on the
# even nodes (step 2h) is the error estimate.
#
# Many channels go through the kernel in one call: each is a row of branch
# weights and orders, shaped (G, K), and each point names its row and its
# own theta. A blocked branch is one more row, a single order-1 branch at
# scale xi_g, so a blockage law is one pass whatever theta its mixture has.
# A value depends only on its own point and row: each point sums, in node
# order (_in_order), the closed-form tail left of its own window (none for
# the density), one power series in t per row, and then the window's nodes;
# terms outside it are exactly zero, and a point over budget is redone at
# h / 2 by itself. From their second call on, a set of rows keeps its
# set-up, node weights and tail sums between calls (_Tables).

_H0 = 0.125
_HALVINGS = 5
# e-folds below its peak that a window leaves out on the right (and, for the
# density, on the left)
_TAIL_EFOLDS = 50.0
# on the left, nodes up to u = _TAIL_U (at most) sum in closed form: each
# e^-t is its Taylor series, each power of t a geometric series
_TAIL_U = -2.0
_TAYLOR = np.cumprod(np.r_[1.0, -1.0 / np.arange(1.0, 12.0)])  # (-1)^m / m!
# (point x node) pairs per block of the kernel
_KERNEL_ELEMENTS = 1 << 16
# below this s * E[I] the transform is 1 - s E[I] to double precision
_MGF_LINEAR = 1e-10
# a point whose sum is below this is taken as it stands: its terms reach the
# subnormal range, where doubles keep no relative accuracy to check
_FLUSH = 1e-290
# past alpha r = _FAR every density is 0 and every cdf its mass in doubles,
# and below it 4 alpha r (_saddle_window) is finite
_FAR = 1e300
# the smallest normal double
_TINY = 2.2250738585072014e-308
_ARG = {"pdf": "irradiance", "cdf": "irradiance", "mgf": "transform variable"}
# the degree of _gamma_table's Taylor rows, and the series terms below them
_TAYLOR_DEGREE = 8
_SERIES_TERMS = 4
# e-folds of z the table reaches below the point where the series terms are
# exact: past the kernel's deepest argument on a 0-200 dB outage grid (about
# log z = -26), so the kernel seldom takes the slower series branch
_TABLE_DEPTH = 32.0


def _in_order(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over an axis, adding one term after the other.

    np.sum adds pairwise, so its last bits would depend on how many terms
    (zeros included) a sum spans; a running total does not.
    """
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def _efold_bound(c):
    """c + L + sqrt(2 c L) with L = _TAIL_EFOLDS, elementwise.

    It bounds the root z > c of z - c - c log(z / c) = L from above (as
    e^a >= 1 + a + a^2 / 2): past that root t^c e^-t is L e-folds below its
    peak at t = c.
    """
    return c + _TAIL_EFOLDS + np.sqrt(2.0 * c * _TAIL_EFOLDS)


@lru_cache(maxsize=256)
def _upper_log(k: float) -> float:
    """log t past which t^k e^-t is _TAIL_EFOLDS e-folds below its peak at k.

    By the Chernoff bound Q(k, t) <= exp(-(t - k - k log(t / k))), it is
    also where P(k, t) is 1.0 in doubles.
    """
    # t - k - k log(t / k) = L is convex in t; Newton from a start above it
    t = _efold_bound(k)
    for _ in range(40):
        f = t - k - k * math.log(t / k) - _TAIL_EFOLDS
        t -= f / (1.0 - k / t)
    return math.log(t)


def _saddle_window(log_ar: np.ndarray, alpha: float,
                   k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u range outside which each branch's density integrand is negligible.

    In u the integrand of order k is t^(k - alpha) e^(-t - alpha r / t):
    log-concave, with its peak at t* = ((k - alpha) + sqrt((k - alpha)^2
    + 4 alpha r)) / 2. Right of t* its log falls at least by
    t - t* - t* log(t / t*), left of it by the same form in alpha r / t, so
    _efold_bound places both ends. The lowest order sets the left end, the
    top order the right one: k holds each point's two, shaped (2, points).
    log_ar = log(alpha r).
    """
    ar = np.exp(log_ar)
    d = k - alpha
    root = np.sqrt(d * d + 4.0 * ar)
    peak = np.where(d > 0.0, 0.5 * (d + root), 2.0 * ar / (root + np.abs(d)))
    peak[0] = ar / peak[0]
    left, right = np.log(_efold_bound(peak))
    return log_ar - left, right


@lru_cache(maxsize=16)
def _gamma_table(a: float) -> tuple:
    """Taylor coefficients of g(v) = P(a, e^v) at the nodes v_i = i step,
    from v_0 to the first node past _upper_log(a), whose are (1, 0, ...).

    coef[j, i] = g^(j)(v_i) / j!: P(a, z_i) for j = 0 and, as g' = f =
    z^a e^-z / Gamma(a), f B_(j-1)(z_i) / j! with B_0 = 1 and
    B_(j+1) = z B_j' + (a - z) B_j. g's relative derivatives reach a^j in
    the left tail, so step = 2^-k <= min(1/32, 1/(8a)) keeps the remainder
    below eps / 4 within step / 2 of a node, and v - v_i is exact. Below
    v_0 the first _SERIES_TERMS terms of the series are exact, or P is not
    a normal double (Chernoff: P(a, a e^-s) <= e^(-a s^2 / (2 + s))).
    Returns step, the index of v_0, coef, v_0, z_0 and the series' leading
    term f(z_0) / a.
    """
    step = 2.0 ** -max(5, math.ceil(math.log2(a)) + 3)
    rising = math.prod(a + n for n in range(1, _SERIES_TERMS + 1))
    v_series = math.log(0.25 * _EPS * rising) / _SERIES_TERMS
    level = -math.log(np.finfo(float).tiny)
    v_under = math.log(a) - (level + math.sqrt(level * level + 8.0 * a * level)) / (2.0 * a)
    lo = math.floor(max(v_series - _TABLE_DEPTH, v_under) / step)
    v = np.arange(lo, math.ceil(_upper_log(a) / step) + 1) * step
    z = np.exp(v.astype(np.longdouble))
    f, p, _ = _incomplete_gamma(a, z)
    coef = np.empty((_TAYLOR_DEGREE + 1, v.size))
    coef[0] = p
    b = np.ones(1)  # B_j's coefficients, lowest power first
    for j in range(1, _TAYLOR_DEGREE + 1):
        coef[j] = f * np.polynomial.polynomial.polyval(z, b) / math.factorial(j)
        b = np.r_[(np.arange(b.size) + a) * b, 0.0] - np.r_[0.0, b]
    coef[:, -1] = 0.0
    coef[0, -1] = 1.0
    coef.flags.writeable = False  # every caller shares the cached table
    return step, lo, coef, v[0], float(z[0]), float(f[0] / a)


def _lower_gamma(a: float, log_z: np.ndarray) -> np.ndarray:
    """P(a, e^log_z) at each point, from that point alone.

    Horner's rule on the coefficients of the _gamma_table node nearest to
    log z; below the table the series' first _SERIES_TERMS terms, scaled
    from its first node.
    """
    step, lo, coef, v0, z0, lead = _gamma_table(a)
    i = np.rint(log_z * (1.0 / step))
    d = log_z - i * step
    # a point below the table takes its first node's coefficients, and is
    # then set from the series
    rows = (i - lo).astype(np.intp)
    p = coef[-1].take(rows, mode="clip")
    for c in coef[-2::-1]:
        p *= d
        p += c.take(rows, mode="clip")
    if log_z.min(initial=v0) < v0:
        low = log_z < v0
        w = log_z[low]
        z = np.exp(w)
        s = 1.0
        for n in range(_SERIES_TERMS - 1, 0, -1):
            s = 1.0 + s * z / (a + n)
        p[low] = lead * np.exp(a * (w - v0) - (z - z0)) * s
    return p


def _conditional(kind: str, log_ar: np.ndarray, u: np.ndarray, alpha: float,
                 inside: np.ndarray) -> np.ndarray:
    """What the large-scale factor leaves given T = t = e^u in the window, else 0.

    With z = alpha r / t, log_ar = log(alpha r): z times the Gamma(alpha, 1)
    density at z for the pdf (x times the density at x), P(alpha, z) for
    the cdf, from log z, and (1 + t / (alpha r))^-alpha for the mgf, with
    log(1 + t / (alpha r)) formed from u - log_ar, so no quotient overflows.
    """
    if kind == "mgf":
        return np.where(inside, np.exp(-alpha * np.logaddexp(0.0, u - log_ar)), 0.0)
    log_z = log_ar - u
    if kind == "pdf":
        return np.where(inside, np.exp(alpha * log_z - np.exp(log_z) - math.lgamma(alpha)),
                        0.0)
    out = inside.astype(float)
    # the table only where P is not exactly 1.0
    need = inside & (log_z < _upper_log(alpha))
    out[need] = _lower_gamma(alpha, log_z[need])
    return out


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) for a flat array.

    The sorted distinct keys, and where each key sits among them, without
    np.unique's general set-up, which on the kernel's short arrays costs
    more than the work.
    """
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(keys.size, dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return ordered[new], inverse


def _left_tail(log_w: np.ndarray, k_lo: np.ndarray):
    """Sum of q_j = h sum_k exp(log_w_k + k u_j - t_j) over the nodes j <= last.

    log_w are channel rows (G, K) whose live orders run k_lo, k_lo + 1, ...
    (padding is log 0 = -inf). With e^-t its Taylor series (_TAYLOR) a row
    is one power series sum_n c_n t^(k_lo + n), c its w_k / Gamma(k)
    convolved with _TAYLOR, each power a geometric series over the lattice.
    c is formed once, here; tail(last, at, h) sums row at[p] up to node
    last[p] once per distinct (row, last) pair, in degree order. The sum
    over every other node, last, last - 2, ..., is half of the sum at step
    2 h up to node last / 2, bit for bit: each term at step 2 h is exactly
    twice its node's term at step h.
    """
    weights = np.exp(log_w)
    coef = np.zeros((len(log_w), log_w.shape[1] + len(_TAYLOR) - 1))
    for m, c in enumerate(_TAYLOR):
        coef[:, m:m + log_w.shape[1]] += c * weights
    powers = k_lo[:, None] + np.arange(coef.shape[1])

    def tail(last: np.ndarray, at: np.ndarray, h: float) -> np.ndarray:
        lo = last.min()
        span = int(last.max() - lo) + 1
        pairs, inv = _distinct(at * span + (last - lo).astype(int))
        rows, ends = np.divmod(pairs, span)
        series = coef * (h / -np.expm1(-h * powers))
        terms = np.exp(powers[rows] * ((ends + lo) * h)[:, None]) * series[rows]
        return _in_order(terms)[inv]

    return tail


def _node_weights(log_w: np.ndarray, orders: np.ndarray, h: float, u: np.ndarray,
                  t: np.ndarray) -> np.ndarray:
    """h sum_k exp(log_w_k + k u_j - t_j) at the nodes u_j, t_j = e^u_j, rows (G, K).

    Each node's terms are formed elementwise and summed in order, so a
    weight does not depend on which nodes or rows it is formed with.
    """
    return h * _in_order(np.exp(log_w[:, :, None] + orders[:, :, None] * u - t), axis=1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# what an entry of the tables costs beyond its arrays' data: a set of rows,
# a lattice step's node weights or a stride's left-tail sums
_ENTRY_BYTES = 100


def _padded(key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The rows (G, K) a key of weight and order bytes names (empty: one order-1
    branch), each row's nonzero weights padded with zeros and its top order."""
    rows = []
    for w, k in key:
        w, k = (np.frombuffer(w), np.frombuffer(k)) if w else (np.ones(1), np.ones(1))
        live = w != 0.0
        rows.append((w[live], k[live]))
    weights = np.zeros((len(rows), max(w.size for w, _ in rows)))
    orders = np.empty(weights.shape)
    for i, (w, k) in enumerate(rows):
        weights[i, :w.size] = w
        orders[i] = k[-1]
        orders[i, :k.size] = k
    return weights, orders


class _RowTables:
    """One set of kernel rows (G, K): its constants and tables, shared by every call on it.

    key names the rows (_padded); None marks an entry that is not kept.
    weights and orders are the padded rows and log_w = log(w_k / Gamma(k))
    (a padded branch has log 0 = -inf). Per row: mass and mean are
    sum_k w_k and sum_k w_k k, k_ends the lowest and the top order,
    width the branches before the padding, top the log t of the top
    order's right window edge (_upper_log) and tail the rows' _left_tail;
    floor is the largest rounding floor over _EPS. A set seen once holds
    its key alone (weights None); an entry not kept forms top and tail
    only for a kind that reads them. nodes[h] = (i0, q) holds the node
    weights at lattice step h on the nodes i0, i0 + 1, ..., shaped (G,
    nodes), and sums[h] = (i0, s) the left-tail sums at step h up to the
    same nodes; NaN marks a value not formed yet. nbytes counts the
    arrays' bytes (16 a row and term for the tail's coefficients and
    powers), the key's, and _ENTRY_BYTES for the set and for each table.
    The arrays are read-only: new values replace an array with a merged
    copy.
    """

    __slots__ = ("key", "weights", "orders", "log_w", "floor", "mass", "mean", "k_ends",
                 "width", "top", "tail", "nodes", "sums", "nbytes")

    def __init__(self, key: tuple | None, rows: tuple | None = None, kind: str | None = None):
        self.key, self.weights, self.nodes, self.sums = key, None, {}, {}
        self.nbytes = _ENTRY_BYTES + sum(len(w) + len(k) for w, k in key or ())
        if rows is not None:
            self.form(*rows, kind)

    def form(self, weights: np.ndarray, orders: np.ndarray, kind: str | None = None) -> None:
        """Form the rows' constants; top and tail only if kind (None: any) reads them."""
        # each node's log-density carries log Gamma(k) and t ~ k, so the
        # relative rounding of a term grows with its row's top order
        log_gamma = np.fromiter(map(math.lgamma, orders.ravel().tolist()), float,
                                orders.size).reshape(orders.shape)
        with np.errstate(divide="ignore"):
            self.log_w = np.log(weights) - log_gamma
        self.weights, self.orders = weights, orders
        self.k_ends = np.stack([orders.min(axis=1), orders.max(axis=1)])
        # orders run 1, 2, ..., or are one value: log Gamma is largest at the top
        self.floor = float((32.0 + self.k_ends[1] + log_gamma.max(axis=1)).max(initial=0.0))
        self.mass, self.mean = _in_order(weights), _in_order(weights * orders)
        self.width = (self.log_w > -np.inf).sum(axis=1)
        self.top = self.tail = None
        if kind != "pdf":
            self.top = np.array([_upper_log(k) for k in self.k_ends[1].tolist()])
            self.tail = _left_tail(self.log_w, self.k_ends[0])


class _Tables:
    """The tables of kernel row sets by content, least recently used first.

    A set is found by its rows' weights and orders, not by their channels'
    theta. From its second call on, the blocks and halvings of a call, the
    rounds of a root search and later calls on the same channels share its
    constants, node weights and left-tail sums. Every value is formed
    elementwise and summed in order, so it has the same bits whichever
    call, block or halving first forms it, and no result depends on what
    the tables hold. Past budget bytes the least recently used sets are
    dropped; a call that still holds one goes on using it. The tables are
    one per module, shared by every thread that evaluates laws: values are
    formed outside the lock, which guards only finding sets, forming their
    constants and merging values in (two threads may form one value twice,
    with the same bits).
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self.sets: OrderedDict[tuple, _RowTables] = OrderedDict()
        self._lock = threading.Lock()

    def find(self, key: tuple, kind: str) -> _RowTables:
        """The entry of the row set key, kept from the set's second call on.

        A first call only records the set, and gets an entry that is not
        kept: it forms what kind needs, as at a call without tables.
        """
        with self._lock:
            entry = self.sets.get(key)
            if entry is not None:
                self.sets.move_to_end(key)
                if entry.weights is None:
                    entry.form(*_padded(key))
                    arrays = (entry.weights, entry.orders, entry.log_w, entry.mass, entry.mean,
                              entry.k_ends, entry.width, entry.top)
                    # the tail's coefficients and powers: rows of K + _TAYLOR.size - 1
                    self._charge(entry, sum(_frozen(a).nbytes for a in arrays) + 16 * len(
                        entry.log_w) * (entry.log_w.shape[1] + _TAYLOR.size - 1))
                return entry
            entry = self.sets[key] = _RowTables(key)
            self.nbytes += entry.nbytes
            self._evict()
        return _RowTables(None, _padded(key), kind)

    def _evict(self) -> None:
        while self.nbytes > self.budget and self.sets:
            self.nbytes -= self.sets.popitem(last=False)[1].nbytes

    def _charge(self, entry: _RowTables, nbytes: int) -> None:
        # under the lock; what a dropped set gains counts for nothing
        entry.nbytes += nbytes
        if self.sets.get(entry.key) is entry:
            self.nbytes += nbytes
            self._evict()

    def merge(self, entry: _RowTables, table: dict, key, row: np.ndarray, i: np.ndarray,
              values: np.ndarray) -> None:
        """Write values at (row, i), broadcast together, into table[key].

        The array grows to the union of the indices it holds and those
        written, unless it would outgrow the whole budget; a dropped set's
        arrays count for nothing.
        """
        lo, hi = int(i.min()), int(i.max()) + 1
        with self._lock:
            i0, held = table.get(key, (lo, None))
            width = 0 if held is None else held.shape[1]
            lo, hi = min(lo, i0), max(hi, i0 + width)
            n_rows = len(entry.weights)
            if 8 * n_rows * (hi - lo) > self.budget:
                return
            merged = np.full((n_rows, hi - lo), math.nan)
            if held is not None:
                merged[:, i0 - lo:i0 - lo + width] = held
            merged[row, i - lo] = values
            table[key] = (lo, _frozen(merged))
            self._charge(entry, merged.nbytes + (_ENTRY_BYTES if held is None
                                                 else -held.nbytes))


# the realbeta-sweep benchmark workload holds about 30 kB of tables (two row
# sets), paper-figures about 0.4 MB (ten)
_TABLES = _Tables(budget=2 << 20)


def _block_weights(entry: _RowTables, at: np.ndarray, h: float, j: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """h y f(y) on a block's nodes j (u = j h) for the row of each point at[p].

    Shaped (points, nodes), or (1, nodes) when every point is in one row.
    When the entry holds every node the block asks for, the weights are one
    gather. Otherwise the block's rows form what is missing, rows of one
    width together, each over its own branches (no padding), and a kept
    entry keeps it.
    """
    if len(entry.weights) == 1:
        # one row broadcasts, without a (point x node) gather
        at = at[:1]
    held = entry.nodes.get(h)
    start = int(j[0]) - held[0] if held else -1
    inside = start >= 0 and start + j.size <= held[1].shape[1]
    if inside:
        q = held[1][at, start:start + j.size]
        if not math.isnan(np.vdot(q, q)):  # no NaN: every weight is formed
            return q
    rows, at_row = (at, None) if at.size == 1 else _distinct(at)
    if inside:
        q = held[1][rows, start:start + j.size]
        need = np.isnan(q).any(axis=1)
    else:
        q = np.empty((rows.size, j.size))
        need = np.ones(rows.size, dtype=bool)
    t = np.exp(u)
    for w in set(entry.width[rows[need]].tolist()):
        same = need & (entry.width[rows] == w)
        q[same] = _node_weights(entry.log_w[rows[same], :w], entry.orders[rows[same], :w],
                                h, u, t)
    if entry.key is not None:
        _TABLES.merge(entry, entry.nodes, h, rows[need, None], j.astype(np.intp)[None],
                      q[need])
    return q if rows.size == 1 else q[at_row]


def _tails(entry: _RowTables, last: np.ndarray, at: np.ndarray, h: float) -> np.ndarray:
    """Each point's left-tail sum at step h, up to node last[p] of row at[p].

    When the entry holds every sum asked for, they are one gather. The rest
    come from the rows' _left_tail, and a kept entry keeps them.
    """
    i = last.astype(np.intp)
    held = entry.sums.get(h)
    if held is None:
        out = entry.tail(last, at, h)
        if entry.key is not None:
            _TABLES.merge(entry, entry.sums, h, at, i, out)
        return out
    i0, sums = held
    k = i - i0
    # a negative index, read unsigned, lies past the end too
    if k.view(np.uintp).max() < sums.shape[1]:
        out = sums[at, k]
        if not math.isnan(np.vdot(out, out)):  # no NaN: every sum is formed
            return out
    else:
        out = np.full(last.size, math.nan)
        ok = (k >= 0) & (k < sums.shape[1])
        out[ok] = sums[at[ok], k[ok]]
    miss = np.isnan(out).nonzero()[0]
    out[miss] = entry.tail(last[miss], at[miss], h)
    _TABLES.merge(entry, entry.sums, h, at[miss], i[miss], out[miss])
    return out


def _trapezoid(kind: str, log_ar: np.ndarray, alpha: float, entry: _RowTables,
               row: np.ndarray, rel_tol: float) -> np.ndarray:
    """E[g(T / r)] at each point, T ~ sum_k w_k Gamma(k, 1) over its channel.

    entry holds the channel rows (G, K), and row[p] is the row of point p.
    r is the point in units of its row's theta, x / theta for the density
    and the distribution function, 1 / (s theta) for the transform, and
    log_ar = log(alpha r). For the cdf and the mgf a point's sum is
    _left_tail up to its last node where g is 1.0 in doubles (and u <=
    _TAIL_U), and its nodes run from there to the far tail of its row's top
    order. The density's integrand vanishes on both sides: its nodes span
    _saddle_window. Each point takes its value at the first halving where
    it meets rel_tol. Points run in blocks of at most _KERNEL_ELEMENTS
    (point x node) pairs, widest windows first when they need more than
    one, and a block forms the node weights of its own rows on its own
    nodes only, so memory stays bounded however many rows there are, and
    over each row's own branches, so padding costs nothing there. A kept
    entry gives the node weights and left-tail sums it holds, and keeps
    what the call forms, so a value is formed once per lattice step
    whichever block, halving or call asks for it. A sum below _FLUSH is
    returned without refinement.
    """
    if kind == "pdf":
        start, hi = _saddle_window(log_ar, alpha, entry.k_ends[:, row])
    else:
        if kind == "cdf":
            start = log_ar - _upper_log(alpha)
        else:
            # (1 + t / (alpha r))^-alpha rounds to 1.0 for t / r < e^-38
            start = log_ar - math.log(alpha) - 38.0
        start = np.minimum(start, _TAIL_U)
        hi = entry.top[row]
    out = np.empty(log_ar.size)
    todo = np.arange(log_ar.size)
    h = _H0
    for _ in range(_HALVINGS + 1):
        last = np.floor(start / h)
        last_even = last - last % 2.0
        j_hi = np.ceil(hi / h)
        j = np.arange(last_even.min(), j_hi.max() + 1.0)
        u = j * h
        if todo.size * j.size > _KERNEL_ELEMENTS:
            # widest windows first, so that a block spans only the nodes it
            # needs; the points keep this order from here on
            order = last.argsort(kind="stable")
            todo, log_ar, row, start, hi, last, last_even, j_hi = (
                a[order] for a in (todo, log_ar, row, start, hi, last, last_even, j_hi))
        if kind != "pdf":
            left = _tails(entry, last, row, h)
            # the even nodes' tail: half the tail at step 2 h (_left_tail)
            left_even = 0.5 * _tails(entry, last_even * 0.5, row, 2.0 * h)
        fine = np.empty(todo.size)
        coarse = np.empty(todo.size)
        b = 0
        while b < todo.size:
            lo = int(last_even[b] - j[0]) if b else 0
            sel = slice(b, min(b + max(1, _KERNEL_ELEMENTS // (j.size - lo)), todo.size))
            b = sel.stop
            nodes = slice(lo, int(j_hi[sel].max() - j[0]) + 1)
            jn = j[nodes]
            terms = _conditional(kind, log_ar[sel, None], u[nodes], alpha,
                                 (jn > last[sel, None]) & (jn <= j_hi[sel, None]))
            terms *= _block_weights(entry, row[sel], h, jn, u[nodes])
            even = terms[:, ::2].copy()
            if kind != "pdf":
                # each closed tail sits just left of its window, so every
                # point sums its own nodes in order: tail first, then the
                # window (the density has no tail)
                at_pt = np.arange(terms.shape[0])
                terms[at_pt, (last[sel] - j[lo]).astype(int)] = left[sel]
                even[at_pt, ((last_even[sel] - j[lo]) // 2).astype(int)] = left_even[sel]
            fine[sel] = _in_order(terms)
            coarse[sel] = 2.0 * _in_order(even)
        ok = (np.abs(fine - coarse) <= rel_tol * fine) | (fine < _FLUSH)
        # a point redone at h / 2 is written over
        out[todo] = fine
        redo = (~ok).nonzero()[0]
        if redo.size == 0:
            return out
        todo, log_ar, row, start, hi = (a[redo] for a in (todo, log_ar, row, start, hi))
        h *= 0.5
    raise AccuracyError(f"generalized-K {kind} missed rel_tol={rel_tol:g} at "
                        f"{todo.size} point(s), lattice step down to {2.0 * h:g}")


def _law(kind: str, arg: np.ndarray, alpha: float, entry: _RowTables, row: np.ndarray,
         theta: np.ndarray, budget: AccuracyBudget | None) -> np.ndarray:
    """pdf, cdf or mgf of sum_k w_k GK(alpha, k, k theta) at each flat arg >= 0.

    entry holds the channel rows (G, K) and their constants (_RowTables);
    row[p] is the row of point p and theta[p] its scale. A row with fewer
    than K branches is padded at the end with zero weights and copies of
    its top order: their terms are exact zeros. Each row keeps its mass
    sum_k w_k: F(inf) and M(0) return it, and no value exceeds it. The
    density at x = 0 is each branch's limit; at a subnormal x, where
    x f(x) is itself subnormal, it raises AccuracyError. The budget must
    clear every row's rounding floor, which grows with the row's own top
    order.
    """
    budget = budget or DEFAULT_BUDGET
    # the density's conditional carries log Gamma(alpha) and z ~ alpha
    floor = _EPS * (entry.floor + (alpha + math.lgamma(alpha)) if kind == "pdf"
                    else entry.floor)
    if budget.rel_tol < floor:
        raise AccuracyError(f"rel_tol={budget.rel_tol:g} is below the "
                            f"generalized-K kernel's rounding floor {floor:.2g}")
    mass = entry.mass[row]
    # s = inf and x = inf (density), x = 0 (cdf) start at 0
    out = np.zeros(arg.shape)
    # past alpha x / theta = _FAR the density is 0 and the cdf the mass in
    # doubles, as at x = inf; there x / theta may overflow, and r = x / theta
    # (1 / (s theta) for the transform) may underflow, and s theta overflow
    with np.errstate(divide="ignore", over="ignore"):
        if kind == "mgf":
            finite = np.isfinite(arg)
            drop = arg * (theta * entry.mean[row])
            linear = drop <= _MGF_LINEAR
            out[linear] = mass[linear] - drop[linear]
            rest = finite & ~linear
        else:
            finite = alpha * (arg / theta) <= _FAR
            zero = arg == 0.0
            if kind == "cdf":
                out[~finite] = mass[~finite]
            else:
                # zero is where arg is below the smallest normal, and no more
                if np.count_nonzero(arg < _TINY) > np.count_nonzero(zero):
                    raise AccuracyError("the density at a subnormal irradiance is out of "
                                        "reach: x f(x) is below the smallest normal double")
                for p in zero.nonzero()[0].tolist():
                    w, ks = entry.weights[row[p]], entry.orders[row[p]]
                    live = w != 0.0
                    at = [_gk_pdf_at_zero(alpha, kj, alpha / theta[p])
                          for kj in ks[live].tolist()]
                    out[p] = _in_order(w[live] * np.array(at))
            rest = finite & ~zero
        rest = rest.nonzero()[0]
        ar = alpha * (1.0 / (arg[rest] * theta[rest]) if kind == "mgf"
                      else arg[rest] / theta[rest])
        log_ar = np.log(ar)
    if rest.size:
        # a subnormal alpha r keeps a digit or two: its log from the parts
        small = (ar < _TINY).nonzero()[0]
        if small.size:
            at = rest[small]
            log_ar[small] = (math.log(alpha) - np.log(theta[at])
                             + (-1.0 if kind == "mgf" else 1.0) * np.log(arg[at]))
        values = _trapezoid(kind, log_ar, alpha, entry, row[rest], budget.rel_tol)
        # E[g] is the density times x; the cdf and mgf stay within the mass
        out[rest] = values / arg[rest] if kind == "pdf" else np.minimum(values, mass[rest])
    return out


def _per_branch(kind: str, arg, alpha: float, k, mean, budget):
    shape, arg, k, mean = _broadcast_gk(arg, alpha, k, mean, _ARG[kind])
    # one channel row per distinct order, shared by its points; the mean
    # sets each point's scale. Its rows keep no tables: a grid of orders is
    # seldom asked for again, and its tables would grow with the grid
    orders, row = _distinct(k)
    entry = _RowTables(None, (np.ones((orders.size, 1)), orders[:, None]), kind)
    return _shaped(_law(kind, arg, alpha, entry, row, mean / k, budget), shape)


def gk_pdf(i, alpha: float, k, mean, budget: AccuracyBudget | None = None):
    """Density of a generalized-K channel with the given shapes and mean.

    Broadcast over i, k and mean, so a mixture passes its branch orders and
    means as a column against a row of points. Each value is the log-
    trapezoid integral of the large-scale density over the small-scale
    factor, refined until the rule on every other node agrees with it within
    the budget. The i = 0 endpoint is the distribution's limit, set by
    min(alpha, k): 0 above 1, finite at 1, infinite below 1 and at
    alpha = k = 1.
    """
    return _per_branch("pdf", i, alpha, k, mean, budget)


def gk_cdf(x, alpha: float, k, mean, budget: AccuracyBudget | None = None):
    """Distribution function of a generalized-K channel.

    Broadcast over x, k and mean, like gk_pdf. Each value is the log-
    trapezoid integral of P(alpha, alpha x / y) over the small-scale factor
    y, the step halved until the rule on every other node agrees with it
    within the budget. Integer gaps alpha - k need no special care.
    """
    return _per_branch("cdf", x, alpha, k, mean, budget)


def gk_mgf(s, alpha: float, k, mean, budget: AccuracyBudget | None = None):
    """Laplace transform E[exp(-s I)] of a generalized-K channel, s >= 0.

    Broadcast over s, k and mean; the same kernel as gk_cdf with the
    conditional transform (1 + s y / alpha)^-alpha.
    """
    return _per_branch("mgf", s, alpha, k, mean, budget)


# ----------------------------------------------------------------------------
# mixture-level laws


def _points(kind: str, args, alpha: float):
    """Every channel's points, validated and flat, the slice of each channel's, and their shapes."""
    arrays = [np.asarray(a) for a in args]
    flat = _checked(np.concatenate([a.ravel() for a in arrays]), alpha, _ARG[kind])
    cuts, end = [], 0
    for a in arrays:
        cuts.append(slice(end, end + a.size))
        end += a.size
    return flat, cuts, [a.shape for a in arrays]


# an atom at zero has no density off the origin, all of its mass below any
# threshold, and a transform that is identically one
_ATOM_AT_ZERO = {"pdf": 0.0, "cdf": 1.0, "mgf": 1.0}


def _laws(kind: str, args, expansions: list[MixtureExpansion],
          budget: AccuracyBudget | None, p_bs) -> list[np.ndarray]:
    """pdf, cdf or mgf of each channel at its points, at each blockage probability.

    args[g] holds the points of expansions[g]; its law comes back shaped
    (len(p_bs), *points), row i at p_bs[i]. This is the one place the
    blockage rule is applied: the law at p_b is p_b * blocked +
    (1 - p_b) * unblocked. When the line of sight is blocked only uncoupled
    scatter remains: a generalized-K channel of small-scale order 1 with
    mean xi_g, or, when rho = 1 leaves none (xi_g = 0), an atom at zero.

    The rows at p_b = 1 and p_b = 0 are the blocked and the unblocked law
    alone, bit for bit. A law that no p_b weighs is not evaluated, so it
    cannot raise, and no row forms 0 * inf, which would be NaN where the
    other law is infinite (the density at x = 0 for alpha <= 1).

    The channels must share alpha. Everything is one kernel call: first
    each channel's blocked branch, a row of one order-1 branch of weight 1
    at scale xi_g, then each channel's mixture, a row at its theta; rows
    are padded to the longest. A channel's values equal those of gk_* and
    malaga_blockage_* on it alone, bit for bit.
    """
    alpha = expansions[0].alpha
    if any(ex.alpha != alpha for ex in expansions):
        raise DomainError("stacked channels must share alpha")
    flat, cuts, shapes = _points(kind, args, alpha)
    # each kernel row as (column, channel, key, theta): column 0 blocked, 1
    # unblocked. A row's key is its weight and order bytes (_padded), never
    # its theta; every branch of a mixture shares theta = mean / order
    rows = []
    if any(p_b != 0.0 for p_b in p_bs):
        rows += [(0, g, (b"", b""), ex.xi_g) for g, ex in enumerate(expansions)
                 if ex.xi_g != 0.0]
    if any(p_b != 1.0 for p_b in p_bs):
        rows += [(1, g, (np.asarray(ex.weights, dtype=float).tobytes(),
                         np.asarray(ex.orders, dtype=float).tobytes()),
                  float(ex.means[0]) / float(ex.orders[0])) for g, ex in enumerate(expansions)]
    columns = np.full((2, flat.size), _ATOM_AT_ZERO[kind])
    if rows:
        sizes = [cuts[g].stop - cuts[g].start for _, g, _, _ in rows]
        row = np.arange(len(rows)).repeat(sizes)
        values = _law(kind, np.concatenate([flat[cuts[g]] for _, g, _, _ in rows]), alpha,
                      _TABLES.find(tuple(key for *_, key, _ in rows), kind), row,
                      np.array([theta for *_, theta in rows]).repeat(sizes), budget)
        done = 0
        for (column, g, _, _), size in zip(rows, sizes):
            columns[column, cuts[g]] = values[done:done + size]
            done += size
    blocked, unblocked = columns
    # one broadcast for every row; a row at p_b = 0 or 1 is mixed at weight
    # 1/2, which forms no NaN from an infinite law, and then replaced
    w = np.array([p_b if 0.0 < p_b < 1.0 else 0.5 for p_b in p_bs], dtype=float)[:, None]
    laws = w * blocked + (1.0 - w) * unblocked
    for i, p_b in enumerate(p_bs):
        if not 0.0 < p_b < 1.0:
            laws[i] = blocked if p_b == 1.0 else unblocked
    return [laws[:, cut].reshape((len(p_bs), *shape)) for cut, shape in zip(cuts, shapes)]


def _listed(item, cls) -> tuple[list, bool]:
    """item as a list of cls, and whether it was one cls rather than a sequence."""
    if isinstance(item, cls):
        return [item], True
    items = list(item)
    if not items:
        raise DomainError(f"an empty sequence of {cls.__name__}")
    return items, False


def _picked(stack: np.ndarray, one_channel: bool, one_blockage: bool):
    """stack, shaped (channels, blockages, ...), less the axis of a single
    channel or blockage: a float where no axis is left."""
    out = stack[0 if one_channel else slice(None), 0 if one_blockage else slice(None)]
    return out if isinstance(out, np.ndarray) else float(out)


def _stacked(kind: str, arg, expansion, blockage, budget: AccuracyBudget | None):
    """malaga_blockage_<kind>: every channel at every blockage, in one _laws call."""
    expansions, one_channel = _listed(expansion, MixtureExpansion)
    blockages, one_blockage = _listed(BlockageConfig(p_b=0.0) if blockage is None
                                      else blockage, BlockageConfig)
    laws = _laws(kind, [arg] * len(expansions), expansions, budget,
                 [bl.p_b for bl in blockages])
    return _picked(laws[0][None] if one_channel else np.stack(laws),
                   one_channel, one_blockage)


def malaga_blockage_pdf(i, expansion: MixtureExpansion | Sequence[MixtureExpansion],
                        blockage: BlockageConfig | Sequence[BlockageConfig] | None = None,
                        budget: AccuracyBudget | None = None):
    """Density of the channel with random line-of-sight blockage.

    blockage None is the unblocked channel, as p_b = 0. expansion may be a
    sequence of channels that share alpha, and blockage a sequence of
    BlockageConfig: each sequence adds an axis ahead of i's shape, channels
    first, and every channel is evaluated once, in one kernel pass, for
    every blockage. Each value equals the call on its own channel and
    blockage bit for bit, and one channel and blockage at a scalar i give a
    float.

    At rho = 1 this is the density of the continuous part only; the blocked
    probability sits in the atom at zero. At p_b = 0 the blocked branch is
    not evaluated, and at p_b = 1 the unblocked channel is not: a branch of
    zero weight cannot raise, and adds nothing, not even at i = 0, where it
    may be infinite.
    """
    return _stacked("pdf", i, expansion, blockage, budget)


def malaga_blockage_cdf(x, expansion: MixtureExpansion | Sequence[MixtureExpansion],
                        blockage: BlockageConfig | Sequence[BlockageConfig] | None = None,
                        budget: AccuracyBudget | None = None):
    """Distribution function of the channel with line-of-sight blockage.

    Takes channels and blockages as malaga_blockage_pdf does. A branch of
    zero weight (the blocked one at p_b = 0, the unblocked one at p_b = 1)
    is not evaluated and cannot raise.
    """
    return _stacked("cdf", x, expansion, blockage, budget)


def malaga_blockage_mgf(s, expansion: MixtureExpansion | Sequence[MixtureExpansion],
                        blockage: BlockageConfig | Sequence[BlockageConfig] | None = None,
                        budget: AccuracyBudget | None = None):
    """Laplace transform of the channel with line-of-sight blockage.

    Takes channels and blockages as malaga_blockage_pdf does. A branch of
    zero weight (the blocked one at p_b = 0, the unblocked one at p_b = 1)
    is not evaluated and cannot raise.
    """
    return _stacked("mgf", s, expansion, blockage, budget)
