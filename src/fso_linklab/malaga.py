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


def mixture_weights(
    params: MalagaParams, epsilon: float = 1e-8, k_max: int = 200
) -> MixtureExpansion:
    """Build the generalized-K mixture for the unblocked channel.

    Natural beta gives the exact binomial mixture of beta branches. Real
    beta gives the negative-binomial expansion, each weight the running
    ratio w_k = w_(k-1) p (beta + k - 2) / (k - 1) from w_1 = (1 - p)^beta,
    accumulated until the remaining weight mass is at most epsilon; weights
    are kept as computed, never renormalized. If that takes more than k_max
    branches, an AccuracyError reports the stranded tail mass instead of
    returning a silently biased expansion.

    rho = 1 is the end point of both: one two-gamma branch of order beta,
    weight 1 and mean omega', with xi_g = 0 marking the blocked branch as an
    atom at zero. alpha is kept as given.
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
    while 1.0 - acc > epsilon and k < k_max:
        w *= p * (beta + k - 1.0) / k
        k += 1
        weights_list.append(w)
        acc += w
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


def _checked(arg, alpha: float, what: str) -> np.ndarray:
    """arg as floats, once it and alpha are checked."""
    # chained comparisons: NaN fails each, and inf fails the upper bound
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and > 0, got {alpha}")
    arg = np.asarray(arg, dtype=float)
    if (arg < 0.0).any():
        raise DomainError(f"{what} must be >= 0")
    if np.isnan(arg).any():
        raise DomainError(f"{what} must not be NaN")
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
# weights and orders, shaped (G, K), and each point names its row. A channel
# may have more than one weight row, one per column of the call (the
# unblocked mixture and its blocked branch, which share the lattice), and
# the columns of a point share its nodes and g. A value depends only on its
# own point and weight row: each point sums, in node order (_in_order), the
# closed-form tail left of its own window (none for the density) and then
# the window's nodes; terms outside it are exactly zero, and a point over
# budget is redone at h / 2 by itself.

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
_KERNEL_ELEMENTS = 1 << 18
# below this s * E[I] the transform is 1 - s E[I] to double precision
_MGF_LINEAR = 1e-10
# a point whose sum is below this is taken as it stands: its terms reach the
# subnormal range, where doubles keep no relative accuracy to check
_FLUSH = 1e-290
# past alpha r = _FAR every density is 0 and every cdf its mass in doubles,
# and below it 4 alpha r (_saddle_window) is finite
_FAR = 1e300
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


def _saddle_window(r: np.ndarray, alpha: float, k_lo: np.ndarray,
                   k_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u range outside which each branch's density integrand is negligible.

    In u the integrand of order k is t^(k - alpha) e^(-t - alpha r / t):
    log-concave, with its peak at t* = ((k - alpha) + sqrt((k - alpha)^2
    + 4 alpha r)) / 2. Right of t* its log falls at least by
    t - t* - t* log(t / t*), left of it by the same form in alpha r / t, so
    _efold_bound places both ends. The lowest order sets the left end, the
    top order the right one.
    """
    ar = alpha * r

    def peak(k):
        d = k - alpha
        root = np.sqrt(d * d + 4.0 * ar)
        return np.where(d > 0.0, 0.5 * (d + root), 2.0 * ar / (root + np.abs(d)))

    left = np.log(ar) - np.log(_efold_bound(ar / peak(k_lo)))
    return left, np.log(_efold_bound(peak(k_hi)))


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
    np.minimum(np.maximum(i, lo, out=i), lo + coef.shape[1] - 1, out=i)
    d = log_z - i * step
    rows = (i - lo).astype(np.intp)
    p = coef[-1].take(rows)
    for c in coef[-2::-1]:
        p *= d
        p += c.take(rows)
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
    the cdf, from log z, and (1 + t / (alpha r))^-alpha for the mgf.
    """
    if kind == "mgf":
        return np.where(inside, np.exp(-alpha * np.log1p(np.exp(u) / np.exp(log_ar))), 0.0)
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


def _left_tail(last: np.ndarray, at: np.ndarray, h: float, log_w: np.ndarray,
               orders: np.ndarray, spans: list, stride: int) -> np.ndarray:
    """Sum of q_j = h sum_k exp(log_w_k + k u_j - t_j) over stride-th j <= last.

    Each power of t sums over the lattice as a geometric series, so the sum
    to minus infinity is closed form. log_w and orders are channel rows
    (G, K), whose branch axis holds one slice per column (spans), and at[p]
    is the row of point p, or None for a single row; the result is (C, P).
    A row's series constants are formed once, and its sums once per
    distinct last.
    """
    m = np.arange(len(_TAYLOR))
    geometric = _TAYLOR / -np.expm1(-stride * h * (orders[..., None] + m))
    if at is None:
        starts, inv = _distinct(last)
        rows = slice(None)  # the row broadcasts: nothing to gather
    else:
        lo = last.min()
        span = int(last.max() - lo) + 1
        pairs, inv = _distinct(at * span + (last - lo).astype(int))
        rows, ends = np.divmod(pairs, span)
        starts = ends + lo
    u = (starts * h)[:, None]
    series = _in_order(geometric[rows] * np.exp(u[..., None] * m))
    terms = np.exp(log_w[rows] + orders[rows] * u) * series
    return np.array([h * _in_order(terms[:, cut]) for cut in spans])[:, inv]


def _trapezoid(kind: str, r: np.ndarray, alpha: float, log_w: np.ndarray,
               orders: np.ndarray, spans: list, row: np.ndarray,
               need: np.ndarray | None, rel_tol: float) -> np.ndarray:
    """E[g(T / r)] at each point, T ~ sum_k w_k Gamma(k, 1) over a row of its channel.

    log_w = log(w_k / Gamma(k)) and orders are channel rows, (G, K), and
    row[p] is the channel of point p. A channel may have several weight
    rows, one per column of the result, side by side on the branch axis:
    spans[c] is the slice of column c. need[c, p] says whether point p
    wants column c (None: every point wants every column); the result is
    (C, P), 0 where a point does not want a column. r is the point in units
    of its channel's theta, which its columns share: x / theta for the
    density and the distribution function, 1 / (s theta) for the transform.

    For the cdf and the mgf a point's sum is _left_tail up to its last node
    where g is 1.0 in doubles (and u <= _TAIL_U), and its nodes run from
    there to the far tail of the column's top order. The density's
    integrand vanishes on both sides: its nodes span _saddle_window. The
    columns of a point share its nodes, t and the conditional g on them;
    each keeps its own node weights, left tail, window and sums, and takes
    its value at the first halving where it meets rel_tol. A halving
    evaluates only the columns some point still wants, and a point leaves
    the loop once all of its columns are done. Points run in blocks of at
    most _KERNEL_ELEMENTS (column x point x node) elements. With one
    channel its node weights are formed once per halving on every node;
    with many, a block forms those of its own channels on its own nodes
    only, so memory stays bounded however many channels there are. A sum
    below _FLUSH is returned without refinement.
    """
    log_ar = np.log(alpha * r)
    if kind == "pdf":
        windows = [_saddle_window(r, alpha, orders[:, cut].min(axis=1)[row],
                                  orders[:, cut].max(axis=1)[row]) for cut in spans]
        start, hi = (np.array(ends) for ends in zip(*windows))
        tops = None
    else:
        if kind == "cdf":
            start = log_ar - _upper_log(alpha)
        else:
            # (1 + t / (alpha r))^-alpha rounds to 1.0 for t / r < e^-38
            start = np.log(r) - 38.0
        # one start serves every column
        start = np.minimum(start, _TAIL_U)[None]
        # the far tail of each (column, channel) top order
        tops = np.array([[_upper_log(k) for k in orders[:, cut].max(axis=1).tolist()]
                         for cut in spans])
        hi = tops[:, row]
    out = np.zeros((len(spans), r.size))
    todo = np.arange(r.size)
    every = np.arange(len(spans))
    # the columns each point still wants; None while that is all of them
    wants = None if need is None or need.all() else need.copy()
    single = len(orders) == 1
    h = _H0
    for _ in range(_HALVINGS + 1):
        cols, begin, end = every, start[:, todo], hi[:, todo]
        if wants is not None:
            # the columns some point still wants; one a point does not want
            # spans its other columns, so it adds no nodes
            cols = np.flatnonzero(wants.any(axis=1))
            end = np.where(wants[cols], end[cols],
                           np.where(wants[cols], end[cols], -np.inf).max(axis=0))
            if len(begin) > 1:
                begin = np.where(wants[cols], begin[cols],
                                 np.where(wants[cols], begin[cols], np.inf).min(axis=0))
        # the branches of those columns
        lo_k, hi_k = spans[cols[0]].start, spans[cols[-1]].stop
        lw, k = log_w[:, lo_k:hi_k], orders[:, lo_k:hi_k]
        own = [slice(spans[c].start - lo_k, spans[c].stop - lo_k) for c in cols.tolist()]
        last = np.floor(begin / h)
        last_even = last - last % 2.0
        j_hi = np.ceil(end / h)
        if len(last) == 1:
            first, first_even = last[0], last_even[0]
        else:
            first, first_even = last.min(axis=0), last_even.min(axis=0)
        right = j_hi[0] if len(j_hi) == 1 else j_hi.max(axis=0)
        j = np.arange(first_even.min(), right.max() + 1.0)
        u = j * h
        t = np.exp(u)
        # with one start, the windows of a point's columns differ only in
        # their right ends, which are their rows': a row's node weights stop
        # there, and g, which spans every column of the point, does the rest
        stops = None if tops is None or len(cols) == 1 else np.ceil(tops[cols] / h)

        def density(sl, channels):
            # h y f(y) at each node, each column summing its own branches in
            # order: (column, row, node)
            terms = np.exp(lw[channels][..., None] + k[channels][..., None] * u[sl] - t[sl])
            weights = np.array([h * _in_order(terms[:, branches], axis=1)
                                for branches in own])
            if stops is not None:
                weights = np.where(j[sl] <= stops[:, channels, None], weights, 0.0)
            return weights

        if single:
            # one channel: its node weights on every node serve every block
            at, q = None, density(slice(None), slice(None))
        else:
            at = row[todo]
        if kind != "pdf":
            left = _left_tail(last[0], at, h, lw, k, own, 1)
            left_even = _left_tail(last_even[0], at, h, lw, k, own, 2)
        fine = np.empty((len(cols), todo.size))
        coarse = np.empty(fine.shape)
        # widest windows first, so that a block spans only the nodes it needs
        order = np.argsort(first, kind="stable")
        b = 0
        while b < order.size:
            lo = int(first_even[order[b]] - j[0])
            sel = order[b:b + max(1, _KERNEL_ELEMENTS // (len(cols) * (j.size - lo)))]
            b += sel.size
            nodes = slice(lo, int(right[sel].max() - j[0]) + 1)
            pts = todo[sel]
            jn = j[nodes]
            if single:
                terms = q[:, :, nodes]  # one row broadcasts
            else:
                # the node weights of the block's own channels only
                channels, at_row = _distinct(at[sel])
                terms = density(nodes, channels)[:, at_row]
            terms = terms * _conditional(kind, log_ar[pts, None], u[nodes], alpha,
                                         (jn > first[sel, None]) & (jn <= right[sel, None]))
            if len(last) > 1:
                # density columns start apart: each keeps its own window
                terms = np.where((jn > last[:, sel, None]) & (jn <= j_hi[:, sel, None]),
                                 terms, 0.0)
            even = terms[..., ::2].copy()
            if kind != "pdf":
                # each closed tail sits just left of its window, so every
                # point sums its own nodes in order: tail first, then the
                # window (the density has no tail)
                at_col, rows = np.arange(len(cols))[:, None], np.arange(sel.size)
                terms[at_col, rows, (last[:, sel] - j[lo]).astype(int)] = left[:, sel]
                even[at_col, rows, ((last_even[:, sel] - j[lo]) // 2).astype(int)] = (
                    left_even[:, sel])
            fine[:, sel] = _in_order(terms)
            coarse[:, sel] = 2.0 * _in_order(even)
        ok = (np.abs(fine - coarse) <= rel_tol * fine) | (fine < _FLUSH)
        if len(spans) == 1:
            out[0][todo[ok[0]]] = fine[0][ok[0]]
            todo = todo[~ok[0]]
        else:
            if wants is None:
                wants = np.ones(ok.shape, dtype=bool)
            ok &= wants[cols]
            at_col, at_todo = np.nonzero(ok)
            out[cols[at_col], todo[at_todo]] = fine[ok]
            wants[cols] &= ~ok
            live = wants.any(axis=0)
            todo, wants = todo[live], wants[:, live]
        if todo.size == 0:
            return out
        h *= 0.5
    raise AccuracyError(f"generalized-K {kind} missed rel_tol={rel_tol:g} at "
                        f"{todo.size} point(s), lattice step down to {2.0 * h:g}")


def _law(kind: str, arg: np.ndarray, alpha: float, weights: np.ndarray,
         orders: np.ndarray, row: np.ndarray, theta: np.ndarray,
         budget: AccuracyBudget | None, blocked: np.ndarray | None = None) -> np.ndarray:
    """pdf, cdf or mgf of sum_k w_k GK(alpha, k, k theta) at each flat arg >= 0.

    weights and orders are channel rows, (G, K), or (K,) for one channel;
    row[p] is the channel of point p and theta[p] its scale. A channel with
    fewer than K branches is padded at the end with zero weights and copies
    of its top order: their terms are exact zeros. Each channel keeps its
    mass sum_k w_k: F(inf) and M(0) return it, and no value exceeds it. The
    density at x = 0 is each branch's limit. The budget must clear every
    channel's rounding floor, which grows with the channel's own top order.

    The result is (C, P), and row 0 is that law. blocked, a mask over the
    points, adds row 1: GK(alpha, 1, theta), the order-1 branch at the same
    scale, at the masked points (0 elsewhere). It is a second weight row of
    their channels in the same kernel pass, equal bit for bit to gk_* at
    mean theta.
    """
    budget = budget or DEFAULT_BUDGET
    weights, orders = np.atleast_2d(weights, orders)
    spans = [slice(0, orders.shape[1])]
    if blocked is not None:
        one = np.ones((len(orders), 1))
        weights, orders = np.hstack([weights, one]), np.hstack([orders, one])
        spans.append(slice(spans[0].stop, spans[0].stop + 1))
    # each node's log-density carries log Gamma(k) and t ~ k, and the
    # density's conditional log Gamma(alpha) and z ~ alpha, so the relative
    # rounding of a term grows with its channel's top order (and alpha)
    log_gamma = np.fromiter(map(math.lgamma, orders.ravel().tolist()), float,
                            orders.size).reshape(orders.shape)
    # orders run 1, 2, ..., or are one value: log Gamma is largest at the top
    tops = np.array([orders[:, cut].max(axis=1) for cut in spans])
    floors = 32.0 + tops + np.array([log_gamma[:, cut].max(axis=1) for cut in spans])
    if kind == "pdf":
        floors += alpha + math.lgamma(alpha)
    floor = _EPS * floors.max(initial=0.0)
    if budget.rel_tol < floor:
        raise AccuracyError(f"rel_tol={budget.rel_tol:g} is below the "
                            f"generalized-K kernel's rounding floor {floor:.2g}")
    mass = np.array([_in_order(weights[:, cut]) for cut in spans])[:, row]
    # s = inf and x = inf (density), x = 0 (cdf) start at 0
    out = np.zeros(mass.shape)
    if kind == "mgf":
        finite = np.isfinite(arg)
        moment = weights * orders
        mean = theta * np.array([_in_order(moment[:, cut]) for cut in spans])[:, row]
        drop = arg * mean
        linear = drop <= _MGF_LINEAR
        out[linear] = mass[linear] - drop[linear]
        rest = finite & ~linear
    else:
        # past alpha x / theta = _FAR the density is 0 and the cdf the mass
        # in doubles, as at x = inf; there x / theta may overflow
        with np.errstate(over="ignore"):
            finite = alpha * (arg / theta) <= _FAR
        if kind == "cdf":
            out[:, ~finite] = mass[:, ~finite]
        zero = arg == 0.0
        for c, cut in enumerate(spans if kind == "pdf" else ()):
            for p in np.flatnonzero(zero if c == 0 else zero & blocked).tolist():
                w, ks = weights[row[p], cut], orders[row[p], cut]
                live = w != 0.0
                at = [_gk_pdf_at_zero(alpha, kj, alpha / theta[p])
                      for kj in ks[live].tolist()]
                out[c, p] = _in_order(w[live] * np.array(at))
        rest = finite & ~zero
    if blocked is not None:
        rest = rest & np.array([np.ones(arg.size, dtype=bool), blocked])
    pts = rest if rest.ndim == 1 else rest.any(axis=0)
    if pts.any():
        r = 1.0 / (arg[pts] * theta[pts]) if kind == "mgf" else arg[pts] / theta[pts]
        need = None if rest.ndim == 1 else rest[:, pts]
        with np.errstate(divide="ignore"):  # a padded branch has log 0 = -inf
            log_w = np.log(weights) - log_gamma
        values = _trapezoid(kind, r, alpha, log_w, orders, spans, row[pts], need,
                            budget.rel_tol)
        # E[g] is the density times x; the cdf and mgf stay within the mass
        values = values / arg[pts] if kind == "pdf" else np.minimum(values, mass[:, pts])
        out[:, pts] = values if need is None else np.where(need, values, out[:, pts])
    return out


def _per_branch(kind: str, arg, alpha: float, k, mean, budget):
    shape, arg, k, mean = _broadcast_gk(arg, alpha, k, mean, _ARG[kind])
    # one channel row per distinct order, shared by its points; the mean
    # sets each point's scale
    if k.size and np.all(k == k[0]):
        orders, row = k[:1], np.zeros(k.size, dtype=np.intp)
    else:
        orders, row = np.unique(k, return_inverse=True)
    out = _law(kind, arg, alpha, np.ones((orders.size, 1)), orders[:, None], row,
               mean / k, budget)
    return _shaped(out[0], shape)


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
    """Every channel's points, validated and flat, the channel of each, and the shapes."""
    shapes = [np.shape(a) for a in args]
    flat = _checked(np.concatenate([np.ravel(a) for a in args]), alpha, _ARG[kind])
    channel = np.repeat(np.arange(len(shapes)), [math.prod(s) for s in shapes])
    return flat, channel, shapes


def _per_channel(values: np.ndarray, shapes: list) -> list:
    """A flat column cut back into one value per channel, shaped as its points."""
    out, start = [], 0
    for shape in shapes:
        end = start + math.prod(shape)
        out.append(_shaped(values[start:end], shape))
        start = end
    return out


def _theta(expansion: MixtureExpansion) -> float:
    """The scale mean / order that every branch of an expansion shares."""
    return expansion.means[0] / expansion.orders[0]


def _mixture_law(kind: str, flat: np.ndarray, channel: np.ndarray,
                 expansions: list[MixtureExpansion], budget: AccuracyBudget | None,
                 blocked: np.ndarray | None = None) -> np.ndarray:
    # one kernel row per expansion, whose nodes carry sum_k w_k y f_k(y), so
    # no branch is evaluated on its own; a row with fewer branches than the
    # longest ends in zero weights on copies of its top order
    live = [ex.weights != 0.0 for ex in expansions]
    weights = np.zeros((len(expansions), max(np.count_nonzero(m) for m in live)))
    orders = np.empty(weights.shape)
    for g, (ex, m) in enumerate(zip(expansions, live)):
        k = ex.orders[m]
        weights[g, :k.size] = ex.weights[m]
        orders[g] = k[-1]
        orders[g, :k.size] = k
    theta = np.array([_theta(ex) for ex in expansions])[channel]
    return _law(kind, flat, expansions[0].alpha, weights, orders, channel, theta,
                budget, blocked)


def _one_mixture(kind: str, arg, expansion: MixtureExpansion,
                 budget: AccuracyBudget | None):
    flat, channel, (shape,) = _points(kind, [arg], expansion.alpha)
    return _shaped(_mixture_law(kind, flat, channel, [expansion], budget)[0], shape)


def malaga_pdf(i, expansion: MixtureExpansion,
               budget: AccuracyBudget | None = None):
    """Density of the unblocked composite channel."""
    return _one_mixture("pdf", i, expansion, budget)


def malaga_cdf(x, expansion: MixtureExpansion,
               budget: AccuracyBudget | None = None):
    """Distribution function of the unblocked composite channel."""
    return _one_mixture("cdf", x, expansion, budget)


def malaga_mgf(s, expansion: MixtureExpansion,
               budget: AccuracyBudget | None = None):
    """Laplace transform of the unblocked composite channel."""
    return _one_mixture("mgf", s, expansion, budget)


# an atom at zero has no density off the origin, all of its mass below any
# threshold, and a transform that is identically one
_ATOM_AT_ZERO = {"pdf": 0.0, "cdf": 1.0, "mgf": 1.0}


def _columns(kind: str, args, expansions: list[MixtureExpansion],
             budget: AccuracyBudget | None = None, p_bs=None):
    """Blocked and unblocked pdf, cdf or mgf columns of each channel at its points.

    args[g] holds the points of expansions[g], and each column is a list
    with one value per channel, shaped as its points. Neither column
    depends on the blockage probability, so one pair serves every p_b: the
    law at p_b is p_b * blocked + (1 - p_b) * unblocked. When the line of
    sight is blocked only uncoupled scatter remains: a generalized-K channel
    of small-scale order 1 with mean xi_g, or, when rho = 1 leaves none
    (xi_g = 0), an atom at zero.

    p_bs are the blockage probabilities the caller weighs the columns with
    (None: every one). A column that none of them weighs is not evaluated,
    so it cannot raise, and comes back as zeros: the blocked one when every
    p_b is 0, the unblocked one when every p_b is 1. The mix is then the
    weighed column, bit for bit, also where the other would be infinite
    (the density at x = 0 for alpha <= 1) and the full sum 0 * inf NaN.

    The channels must share alpha. The unblocked column is one kernel call
    for all of them, a row per channel. A blocked branch whose scale xi_g
    is its channel's theta (every real-beta expansion) rides in that call
    as a second weight row of its channel; any other is one gk_* call at
    each point's own xi_g. A channel's values equal those of gk_* and
    malaga_* on it alone, bit for bit.
    """
    alpha = expansions[0].alpha
    if any(ex.alpha != alpha for ex in expansions):
        raise DomainError("stacked channels must share alpha")
    flat, channel, shapes = _points(kind, args, alpha)
    weighs_blocked = p_bs is None or any(p_b != 0.0 for p_b in p_bs)
    weighs_unblocked = p_bs is None or any(p_b != 1.0 for p_b in p_bs)
    # per channel: a blocked branch to evaluate, and whether it rides in the
    # unblocked pass, on the lattice of its channel's theta
    scatter = [weighs_blocked and ex.xi_g != 0.0 for ex in expansions]
    rides = [weighs_unblocked and s and ex.xi_g == _theta(ex)
             for s, ex in zip(scatter, expansions)]
    blocked = np.full(flat.size, _ATOM_AT_ZERO[kind] if weighs_blocked else 0.0)
    unblocked = np.zeros(flat.size)
    own = np.array([s and not r for s, r in zip(scatter, rides)])[channel]
    if own.any():
        # a blocked branch on a lattice of its own (natural beta) is one
        # public gk_* call, looked up when called, so that a wrapper on the
        # module binding (bench/spans.py) counts it; a riding one is not
        gk = {"pdf": gk_pdf, "cdf": gk_cdf, "mgf": gk_mgf}[kind]
        xi_g = np.array([ex.xi_g for ex in expansions])[channel]
        blocked[own] = gk(flat[own], alpha, 1.0, xi_g[own], budget)
    if weighs_unblocked:
        ride = np.array(rides)[channel] if any(rides) else None
        values = _mixture_law(kind, flat, channel, expansions, budget, ride)
        unblocked = values[0]
        if ride is not None:
            blocked[ride] = values[1, ride]
    return _per_channel(blocked, shapes), _per_channel(unblocked, shapes)


def malaga_blockage_pdf(i, expansion: MixtureExpansion, blockage: BlockageConfig,
                        budget: AccuracyBudget | None = None):
    """Density of the channel with random line-of-sight blockage.

    At rho = 1 this is the density of the continuous part only; the blocked
    probability sits in the atom at zero. At p_b = 0 the blocked branch is
    not evaluated, and at p_b = 1 the unblocked channel is not: a branch of
    zero weight cannot raise, and adds nothing, not even at i = 0, where it
    may be infinite.
    """
    (blocked,), (unblocked,) = _columns("pdf", [i], [expansion], budget, [blockage.p_b])
    return blockage.p_b * blocked + (1.0 - blockage.p_b) * unblocked


def malaga_blockage_cdf(x, expansion: MixtureExpansion, blockage: BlockageConfig,
                        budget: AccuracyBudget | None = None):
    """Distribution function of the channel with line-of-sight blockage.

    A branch of zero weight (the blocked one at p_b = 0, the unblocked one
    at p_b = 1) is not evaluated and cannot raise.
    """
    (blocked,), (unblocked,) = _columns("cdf", [x], [expansion], budget, [blockage.p_b])
    return blockage.p_b * blocked + (1.0 - blockage.p_b) * unblocked


def malaga_blockage_mgf(s, expansion: MixtureExpansion, blockage: BlockageConfig,
                        budget: AccuracyBudget | None = None):
    """Laplace transform of the channel with line-of-sight blockage.

    A branch of zero weight (the blocked one at p_b = 0, the unblocked one
    at p_b = 1) is not evaluated and cannot raise.
    """
    (blocked,), (unblocked,) = _columns("mgf", [s], [expansion], budget, [blockage.p_b])
    return blockage.p_b * blocked + (1.0 - blockage.p_b) * unblocked
