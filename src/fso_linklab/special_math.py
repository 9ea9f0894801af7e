"""Special functions with explicit accuracy contracts.

Everything downstream (mixture densities, moment generating functions, outage
curves) reduces to two primitives beyond what scipy.special already covers:
the logarithm of the modified Bessel function of the second kind, and the
Tricomi confluent hypergeometric function. Each either returns a value
meeting its accuracy budget or raises
:class:`~fso_linklab.errors.AccuracyError`; silent precision loss is treated
as a bug.

Backends: log-gamma, the scaled Bessel function and the Kummer function come
straight from scipy.special, which meets the budgets here with large margin
(verified against high-precision references during development). The log
Bessel function adds a small-argument series where the scaled Bessel
overflows. The Tricomi function is assembled locally from two Kummer terms
with a cancellation guard and an integral-representation fallback, because
library implementations are not reliably accurate in the parameter corner
this package lives in (small positive argument, second parameter below one).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import gammaln, gammasgn, hyp1f1, kve, roots_genlaguerre

from .errors import AccuracyError, DegenerateParameterError, DomainError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy demanded from an adaptive evaluation.

    rel_tol is the target relative error, abs_tol an absolute floor below
    which values may be flushed, max_terms the series-length cap.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-300
    max_terms: int = 400

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0,1), got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be nonnegative")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")


DEFAULT_BUDGET = AccuracyBudget()


def _ln_k_small_arg(nu: float, x: float, max_terms: int = 60) -> float:
    # Leading small-argument series of K_nu, used only when the scaled Bessel
    # overflows (large |nu|, small x). Valid while |nu| dominates x^2/4 and
    # nu is not an integer; the (x/2)^(2nu) companion series is suppressed by
    # Gamma(nu)^2 and can be dropped at these magnitudes.
    anu = abs(nu)
    if abs(anu - round(anu)) < 1e-9:
        raise AccuracyError(f"bessel_k_log overflow fallback needs non-integer nu, got {nu}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for j in range(1, max_terms):
        term *= q / (j * (j - anu))
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    if total <= 0.0:
        raise AccuracyError(f"bessel_k_log series failed for nu={nu}, x={x}")
    return gammaln(anu) - np.log(2.0) - anu * np.log(0.5 * x) + np.log(total)


def bessel_k_log(nu, x):
    """log K_nu(x), usable far beyond the underflow range of K_nu itself.

    Falls back to the small-argument series when even the scaled Bessel
    overflows (|nu| large with x small), so mixture branches of high order
    stay representable.
    """
    nu = np.asarray(nu, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("bessel_k_log requires x > 0")
    scaled = kve(nu, x)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(scaled) - x
    bad = ~np.isfinite(out)
    if np.any(bad):
        out = np.atleast_1d(out)
        nub = np.broadcast_to(nu, out.shape)
        xb = np.broadcast_to(x, out.shape)
        flat = out.reshape(-1)
        for idx in np.flatnonzero(bad.reshape(-1)):
            flat[idx] = _ln_k_small_arg(float(nub.reshape(-1)[idx]), float(xb.reshape(-1)[idx]))
        out = flat.reshape(out.shape)
        if np.ndim(x) == 0 and np.ndim(nu) == 0:
            return float(out[0])
        return out
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=32)
def _laguerre_rule(n: int, alpha_minus_1: float):
    nodes, weights = roots_genlaguerre(n, alpha_minus_1)
    return nodes, weights


def _u_kummer_pair(a: float, b: float, z: float) -> tuple[float, float]:
    # Two-term Kummer decomposition of U(a,b,z). Returns (value, est_rel_err).
    # The exponentially growing parts of the terms cancel exactly, so the
    # rounding estimate eps*(|t1|+|t2|)/|sum| is the honest accuracy figure.
    t1 = np.exp(gammaln(1.0 - b) - gammaln(a - b + 1.0)) \
        * gammasgn(1.0 - b) * gammasgn(a - b + 1.0) * hyp1f1(a, b, z)
    t2 = np.exp(gammaln(b - 1.0) - gammaln(a) + (1.0 - b) * np.log(z)) \
        * gammasgn(b - 1.0) * gammasgn(a) * hyp1f1(a - b + 1.0, 2.0 - b, z)
    total = t1 + t2
    if not np.isfinite(total) or total == 0.0:
        return float(total), np.inf
    est = _EPS * (abs(t1) + abs(t2)) / abs(total)
    return float(total), est


def _u_laguerre(a: float, b: float, z: float, n: int) -> float:
    # U(a,b,z) = z^-a/Gamma(a) Int_0^inf e^-u u^(a-1) (1+u/z)^(b-a-1) du
    nodes, weights = _laguerre_rule(n, a - 1.0)
    core = float(np.dot(weights, (1.0 + nodes / z) ** (b - a - 1.0)))
    return np.exp(-a * np.log(z) - gammaln(a)) * core


def _u_quad(a: float, b: float, z: float) -> tuple[float, float]:
    lg = gammaln(a)
    scale = -a * np.log(z) - lg

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return np.exp(-u + (a - 1.0) * np.log(u)) * (1.0 + u / z) ** (b - a - 1.0)

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    if val <= 0.0:
        return 0.0, np.inf
    return float(np.exp(scale) * val), err / val


_U_SWITCH_Z = 4.0


def tricomi_u(a: float, b: float, z: float, budget: AccuracyBudget | None = None) -> float:
    """Tricomi confluent hypergeometric function U(a; b; z) for z > 0.

    Strategy: the two-term Kummer decomposition while its cancellation
    estimate meets the budget (small z), then a generalized Gauss-Laguerre
    evaluation of the integral representation (requires a > 0), then adaptive
    quadrature as the backstop. Raises AccuracyError when no path can claim
    the budget, DegenerateParameterError when b is an integer (the
    decomposition degenerates; nudge the parameters instead).
    """
    budget = budget or DEFAULT_BUDGET
    if z <= 0.0:
        raise DomainError(f"tricomi_u requires z > 0, got {z}")
    if abs(b - round(b)) < 1e-9:
        raise DegenerateParameterError(
            f"U(a,b,z) with integer b={b} degenerates; nudge the shape parameters")

    if z <= _U_SWITCH_Z or a <= 0.0:
        val, est = _u_kummer_pair(a, b, z)
        if est <= budget.rel_tol:
            return val

    if a > 0.0:
        lo = _u_laguerre(a, b, z, 96)
        hi = _u_laguerre(a, b, z, 160)
        if hi != 0.0 and np.isfinite(hi):
            est = abs(hi - lo) / abs(hi)
            if est <= budget.rel_tol:
                return hi
        val, est = _u_quad(a, b, z)
        if est <= budget.rel_tol:
            return val

    raise AccuracyError(
        f"U({a},{b},{z}) could not be evaluated to rel_tol={budget.rel_tol}")

