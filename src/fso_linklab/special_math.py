"""Special functions with explicit accuracy contracts.

The accuracy budget every adaptive evaluator takes, and the one primitive
the densities need beyond scipy.special: the logarithm of the modified
Bessel function of the second kind, with a small-argument series where the
scaled Bessel overflows. It either meets its accuracy or raises
:class:`~fso_linklab.errors.AccuracyError`; silent precision loss is treated
as a bug. The distribution function and the transform need no special
function of their own (see the kernel in fso_linklab.malaga).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, kve
# not called here: bench/spans.py traces the scipy Kummer function where this
# module binds it
from scipy.special import hyp1f1  # noqa: F401

from .errors import AccuracyError, DomainError


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy demanded from an adaptive evaluation.

    rel_tol is the target relative error, abs_tol an absolute floor below
    which values may be flushed, max_terms a series-length cap that no
    evaluator here reads any more (kept so budgets that set it still build).
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
