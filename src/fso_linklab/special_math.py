"""The accuracy budget every adaptive evaluator takes, and the special
functions the library needs, without scipy.

Each evaluator either meets the budget's relative tolerance or raises
:class:`~fso_linklab.errors.AccuracyError`; silent precision loss is treated
as a bug. The kernel in fso_linklab.malaga tabulates the incomplete gamma
function of _incomplete_gamma, which also gives the chi-square tail of the
goodness-of-fit test; _kolmogorov_sf is the asymptotic KS tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_LD = np.longdouble


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy demanded from an adaptive evaluation: rel_tol is the target
    relative error of every returned value."""

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0,1), got {self.rel_tol}")


DEFAULT_BUDGET = AccuracyBudget()


def _scipy_special(name: str):
    """scipy.special.<name>, imported when called. Nothing here calls it:
    bench/spans.py traces the scipy Bessel and Kummer functions where this
    module and malaga bind them. It never rebinds its module attribute."""
    def forward(*args, **kwargs):
        from scipy import special
        return getattr(special, name)(*args, **kwargs)

    forward.__module__, forward.__name__, forward.__qualname__ = "scipy.special", name, name
    return forward


hyp1f1, kve = _scipy_special("hyp1f1"), _scipy_special("kve")


def _incomplete_gamma(a: float, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, P, Q) at each z >= 0 for a > 0, in extended precision (np.longdouble).

    f = z^a e^-z / Gamma(a); P and Q = 1 - P are the regularized incomplete
    gamma functions. Below z = a + 1, P is the series f / a sum_n z^n /
    ((a + 1) ... (a + n)); above it, Q is f times the continued fraction,
    by the modified Lentz method (DLMF 8.7.1 and 8.9.2; Numerical Recipes,
    sec. 6.2). Each point runs until its own next term no longer counts.
    """
    z = np.asarray(z, dtype=_LD)
    # math.gamma is within 2 ulp; past its range lgamma's rounding counts
    log_gamma = np.log(_LD(math.gamma(a))) if a < 171.0 else _LD(math.lgamma(a))
    with np.errstate(divide="ignore"):  # z = 0
        f = np.exp(a * np.log(z) - z - log_gamma)
    eps = np.finfo(_LD).eps
    p, q = np.empty_like(z), np.empty_like(z)
    s = z < a + 1.0
    x = z[s]
    term, total, n, live = np.ones_like(x), np.ones_like(x), 0, np.arange(x.size)
    while live.size:
        n += 1
        term[live] *= x[live] / (a + n)
        total[live] += term[live]
        live = live[term[live] > eps * total[live]]
    p[s] = f[s] / a * total
    b = z[~s] + (1.0 - a)
    c, d = np.full_like(b, _LD(1e300) ** 2), 1.0 / b
    h, i, live = d.copy(), 0, np.arange(b.size)
    while live.size:
        i += 1
        an = -i * (i - a)
        b[live] += 2.0
        d[live] = 1.0 / (an * d[live] + b[live])
        c[live] = b[live] + an / c[live]
        step = d[live] * c[live]
        h[live] *= step
        live = live[np.abs(step - 1.0) > eps]
    q[~s] = f[~s] * h
    p[~s], q[s] = 1.0 - q[~s], 1.0 - p[s]
    return f, p, q


def _chi2_sf(dof: int, x: float) -> float:
    """Chi-square survival function, Q(dof / 2, x / 2)."""
    return float(_incomplete_gamma(0.5 * dof, [0.5 * x])[2][0])


def _kolmogorov_sf(y: float) -> float:
    """Kolmogorov survival function 2 sum_k (-1)^(k-1) e^(-2 k^2 y^2) for
    y >= 1; below 1, one minus the theta form sqrt(2 pi) / y sum_k
    e^(-(2k-1)^2 pi^2 / (8 y^2)). The terms dropped are below 1e-20."""
    if y <= 0.0:
        return 1.0
    if y < 1.0:
        e = math.exp(-math.pi ** 2 / (8.0 * y * y))
        return 1.0 - math.sqrt(2.0 * math.pi) / y * sum(e ** (m * m) for m in (1, 3, 5, 7))
    e = math.exp(-2.0 * y * y)
    return 2.0 * sum((-1) ** (k - 1) * e ** (k * k) for k in range(1, 6))
