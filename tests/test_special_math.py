"""The Bessel K function carried by the generalized-K density, and the budget.

The density of a generalized-K channel is 2 b^h i^(h-1) K_nu(2 sqrt(b i)) /
(Gamma(alpha) Gamma(k)) with nu = alpha - k, h = (alpha + k) / 2 and
b = alpha k / mean. The kernel evaluates it without the Bessel function, so
reading K_nu back out of gk_pdf checks the density against high-precision
Bessel values, including orders and arguments where scipy's scaled Bessel
function overflows. Reference numbers were produced with an
arbitrary-precision library at 30+ significant digits and are inlined as
literals.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fso_linklab import (
    AccuracyBudget,
    DomainError,
    gk_pdf,
)

TIGHT = AccuracyBudget(rel_tol=1e-12)


def rel(x, ref):
    return abs(x - ref) / abs(ref)


def log_bessel_k(nu, x, alpha=None):
    """log K_nu(x) from the density of shapes alpha and k = alpha - nu, mean 1.

    alpha defaults to nu + 1, an order-one branch.
    """
    nu, x = np.asarray(nu, dtype=float), np.asarray(x, dtype=float)
    alpha = nu + 1.0 if alpha is None else alpha
    k = alpha - nu
    b = alpha * k
    i = x * x / (4.0 * b)
    h = 0.5 * (alpha + k)
    f = np.asarray(gk_pdf(i, alpha, k, 1.0, TIGHT))
    out = (np.log(f) + gammaln(alpha) + gammaln(k) - math.log(2.0)
           - h * np.log(b) - (h - 1.0) * np.log(i))
    return float(out) if out.ndim == 0 else out


class TestBesselK:
    # order/argument pairs spanning the mixture's operating range
    REFERENCE = [
        (1.2, 3.7, 0.018580829276912110391),
        (0.2, 1e-8, 104.90715487457536238),
        (3.2, 0.5, 99.51427663623295039),
        (2.7, 120.0, 9.0327011587182378907e-54),
    ]

    @pytest.mark.parametrize("nu,x,ref", REFERENCE)
    def test_reference_values(self, nu, x, ref):
        assert rel(math.exp(log_bessel_k(nu, x)), ref) < 1e-12

    def test_symmetry_in_order(self):
        # K_-nu = K_nu: the density is symmetric in its two shapes, here
        # (alpha, k) = (2.7, 1) against (1, 2.7)
        assert rel(log_bessel_k(-1.7, 2.5, alpha=1.0), log_bessel_k(1.7, 2.5)) < 1e-12

    def test_log_matches_linear(self):
        for nu, x, ref in self.REFERENCE:
            assert rel(log_bessel_k(nu, x), math.log(ref)) < 1e-12

    def test_log_survives_overflow_regime(self):
        # scipy's kve overflows here; the density needs no Bessel function
        assert rel(log_bessel_k(150.3, 1e-3), 1743.234453320477015584) < 1e-12
        assert rel(log_bessel_k(40.7, 1e-5), 605.3053648030068797287) < 1e-12

    def test_log_vectorized_mixed_regimes(self):
        # one broadcast call: orders k = 1 and 152.5 against alpha = 2.2, the
        # second on K_-150.3 = K_150.3
        out = log_bessel_k(np.array([1.2, -150.3]), np.array([3.7, 1e-3]), alpha=2.2)
        assert rel(out[0], math.log(0.018580829276912110391)) < 1e-12
        assert rel(out[1], 1743.234453320477015584) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gk_pdf(-1.0, 2.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            gk_pdf(math.nan, 2.2, 1.0, 1.0)

    @given(
        nu=st.floats(0.1, 5.0),
        x=st.floats(0.5, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, nu, x):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), each from an order-2 branch
        def k(order):
            return math.exp(log_bessel_k(order, x, alpha=2.0 + order))
        lhs = k(nu + 1.0)
        rhs = k(nu - 1.0) + (2.0 * nu / x) * k(nu)
        assert rel(lhs, rhs) < 1e-11


class TestAccuracyBudget:
    def test_validation(self):
        with pytest.raises(DomainError):
            AccuracyBudget(rel_tol=0.0)
        with pytest.raises(DomainError):
            AccuracyBudget(rel_tol=2.0)
        with pytest.raises(DomainError):
            AccuracyBudget(rel_tol=1.0)

    def test_frozen(self):
        b = AccuracyBudget()
        with pytest.raises(Exception):
            b.rel_tol = 1e-3
