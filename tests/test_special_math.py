"""Special-function primitives against high-precision reference values.

Reference numbers were produced with an arbitrary-precision library at 30+
significant digits and are inlined as literals; tolerances reflect each
function's documented accuracy contract.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_linklab import (
    AccuracyBudget,
    DomainError,
    bessel_k_log,
)


def rel(x, ref):
    return abs(x - ref) / abs(ref)


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
        # the densities exponentiate the log, so its value must hold there too
        assert rel(math.exp(bessel_k_log(nu, x)), ref) < 1e-12

    def test_symmetry_in_order(self):
        assert bessel_k_log(-1.7, 2.5) == bessel_k_log(1.7, 2.5)

    def test_log_matches_linear(self):
        for nu, x, ref in self.REFERENCE:
            assert rel(bessel_k_log(nu, x), math.log(ref)) < 1e-12

    def test_log_survives_overflow_regime(self):
        # kve itself overflows here; the small-argument series takes over
        assert rel(bessel_k_log(150.3, 1e-3), 1743.234453320477015584) < 1e-12
        assert rel(bessel_k_log(40.7, 1e-5), 605.3053648030068797287) < 1e-12

    def test_log_vectorized_mixed_regimes(self):
        out = bessel_k_log(np.array([1.2, 150.3]), np.array([3.7, 1e-3]))
        assert rel(out[0], math.log(0.018580829276912110391)) < 1e-12
        assert rel(out[1], 1743.234453320477015584) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k_log(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k_log(1.0, -1.0)

    @given(
        nu=st.floats(0.1, 5.0),
        x=st.floats(0.5, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, nu, x):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
        def k(order):
            return math.exp(bessel_k_log(order, x))
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
            AccuracyBudget(max_terms=0)

    def test_frozen(self):
        b = AccuracyBudget()
        with pytest.raises(Exception):
            b.rel_tol = 1e-3
