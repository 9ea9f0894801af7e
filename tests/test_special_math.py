"""The Bessel K function carried by the generalized-K density, the budget,
and the special functions the library computes itself: the kernel's table
of P(a, z) and the chi-square and Kolmogorov tails of the GOF tests.

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

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln, kolmogorov

from fso_linklab import (
    AccuracyBudget,
    DomainError,
    gk_pdf,
)
from fso_linklab.malaga import _gamma_table, _lower_gamma, _upper_log
from fso_linklab.special_math import _chi2_sf, _kolmogorov_sf

TIGHT = AccuracyBudget(rel_tol=1e-12)


def rel(x, ref):
    return float(abs(x - ref) / abs(ref))


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


class TestLowerGamma:
    """P(a, z) from the kernel's per-a Taylor table, against mpmath and scipy.

    The table takes log z, so the reference is P(a, e^w) at the double w
    itself, and scipy's is P(a, z) at the double z = e^w it was given.
    """

    EPS = 2.0 ** -52
    RNG = np.random.default_rng(16)
    ALPHAS = [float(a) for a in np.r_[
        np.exp(RNG.uniform(math.log(0.05), math.log(50.0), 20)), np.arange(1.0, 13.0)]]

    @classmethod
    def points(cls, a):
        """log z over the table: log-uniform z from 1e-300 to the upper cut,
        table nodes and the midpoints between them (where the nearest node
        changes), the switch to the series below the table, and the ulp on
        either side of each."""
        step, lo, coef, v0, _, _ = _gamma_table(a)
        top = _upper_log(a)
        nodes = (lo + cls.RNG.integers(0, coef.shape[1], 8)) * step
        w = np.r_[cls.RNG.uniform(math.log(1e-300), top, 40), nodes, nodes + step / 2,
                  v0, -40.5, -100.0, -690.0]
        w = np.r_[w, np.nextafter(w, -np.inf), np.nextafter(w, np.inf)]
        return w[w < top], v0

    @staticmethod
    def ref(a, w=None, z=None):
        """P(a, e^w), or P(a, z), from the doubles given."""
        with mp.workdps(30):
            return mp.gammainc(a, 0, mp.exp(w) if z is None else z, regularized=True)

    def test_against_mpmath_and_scipy(self):
        ours_max = scipy_max = 0.0
        for a in self.ALPHAS:
            w, v0 = self.points(a)
            ours, theirs = _lower_gamma(a, w), gammainc(a, np.exp(w))
            for wi, o, s in zip(w.tolist(), ours.tolist(), theirs.tolist()):
                ref = self.ref(a, w=wi)
                if ref < np.finfo(float).tiny:
                    continue  # subnormal: no relative accuracy to claim
                err = float(abs(o - ref) / ref)
                # rows to an ulp; below them the series' scale carries the
                # rounding of a (w - v0)
                assert err <= (4.0 + a * max(v0 - wi, 0.0)) * self.EPS, (a, wi, err)
                ours_max = max(ours_max, err)
                scipy_max = max(scipy_max, rel(s, self.ref(a, z=float(np.exp(wi)))))
        assert ours_max <= 2.0 * scipy_max, (ours_max, scipy_max)

    def test_one_at_and_past_the_upper_cut(self):
        for a in (0.05, 4.2, 50.0):
            top = _upper_log(a)
            w = np.array([top, top + 1e-9, top + 3.0, 700.0])
            assert (_lower_gamma(a, w) == 1.0).all()

    def test_value_alone_equals_value_in_any_batch(self):
        a = 4.2
        w, _ = self.points(a)
        batch = _lower_gamma(a, w)
        alone = [_lower_gamma(a, np.array([wi]))[0] for wi in w.tolist()]
        assert batch.tolist() == alone
        assert _lower_gamma(a, w[::-1]).tolist() == alone[::-1]

    def test_table_is_cached_and_small(self):
        step, lo, coef, *_ = _gamma_table(4.2)
        assert _gamma_table(4.2)[2] is coef
        assert step == 1 / 64 and coef.shape[0] == 9 and coef.nbytes < 256 * 1024


class TestGofTails:
    EPS = 2.0 ** -52

    @pytest.mark.parametrize("dof", [1, 2, 3, 10, 52, 65, 250])
    def test_chi2_survival_against_mpmath(self, dof):
        for x in (1e-8, 0.5, 0.3 * dof, dof - 1.0, float(dof), dof + 0.5, 1.7 * dof,
                  3.0 * dof + 40.0, 500.0):
            with mp.workdps(40):
                ref = mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
            assert rel(_chi2_sf(dof, x), ref) <= 8 * self.EPS, (dof, x)

    def test_kolmogorov_survival_against_mpmath(self):
        errs, scipy_errs = [], []
        for y in np.r_[np.linspace(0.02, 6.0, 120), np.nextafter(1.0, 0.0), 1.0, 8.0, 18.6]:
            y = float(y)
            with mp.workdps(60):
                my = mp.mpf(y)
                if y < 0.5:  # the alternating series converges slowly there
                    ref = 1 - mp.jtheta(4, 0, mp.exp(-2 * my * my))
                else:
                    ref = 2 * mp.fsum((-1) ** (k - 1) * mp.exp(-2 * k * k * my * my)
                                      for k in range(1, 60))
            err = rel(_kolmogorov_sf(y), ref)
            # the tail is e^(-2 y^2): the rounding of 2 y^2 is an absolute error
            assert err <= (8.0 + 4.0 * y * y) * self.EPS, (y, err)
            errs.append(err)
            scipy_errs.append(rel(kolmogorov(y), ref))
        assert max(errs) <= 2.0 * max(scipy_errs)
        assert _kolmogorov_sf(0.0) == 1.0
