"""Composite fading law: mixture construction and the distribution stack.

The float literals are high-precision reference values computed with an
independent arbitrary-precision implementation of the same formulas
(30 significant digits, two cross-checking evaluation routes).
"""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fso_linklab import (
    AccuracyBudget,
    AccuracyError,
    BlockageConfig,
    DegenerateModelError,
    DomainError,
    MalagaParams,
    gk_cdf,
    gk_mgf,
    gk_pdf,
    malaga_blockage_cdf,
    malaga_blockage_mgf,
    malaga_blockage_pdf,
    malaga_cdf,
    malaga_mgf,
    malaga_pdf,
    mixture_weights,
)
from fso_linklab.malaga import _columns, coupling_probability

# the channel most of the suite exercises: moderate turbulence, three
# small-scale branches, strong but not total coherent coupling
PRESET = MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0)

# non-integer small-scale shape: infinite expansion, truncated on demand
REAL_BETA = MalagaParams(alpha=4.2, beta=2.5, rho=0.6, omega=0.2, xi=1.0)


def full_coupling(alpha=4.2, beta=3.0, rho=1.0, **kw):
    """Expansion of the preset channel at (or near) rho = 1."""
    return mixture_weights(
        MalagaParams(alpha=alpha, beta=beta, rho=rho, omega=0.2, xi=1.0, **kw))


def rel(x, ref):
    return abs(x - ref) / abs(ref)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            MalagaParams(alpha=0.0, beta=3.0, rho=0.5, omega=0.2, xi=1.0)
        with pytest.raises(DomainError):
            MalagaParams(alpha=4.2, beta=0.5, rho=0.5, omega=0.2, xi=1.0)
        with pytest.raises(DomainError):
            MalagaParams(alpha=4.2, beta=3.0, rho=1.5, omega=0.2, xi=1.0)
        with pytest.raises(DomainError):
            MalagaParams(alpha=4.2, beta=3.0, rho=0.5, omega=-0.1, xi=1.0)
        with pytest.raises(DomainError):
            MalagaParams(alpha=4.2, beta=3.0, rho=0.5, omega=0.2, xi=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "rho", "omega", "xi", "delta_phi"])
    def test_non_finite_rejected(self, field, bad):
        # NaN passes a sign check, so each field is checked for finiteness too
        good = dict(alpha=4.2, beta=3.0, rho=0.5, omega=0.2, xi=1.0, delta_phi=0.0)
        with pytest.raises(DomainError, match=field):
            MalagaParams(**dict(good, **{field: bad}))

    def test_natural_beta_detection(self):
        assert PRESET.natural_beta
        assert not REAL_BETA.natural_beta
        nearly = MalagaParams(alpha=4.2, beta=3.0 + 1e-12, rho=0.5,
                              omega=0.2, xi=1.0)
        assert nearly.natural_beta

    def test_normalized_mean_is_one(self):
        assert abs(PRESET.mean - 1.0) < 1e-15
        assert abs(REAL_BETA.mean - 1.0) < 1e-15

    def test_power_decomposition_reference(self):
        assert rel(PRESET.omega_prime, 0.8733918658456795765) < 1e-14
        assert rel(PRESET.xi_g, 0.1266081341543204235) < 1e-14

    def test_normalization_is_scale_invariant(self):
        scaled = MalagaParams(alpha=4.2, beta=3.0, rho=0.75,
                              omega=0.2 * 7.0, xi=7.0)
        assert rel(scaled.xi_g, PRESET.xi_g) < 1e-14
        assert rel(scaled.omega_prime, PRESET.omega_prime) < 1e-14

    def test_unnormalized_keeps_raw_power(self):
        raw = MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0,
                           normalize=False)
        assert raw.xi_g == 0.25
        assert raw.mean > 1.0

    def test_blockage_validation(self):
        with pytest.raises(DomainError):
            BlockageConfig(p_b=-0.1)
        with pytest.raises(DomainError):
            BlockageConfig(p_b=1.1)


class TestCouplingProbability:
    def test_reference_value(self):
        assert rel(coupling_probability(PRESET), 0.6969203065201364772) < 1e-14
        assert rel(coupling_probability(REAL_BETA),
                   0.59884794312592424544) < 1e-14

    def test_textbook_case(self):
        # omega' = 0.9 and xi_g = 0.1 with three branches gives p = 3/4
        params = MalagaParams(alpha=4.2, beta=3.0, rho=0.9, omega=0.0, xi=1.0)
        assert abs(coupling_probability(params) - 0.75) < 1e-15

    def test_no_power_raises(self):
        # coherent and coupled fields cancel, nothing scattered free
        dead = MalagaParams(alpha=4.2, beta=3.0, rho=1.0, omega=1.0, xi=1.0,
                            delta_phi=math.pi, normalize=False)
        with pytest.raises(DegenerateModelError):
            coupling_probability(dead)


class TestMixtureNatural:
    def test_textbook_binomial_weights(self):
        params = MalagaParams(alpha=4.2, beta=3.0, rho=0.9, omega=0.0, xi=1.0)
        ex = mixture_weights(params)
        np.testing.assert_allclose(ex.weights, [0.0625, 0.375, 0.5625],
                                   rtol=1e-14)
        np.testing.assert_allclose(ex.means, [0.4, 0.8, 1.2], rtol=1e-14)
        assert ex.natural and ex.tail_mass == 0.0

    def test_preset_reference_values(self):
        ex = mixture_weights(PRESET)
        np.testing.assert_allclose(
            ex.weights,
            [0.091857300599848027577, 0.42244478576003099045,
             0.48569791364012098197], rtol=1e-13)
        np.testing.assert_allclose(
            ex.means,
            [0.41773875610288028233, 0.83547751220576056467,
             1.253216268308640847], rtol=1e-13)

    def test_weights_sum_to_one(self):
        ex = mixture_weights(PRESET)
        assert abs(ex.weights.sum() - 1.0) < 1e-14

    def test_mixture_mean_matches_channel_mean(self):
        ex = mixture_weights(PRESET)
        assert abs(float(ex.weights @ ex.means) - PRESET.mean) < 1e-13

    def test_no_coherent_power_collapses_to_first_order(self):
        params = MalagaParams(alpha=4.2, beta=3.0, rho=0.0, omega=0.0, xi=1.0)
        ex = mixture_weights(params)
        np.testing.assert_allclose(ex.weights, [1.0, 0.0, 0.0], atol=0.0)

    def test_integer_alpha_kept_as_given(self):
        # integer gaps alpha - k are no poles of the kernel
        params = MalagaParams(alpha=4.0, beta=3.0, rho=0.75, omega=0.2, xi=1.0)
        ex = mixture_weights(params)
        assert ex.alpha == 4.0
        assert 0.0 < malaga_cdf(0.5, ex) < 1.0
        assert 0.0 < malaga_mgf(0.5, ex) < 1.0
        assert malaga_pdf(0.5, ex) > 0.0


class TestMixtureRealBeta:
    def test_reference_head(self):
        ex = mixture_weights(REAL_BETA, epsilon=1e-12)
        np.testing.assert_allclose(
            ex.weights[:4],
            [0.10192308453100084245, 0.15259107382109890436,
             0.15991298871999700324, 0.14364534656113399619], rtol=1e-13)
        np.testing.assert_allclose(
            ex.means[:4],
            [0.21132486540518711775, 0.42264973081037423549,
             0.63397459621556135324, 0.84529946162074847098], rtol=1e-13)

    def test_expansion_length_tracks_epsilon(self):
        assert len(mixture_weights(REAL_BETA, epsilon=1e-8).weights) == 44
        assert len(mixture_weights(REAL_BETA, epsilon=1e-12).weights) == 63

    def test_tail_mass_bound(self):
        for eps in (1e-6, 1e-8, 1e-12):
            ex = mixture_weights(REAL_BETA, epsilon=eps)
            assert 0.0 <= 1.0 - ex.weights.sum() <= eps
            assert ex.tail_mass <= eps

    def test_mixture_mean_close_to_one(self):
        ex = mixture_weights(REAL_BETA, epsilon=1e-12)
        assert rel(float(ex.weights @ ex.means), 0.99999999998679040855) < 1e-10

    def test_binding_order_cap_is_an_error(self):
        # a cap that strands visible weight would silently bias every
        # downstream probability, so it has to refuse
        with pytest.raises(AccuracyError, match="k_max"):
            mixture_weights(REAL_BETA, epsilon=1e-12, k_max=10)
        # one branch above the requirement succeeds again
        assert len(mixture_weights(REAL_BETA, epsilon=1e-12, k_max=63).weights) == 63

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            mixture_weights(REAL_BETA, epsilon=0.0)
        with pytest.raises(DomainError):
            mixture_weights(REAL_BETA, epsilon=1.0)
        with pytest.raises(DomainError):
            mixture_weights(REAL_BETA, epsilon=1e-2)
        # natural beta: the finite expansion is exact, any epsilon in (0,1) ok
        assert len(mixture_weights(PRESET, epsilon=0.5).weights) == 3

    def test_full_coupling_is_one_branch(self):
        ex = full_coupling(beta=2.5)
        np.testing.assert_array_equal(ex.orders, [2.5])
        np.testing.assert_array_equal(ex.weights, [1.0])
        np.testing.assert_array_equal(ex.means, [1.0])
        assert ex.xi_g == 0.0 and ex.p == 1.0 and ex.tail_mass == 0.0
        assert ex.alpha == 4.2 and not ex.natural


class TestGeneralizedK:
    def test_cdf_reference_values(self):
        assert rel(gk_cdf(0.3, 4.2, 1.0, 0.4), 0.5733560209277514838) < 1e-9
        assert rel(gk_cdf(0.5, 4.2, 1.0, 0.4), 0.7366276708110601606) < 1e-9
        assert rel(gk_cdf(1.2, 4.2, 3.0, 1.0), 0.7103946758716629561) < 1e-9
        assert rel(gk_cdf(0.05, 4.2, 2.0, 0.66),
                   0.021620234532755402829) < 1e-9

    def test_pdf_reference_value(self):
        assert rel(gk_pdf(0.5, 4.2, 1.0, 0.4), 0.60564853096389159882) < 1e-11

    def test_mgf_reference_values(self):
        assert rel(gk_mgf(5.0, 4.2, 1.0, 0.4), 0.36810082133411012064) < 1e-8
        assert rel(gk_mgf(0.5, 4.2, 3.0, 1.0), 0.6468078911434085909) < 1e-8
        assert rel(gk_mgf(100.0, 4.2, 2.0, 0.66),
                   0.0019343885609456568072) < 1e-8

    def test_pdf_zero_endpoint(self):
        # min(alpha, k) = 1: finite limit Gamma(|alpha-k|) B / (Gamma(alpha) Gamma(k))
        assert rel(gk_pdf(0.0, 4.2, 1.0, 1.0), 1.3125) < 1e-14
        assert rel(gk_pdf(0.0, 4.2, 1.0, 0.4), 3.28125) < 1e-14
        # min(alpha, k) > 1: the density vanishes at the origin
        assert gk_pdf(0.0, 4.2, 2.0, 1.0) == 0.0
        # min(alpha, k) < 1, or alpha = k = 1: the density diverges
        assert gk_pdf(0.0, 0.5, 3.0, 1.0) == math.inf
        assert gk_pdf(0.0, 0.9, 1.0, 1.0) == math.inf
        assert gk_pdf(0.0, 1.0, 1.0, 1.0) == math.inf
        # the endpoint joins the density just off the origin
        assert rel(gk_pdf(1e-12, 4.2, 1.0, 1.0), 1.3125) < 1e-9

    def test_cdf_limits_and_monotonicity(self):
        x = np.geomspace(1e-6, 50.0, 120)
        f = gk_cdf(x, 4.2, 1.0, 0.4)
        assert np.all(np.diff(f) >= 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert gk_cdf(0.0, 4.2, 1.0, 0.4) == 0.0
        assert gk_cdf(np.inf, 4.2, 1.0, 0.4) == 1.0
        assert f[-1] > 1.0 - 1e-9

    def test_cdf_pdf_consistency(self):
        # central difference of the distribution function against the
        # density; h is sized so the difference dominates the CDF's own
        # error budget rather than cancelling into it
        tight = AccuracyBudget(rel_tol=1e-12)
        for x in (0.2, 0.7, 1.5):
            h = 1e-4
            slope = (gk_cdf(x + h, 4.2, 1.0, 0.4, tight)
                     - gk_cdf(x - h, 4.2, 1.0, 0.4, tight)) / (2.0 * h)
            assert rel(slope, gk_pdf(x, 4.2, 1.0, 0.4)) < 1e-5

    def test_series_and_tail_routes_agree(self):
        # z = alpha*k/mean * x straddles the series/quadrature switch; the
        # two routes must join smoothly
        alpha, k, mean = 4.2, 1.0, 0.05
        x = np.linspace(0.5, 3.0, 41)
        f = gk_cdf(x, alpha, k, mean)
        assert np.all(np.diff(f) > 0.0)
        tight = gk_cdf(x, alpha, k, mean, AccuracyBudget(rel_tol=1e-12))
        np.testing.assert_allclose(f, tight, rtol=1e-9)

    def test_mgf_bounds_and_monotonicity(self):
        s = np.geomspace(1e-3, 1e8, 45)
        m = gk_mgf(s, 4.2, 1.0, 0.4)
        assert np.all(np.diff(m) < 0.0)
        assert np.all((m > 0.0) & (m < 1.0))
        assert gk_mgf(0.0, 4.2, 1.0, 0.4) == 1.0

    def test_integer_gap_evaluates(self):
        # alpha - k = 2, where the closed forms (K_2, a Meijer G, U(3, 3, .))
        # have their poles
        assert rel(gk_pdf(0.5, 3.0, 1.0, 1.0), 0.58703556222781826069) < 1e-9
        assert rel(gk_cdf(0.5, 3.0, 1.0, 1.0), 0.46407453378942315840) < 1e-9
        assert rel(gk_mgf(0.5, 3.0, 1.0, 1.0), 0.68890395725978453105) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gk_cdf(-0.1, 4.2, 1.0, 0.4)
        with pytest.raises(DomainError):
            gk_pdf(0.5, -1.0, 1.0, 0.4)
        with pytest.raises(DomainError):
            gk_mgf(-1.0, 4.2, 1.0, 0.4)
        with pytest.raises(DomainError):
            gk_cdf(0.5, 4.2, 1.0, 0.0)

    @pytest.mark.parametrize("alpha,k,mean", [(math.nan, 1.0, 1.0), (2.0, math.nan, 1.0),
                                              (2.0, 1.0, math.nan), (2.0, 1.0, math.inf),
                                              (math.inf, 1.0, 1.0), (2.0, math.inf, 1.0)],
                             ids=["nan-alpha", "nan-k", "nan-mean", "inf-mean",
                                  "inf-alpha", "inf-k"])
    @pytest.mark.parametrize("fn", [gk_pdf, gk_cdf, gk_mgf], ids=["pdf", "cdf", "mgf"])
    def test_non_finite_parameters_rejected(self, fn, alpha, k, mean):
        # NaN passes a sign check, and an infinite shape has no lattice
        with pytest.raises(DomainError):
            fn(1.0, alpha, k, mean)
        with pytest.raises(DomainError):
            fn(np.array([0.5, 1.0]), alpha, np.array([k, 1.0]), mean)

    @pytest.mark.parametrize("fn", [gk_pdf, gk_cdf, gk_mgf], ids=["pdf", "cdf", "mgf"])
    def test_empty_input_gives_empty_output(self, fn):
        empty = np.array([])
        for args, shape in (((empty, 2.0, 1.0, 1.0), (0,)),
                            ((1.0, 2.0, empty, 1.0), (0,)),
                            ((1.0, 2.0, 1.0, empty), (0,)),
                            ((np.zeros((0, 3)), 2.0, np.ones(3), 1.0), (0, 3)),
                            ((np.ones(4)[:, None], 2.0, empty, 1.0), (4, 0))):
            got = fn(*args)
            assert isinstance(got, np.ndarray) and got.shape == shape
        assert malaga_cdf(empty, mixture_weights(PRESET)).shape == (0,)

    def test_vectorized_matches_scalar(self):
        x = np.array([0.05, 0.3, 1.2, 8.0])
        vec = gk_cdf(x, 4.2, 1.0, 0.4)
        for xi, vi in zip(x, vec):
            assert gk_cdf(float(xi), 4.2, 1.0, 0.4) == vi


def per_branch(fn, x, alpha, orders, means, *extra):
    """The (branch x point) table built from one scalar call per pair."""
    return np.array([[fn(float(xv), alpha, float(k), float(mu), *extra) for xv in x]
                     for k, mu in zip(orders, means)])


def broadcast(fn, x, alpha, orders, means, *extra):
    return fn(np.asarray(x)[None, :], alpha, np.asarray(orders)[:, None],
              np.asarray(means)[:, None], *extra)


class TestBroadcast:
    """One call over (branch x point) equals the scalar calls, bit for bit."""

    NATURAL = mixture_weights(PRESET)
    REAL = mixture_weights(REAL_BETA)
    # 0, series points, points past the series limit (tail) and infinity
    CDF_X = [0.0, 1e-3, 0.05, 0.4, 1.3, 3.0, 9.0, 40.0, math.inf]

    @pytest.mark.parametrize("ex", [NATURAL, REAL], ids=["beta3", "beta2.5"])
    def test_cdf(self, ex):
        want = per_branch(gk_cdf, self.CDF_X, ex.alpha, ex.orders, ex.means)
        got = broadcast(gk_cdf, self.CDF_X, ex.alpha, ex.orders, ex.means)
        assert got.shape == (len(ex.orders), len(self.CDF_X))
        assert np.array_equal(got, want)
        assert np.all(got[:, 0] == 0.0) and np.all(got[:, -1] == 1.0)

    @pytest.mark.parametrize("ex", [NATURAL, REAL], ids=["beta3", "beta2.5"])
    def test_pdf(self, ex):
        x = [0.0, 1e-4, 0.3, 1.0, 2.5, 7.0]
        want = per_branch(gk_pdf, x, ex.alpha, ex.orders, ex.means)
        got = broadcast(gk_pdf, x, ex.alpha, ex.orders, ex.means)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha", [4.2, 0.5, 1.0])
    def test_pdf_zero_limits(self, alpha):
        # i = 0 per branch: 0 above min(alpha, k) = 1, finite at 1, infinite
        # below 1 and at alpha = k = 1
        orders, means = [1.0, 2.0, 3.5], [0.4, 1.0, 2.0]
        x = [0.0, 0.5]
        got = broadcast(gk_pdf, x, alpha, orders, means)
        assert np.array_equal(got, per_branch(gk_pdf, x, alpha, orders, means))
        assert np.isinf(got[0, 0]) == (alpha <= 1.0)

    @pytest.mark.parametrize("ex", [NATURAL, REAL], ids=["beta3", "beta2.5"])
    def test_mgf(self, ex):
        s = [0.0, 1e-70, 0.5, 20.0, 1e4]
        n = 12  # the first branches keep the scalar loop short
        want = per_branch(gk_mgf, s, ex.alpha, ex.orders[:n], ex.means[:n])
        got = broadcast(gk_mgf, s, ex.alpha, ex.orders[:n], ex.means[:n])
        assert np.array_equal(got, want)
        assert np.all(got[:, 0] == 1.0)

    def test_mixture_is_one_call_per_law(self, monkeypatch):
        # the density, the cdf and the transform are one kernel row over the
        # whole expansion, never a branch at a time
        import fso_linklab.malaga as malaga
        rows = []
        orig_law = malaga._law
        monkeypatch.setattr(malaga, "_law", lambda kind, arg, alpha, w, k, *a: rows.append(
            (kind, arg.shape, np.shape(k))) or orig_law(kind, arg, alpha, w, k, *a))
        ex = self.REAL
        x = np.linspace(0.1, 3.0, 7)
        malaga_cdf(x, ex)
        malaga_mgf(x, ex)
        malaga_pdf(x, ex)
        assert rows == [(kind, (7,), (1, len(ex.orders))) for kind in ("cdf", "mgf", "pdf")]

    def test_point_blocks_match_one_call(self, monkeypatch):
        # long grids run in blocks of points to bound memory; the values
        # do not depend on the block size
        import fso_linklab.malaga as malaga
        ex = self.REAL
        x = np.linspace(0.0, 6.0, 41)
        whole = [malaga_pdf(x, ex), malaga_cdf(x, ex), malaga_mgf(x[:5], ex)]
        # a few points per block, down to one
        for elements in (600, 1):
            monkeypatch.setattr(malaga, "_KERNEL_ELEMENTS", elements)
            blocked = [malaga_pdf(x, ex), malaga_cdf(x, ex), malaga_mgf(x[:5], ex)]
            for got, want in zip(blocked, whole):
                assert np.array_equal(got, want)

    def test_integer_gap_in_one_branch_evaluates(self):
        # alpha - k = 1 in the middle branch only; each branch as on its own
        orders, means = [1.5, 2.0, 2.5], [1.0, 1.0, 1.0]
        for fn in (gk_pdf, gk_cdf, gk_mgf):
            got = broadcast(fn, [0.5, 2.0], 3.0, orders, means)
            assert np.array_equal(got, per_branch(fn, [0.5, 2.0], 3.0, orders, means))
            assert np.all(np.isfinite(got) & (got > 0.0))


class TestMemory:
    # tracemalloc counts numpy's buffers: exact allocations, not timings

    @pytest.mark.parametrize("fn,n", [(gk_pdf, 10_000), (gk_mgf, 3_000)],
                             ids=["pdf", "mgf"])
    def test_distinct_orders_stay_within_blocks(self, fn, n):
        # one kernel row per distinct order: a block forms node weights for
        # its own rows on its own nodes only, about 10 MB in all here, where
        # weights for every row on every node would take 23 MB (pdf) and
        # 28 MB (mgf)
        x, k = np.geomspace(1e-3, 1e3, n), np.linspace(0.5, 20.0, n)
        fn(x[:3], 4.2, k[:3], 1.0)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(x, 4.2, k, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20


class TestKernel:
    """The log-trapezoid kernel behind every generalized-K and mixture law."""

    EX = mixture_weights(REAL_BETA)
    X = [1e-10, 0.3, 50.0, 2.0, 1e-4]
    S = [1e-6, 0.7, 1e8, 30.0, 1e-3]
    LAWS = {
        "gk_pdf": (lambda a: gk_pdf(a, 4.2, 2.0, 0.6), X),
        "gk_cdf": (lambda a: gk_cdf(a, 4.2, 2.0, 0.6), X),
        "gk_mgf": (lambda a: gk_mgf(a, 4.2, 2.0, 0.6), S),
        "malaga_pdf": (lambda a: malaga_pdf(a, TestKernel.EX), X),
        "malaga_cdf": (lambda a: malaga_cdf(a, TestKernel.EX), X),
        "malaga_mgf": (lambda a: malaga_mgf(a, TestKernel.EX), S),
        "blockage_pdf": (lambda a: malaga_blockage_pdf(
            a, TestKernel.EX, BlockageConfig(p_b=0.3)), X),
        "blockage_cdf": (lambda a: malaga_blockage_cdf(
            a, TestKernel.EX, BlockageConfig(p_b=0.3)), X),
    }

    @pytest.mark.parametrize("name", list(LAWS))
    def test_point_alone_equals_any_batch(self, name):
        fn, points = self.LAWS[name]
        alone = {p: fn(p) for p in points}
        for batch in (points, points[::-1], sorted(points),
                      [points[2], points[0], points[2], points[1]]):
            assert fn(np.array(batch)).tolist() == [alone[p] for p in batch]

    @pytest.mark.parametrize("fn,points", [(gk_cdf, [1e-10, 0.5, 40.0]),
                                           (gk_mgf, [1e-6, 0.5, 1e8])],
                             ids=["cdf", "mgf"])
    def test_refined_point_equals_its_scalar_call(self, fn, points, monkeypatch):
        import fso_linklab.malaga as malaga
        steps = []
        orig = malaga._conditional
        monkeypatch.setattr(malaga, "_conditional", lambda kind, log_ar, u, *a: steps.append(
            u[1] - u[0]) or orig(kind, log_ar, u, *a))
        orders, means = [1.0, 150.0], [0.4, 60.0]
        got = broadcast(fn, points, 4.2, orders, means)
        # an order-150 branch is too narrow in log y for the first step
        assert min(steps) < 0.6 * malaga._H0
        assert np.array_equal(got, per_branch(fn, points, 4.2, orders, means))

    def test_lattice_cap_raises(self, monkeypatch):
        import fso_linklab.malaga as malaga
        monkeypatch.setattr(malaga, "_HALVINGS", 0)
        with pytest.raises(AccuracyError, match="lattice step"):
            gk_cdf(0.5, 4.2, 150.0, 60.0)

    def test_budget_below_rounding_raises(self):
        tight = AccuracyBudget(rel_tol=1e-16)
        for call in (lambda: gk_cdf(0.5, 4.2, 1.0, 0.4, tight),
                     lambda: gk_mgf(0.5, 4.2, 1.0, 0.4, tight),
                     lambda: malaga_cdf(0.5, self.EX, tight),
                     lambda: malaga_mgf(0.5, self.EX, tight)):
            with pytest.raises(AccuracyError):
                call()

    @pytest.mark.parametrize("ex", [mixture_weights(PRESET), EX], ids=["beta3", "beta2.5"])
    def test_exact_end_values(self, ex):
        assert gk_cdf(0.0, 4.2, 2.0, 0.6) == 0.0
        assert gk_cdf(math.inf, 4.2, 2.0, 0.6) == 1.0
        assert gk_mgf(0.0, 4.2, 2.0, 0.6) == 1.0
        assert gk_mgf(1e-70, 4.2, 2.0, 0.6) == 1.0
        # a truncated mixture keeps its own mass sum_k w_k at the ends
        mass = float(np.cumsum(ex.weights)[-1])
        assert malaga_cdf(0.0, ex) == 0.0
        assert malaga_cdf(math.inf, ex) == mass
        assert malaga_mgf(0.0, ex) == mass
        assert malaga_mgf(1e-70, ex) == mass


class TestMixtureLaws:
    def test_pdf_reference_value(self):
        ex = mixture_weights(PRESET)
        assert rel(malaga_pdf(1.0, ex), 0.43124373904388229797) < 1e-11

    def test_pdf_at_zero(self):
        # only the order-1 branch has a nonzero limit, alpha / ((alpha-1) mu_1)
        ex = mixture_weights(PRESET)
        w1, mu1 = ex.weights[0], ex.means[0]
        assert rel(malaga_pdf(0.0, ex), w1 * 4.2 / (3.2 * mu1)) < 1e-14

    def test_blockage_reference_values(self):
        ex = mixture_weights(PRESET)
        b3 = BlockageConfig(p_b=0.3)
        b1 = BlockageConfig(p_b=0.1)
        assert rel(malaga_blockage_pdf(0.3, ex, b3),
                   0.73691204033332673123) < 1e-11
        assert rel(malaga_blockage_cdf(0.5, ex, b3),
                   0.53210328414831558946) < 1e-9
        assert rel(malaga_blockage_mgf(2.0, ex, b3),
                   0.44938252848941884248) < 1e-8
        assert rel(malaga_blockage_mgf(1e4, ex, b1),
                   0.00012952784076044686299) < 1e-8

    def test_real_beta_blockage_pdf(self):
        ex = mixture_weights(REAL_BETA, epsilon=1e-12)
        assert rel(malaga_blockage_pdf(0.4, ex, BlockageConfig(p_b=0.2)),
                   0.70231407959306792778) < 1e-10

    def test_blockage_mixes_the_two_branches(self):
        ex = mixture_weights(PRESET)
        x = 0.7
        free = malaga_cdf(x, ex)
        blocked = gk_cdf(x, ex.alpha, 1.0, ex.xi_g)
        for p_b in (0.0, 0.25, 1.0):
            combined = malaga_blockage_cdf(x, ex, BlockageConfig(p_b=p_b))
            assert rel(combined, p_b * blocked + (1.0 - p_b) * free) < 1e-14

    def test_cdf_normalizes(self):
        ex = mixture_weights(PRESET)
        assert malaga_cdf(0.0, ex) == 0.0
        assert malaga_cdf(60.0, ex) > 1.0 - 1e-9

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad
        ex = mixture_weights(PRESET)
        total, err = quad(lambda t: malaga_pdf(t, ex), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_mgf_matches_numerical_transform(self):
        from scipy.integrate import quad
        ex = mixture_weights(PRESET)
        bl = BlockageConfig(p_b=0.3)
        for s in (0.5, 2.0, 20.0):
            ref, _ = quad(lambda t: math.exp(-s * t)
                          * malaga_blockage_pdf(t, ex, bl),
                          0.0, np.inf, limit=300)
            assert rel(malaga_blockage_mgf(s, ex, bl), ref) < 1e-7


class TestHugeArguments:
    # past alpha x / theta = 1e300 the density is 0 and the cdf the mass in
    # doubles; x / theta may overflow there, so each law takes that limit
    # before the kernel runs, without a warning
    @pytest.mark.parametrize("x", [1e300, 1e307, 1.7e308])
    @pytest.mark.parametrize("params", [PRESET, REAL_BETA], ids=["natural", "real"])
    def test_far_limit_without_warnings(self, x, params):
        ex = mixture_weights(params)
        bl = BlockageConfig(p_b=0.3)
        mass, blocked_mass = malaga_cdf(math.inf, ex), malaga_blockage_cdf(math.inf, ex, bl)
        assert mass > 1.0 - 1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gk_pdf(x, 4.2, 1.0, 0.3) == 0.0
            assert gk_cdf(x, 4.2, 1.0, 0.3) == 1.0
            assert malaga_pdf(x, ex) == 0.0
            assert malaga_cdf(x, ex) == mass
            assert malaga_blockage_pdf(x, ex, bl) == 0.0
            assert malaga_blockage_cdf(x, ex, bl) == blocked_mass
            assert malaga_pdf(np.array([1.0, x]), ex)[1] == 0.0


class TestGammaGammaLimit:
    """rho = 1: one two-gamma branch of order beta plus an atom at zero."""

    def test_full_coupling_limit_of_the_mixture(self):
        # rho just below one: the mixture must approach the two-gamma law
        ex = full_coupling(rho=1.0 - 1e-4)
        x = np.linspace(0.05, 3.0, 30)
        mix = malaga_pdf(x, ex)
        gg = malaga_pdf(x, full_coupling())
        assert np.max(np.abs(mix - gg)) / np.max(gg) < 0.01

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad
        ex = full_coupling()
        total, _ = quad(lambda t: malaga_pdf(t, ex), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-9

    def test_cdf_and_mgf_behave(self):
        ex = full_coupling()
        assert malaga_cdf(0.0, ex) == 0.0
        assert malaga_cdf(50.0, ex) > 1.0 - 1e-9
        assert malaga_mgf(0.0, ex) == 1.0
        assert 0.0 < malaga_mgf(5.0, ex) < 1.0

    def test_integer_gap_handled_internally(self):
        # alpha - beta = 2: no pole for the kernel, so alpha stays as given
        ex = full_coupling(alpha=4.0, beta=2.0)
        assert ex.alpha == 4.0
        assert 0.0 < malaga_cdf(0.5, ex) < 1.0
        assert 0.0 < malaga_mgf(1.0, ex) < 1.0

    def test_integer_gap_with_real_beta(self):
        ex = full_coupling(alpha=4.5, beta=2.5)
        assert ex.alpha == 4.5
        bl = BlockageConfig(p_b=0.2)
        assert 0.2 < malaga_blockage_cdf(0.5, ex, bl) < 1.0
        assert 0.2 < malaga_blockage_mgf(1.0, ex, bl) < 1.0
        assert malaga_blockage_pdf(0.5, ex, bl) > 0.0

    @pytest.mark.parametrize("beta", [3.0, 2.5])
    def test_blockage_adds_an_atom_at_zero(self, beta):
        ex = full_coupling(beta=beta)
        p_b = 0.2
        bl = BlockageConfig(p_b=p_b)
        # the blocked branch is the atom: pdf 0, cdf 1, mgf 1, bit for bit
        for x in (0.5, np.array([0.05, 0.5, 1.0, 2.5])):
            np.testing.assert_array_equal(
                malaga_blockage_cdf(x, ex, bl),
                p_b + (1.0 - p_b) * gk_cdf(x, 4.2, beta, 1.0))
            np.testing.assert_array_equal(
                malaga_blockage_mgf(x, ex, bl),
                p_b + (1.0 - p_b) * gk_mgf(x, 4.2, beta, 1.0))
            np.testing.assert_array_equal(
                malaga_blockage_pdf(x, ex, bl),
                (1.0 - p_b) * gk_pdf(x, 4.2, beta, 1.0))

    def test_unnormalized_limit_is_continuous(self):
        # without normalization the coupled branch keeps mean omega', and the
        # law at rho = 1 is the limit of the laws just below it
        bl = BlockageConfig(p_b=0.2)
        at = full_coupling(normalize=False)
        near = full_coupling(rho=1.0 - 1e-9, normalize=False)
        assert at.means[0] == at.omega_prime > 1.0
        x = np.array([0.05, 0.5, 1.0, 2.0, 4.0])
        for law in (malaga_blockage_cdf, malaga_blockage_mgf, malaga_blockage_pdf):
            np.testing.assert_allclose(law(x, at, bl), law(x, near, bl),
                                       rtol=0.0, atol=1e-6)


# channels for the stacked-kernel property: natural and real beta with
# different branch counts, rho = 1 (an atom when blocked), p = 0 (omega' = 0:
# only the first branch weighs) and p = 1 (xi_g below one ulp of omega':
# only the top branch weighs)
_NATURAL = st.builds(
    lambda beta, power: MalagaParams(alpha=1.0, beta=beta, xi=1.0, **power),
    st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    st.sampled_from([dict(rho=0.3, omega=0.2), dict(rho=0.75, omega=0.2),
                     dict(rho=0.999, omega=0.2), dict(rho=1.0, omega=0.2),
                     dict(rho=0.0, omega=0.0), dict(rho=1.0 - 2.0 ** -53, omega=1e3)]))
_REAL = st.builds(
    lambda beta, power: MalagaParams(alpha=1.0, beta=beta, xi=1.0, **power),
    st.sampled_from([1.5, 2.5]),
    st.sampled_from([dict(rho=0.3, omega=0.2), dict(rho=0.75, omega=0.2),
                     dict(rho=1.0, omega=0.2), dict(rho=0.0, omega=0.0)]))
_POINT = st.one_of(st.sampled_from([0.0, math.inf]),
                   st.floats(min_value=-12.0, max_value=9.0).map(lambda e: 10.0 ** e))


_LAWS = {"pdf": (gk_pdf, malaga_pdf), "cdf": (gk_cdf, malaga_cdf),
         "mgf": (gk_mgf, malaga_mgf)}
_ATOM = {"pdf": 0.0, "cdf": 1.0, "mgf": 1.0}


def _alone(kind, x, ex, budget):
    """The blocked and unblocked columns of one channel from the public laws."""
    gk, mixture = _LAWS[kind]
    blocked = (np.full(x.shape, _ATOM[kind]) if ex.xi_g == 0.0
               else gk(x, ex.alpha, 1.0, ex.xi_g, budget))
    return blocked, mixture(x, ex, budget)


class TestStackedChannels:
    """Many channels through one kernel call equal their public laws one by one."""

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alpha=st.sampled_from([0.7, 1.0, 2.0, 4.2]),
           channels=st.lists(st.tuples(st.one_of(_NATURAL, _REAL),
                                       st.lists(_POINT, max_size=5)),
                             min_size=1, max_size=4),
           rel_tol=st.sampled_from([None, 1e-6, 1e-12, 1e-14, 2e-14]))
    def test_stack_equals_each_channel_alone(self, kind, alpha, channels, rel_tol):
        budget = None if rel_tol is None else AccuracyBudget(rel_tol=rel_tol)
        expansions = [mixture_weights(dataclasses.replace(params, alpha=alpha))
                      for params, _ in channels]
        points = [np.array(pts) for _, pts in channels]
        alone = []
        for ex, x in zip(expansions, points):
            try:
                alone.append(_alone(kind, x, ex, budget))
            except AccuracyError:
                alone.append(None)
        if any(pair is None for pair in alone):
            # the budget is checked against each channel's own floor, so
            # the stack fails exactly when one of its channels does
            with pytest.raises(AccuracyError):
                _columns(kind, points, expansions, budget)
            return
        blocked, unblocked = _columns(kind, points, expansions, budget)
        assert len(blocked) == len(unblocked) == len(expansions)
        for (want_b, want_u), got_b, got_u, x in zip(alone, blocked, unblocked, points):
            assert got_b.shape == got_u.shape == x.shape
            assert np.array_equal(got_b, want_b) and np.array_equal(got_u, want_u)

    def test_scalar_points_give_floats(self):
        ex = mixture_weights(PRESET)
        (blocked,), (unblocked,) = _columns("cdf", [0.5], [ex])
        assert type(blocked) is float and type(unblocked) is float
        assert (blocked, unblocked) == _alone("cdf", np.array(0.5), ex, None)

    def test_rounding_floor_is_per_channel(self):
        # at 2e-14 the 3- and 14-branch channels clear their floors and the
        # 44-branch one does not; the 3-branch row is padded to 14 branches
        budget = AccuracyBudget(rel_tol=2e-14)
        natural = mixture_weights(PRESET)
        short, long = (mixture_weights(dataclasses.replace(REAL_BETA, rho=rho))
                       for rho in (0.1, 0.6))
        assert (len(short.orders), len(long.orders)) == (14, 44)
        x = np.array([0.1, 1.0, 3.0])
        with pytest.raises(AccuracyError, match="rounding floor"):
            malaga_cdf(x, long, budget)
        blocked, unblocked = _columns("cdf", [x, x], [natural, short], budget)
        for ex, got in zip((natural, short), zip(blocked, unblocked)):
            want = _alone("cdf", x, ex, budget)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with pytest.raises(AccuracyError, match="rounding floor"):
            _columns("cdf", [x, x], [natural, long], budget)

    def test_channels_must_share_alpha(self):
        other = mixture_weights(dataclasses.replace(PRESET, alpha=2.0))
        with pytest.raises(DomainError, match="alpha"):
            _columns("cdf", [[0.5], [0.5]], [mixture_weights(PRESET), other])


# real beta: theta = xi_g, so the blocked branch rides in the unblocked
# pass as a second weight row; rho = 1 gives a channel with an atom instead
_RIDING = st.builds(
    lambda beta, rho: MalagaParams(alpha=1.0, beta=beta, rho=rho, omega=0.2, xi=1.0),
    st.sampled_from([1.5, 2.5, 4.7]), st.sampled_from([0.0, 0.3, 0.6, 0.75, 1.0]))
# 0, infinity, points that refine (1e-10, 50) and, for the transform, the
# linear region s E[I] <= 1e-10 of one column but not of the other
_EDGE_POINT = st.one_of(st.sampled_from([0.0, math.inf, 1e-10, 50.0, 2e-10]), _POINT)


class TestOnePass:
    """The blocked column of a real-beta channel is a second row of its pass."""

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alpha=st.sampled_from([0.5, 0.8, 1.0, 2.0, 4.2]),
           channels=st.lists(
               st.tuples(_RIDING, st.lists(_EDGE_POINT, min_size=1, max_size=6)),
               min_size=1, max_size=4),
           p_bs=st.sampled_from([None, (0.3,), (0.0, 0.01), (0.0, 1.0)]))
    def test_columns_equal_the_public_laws(self, kind, alpha, channels, p_bs):
        expansions = [mixture_weights(dataclasses.replace(params, alpha=alpha))
                      for params, _ in channels]
        points = [np.array(pts) for _, pts in channels]
        blocked, unblocked = _columns(kind, points, expansions, None, p_bs)
        for ex, x, got_b, got_u in zip(expansions, points, blocked, unblocked):
            want_b, want_u = _alone(kind, x, ex, None)
            assert np.array_equal(got_b, want_b) and np.array_equal(got_u, want_u)

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alpha=st.sampled_from([0.5, 0.8, 1.0, 2.0, 4.2]),
           params=st.one_of(_NATURAL, _REAL, _RIDING),
           x=st.lists(_EDGE_POINT, min_size=1, max_size=6),
           p_b=st.sampled_from([0.0, 1.0]))
    def test_zero_weight_column_is_left_out(self, kind, alpha, params, x, p_b):
        ex = mixture_weights(dataclasses.replace(params, alpha=alpha))
        x = np.array(x)
        b, u = _alone(kind, x, ex, None)
        law = {"pdf": malaga_blockage_pdf, "cdf": malaga_blockage_cdf,
               "mgf": malaga_blockage_mgf}[kind]
        got = law(x, ex, BlockageConfig(p_b=p_b))
        with np.errstate(invalid="ignore"):
            mixed = p_b * b + (1.0 - p_b) * u
        finite = np.isfinite(mixed)
        assert np.array_equal(got[finite], mixed[finite])
        # and where 0 * inf made the mix NaN, the weighed column alone
        assert np.array_equal(got, u if p_b == 0.0 else b)

    def test_density_at_the_origin_has_no_nan(self):
        # alpha <= 1: both branches are infinite at x = 0, and a zero weight
        # on one of them made 0 * inf = NaN
        ex = mixture_weights(dataclasses.replace(PRESET, alpha=0.8))
        atom = full_coupling(alpha=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert malaga_blockage_pdf(0.0, ex, BlockageConfig(p_b=0.0)) == math.inf
            assert malaga_blockage_pdf(0.0, ex, BlockageConfig(p_b=1.0)) == math.inf
            # at rho = 1 the blocked mass is the atom: no continuous part
            assert malaga_blockage_pdf(0.0, atom, BlockageConfig(p_b=1.0)) == 0.0
            got = malaga_blockage_pdf(np.array([0.0, 0.5]), ex, BlockageConfig(p_b=0.0))
        assert got[0] == math.inf and got[1] == malaga_pdf(0.5, ex)


class TestKernelCalls:
    """Kernel passes per law call, counted: one per lattice that carries weight."""

    X = np.array([0.05, 0.7, 2.5])

    @pytest.fixture
    def passes(self, monkeypatch):
        import fso_linklab.malaga as malaga
        calls = []
        trapezoid = malaga._trapezoid
        monkeypatch.setattr(malaga, "_trapezoid",
                            lambda *args: calls.append(args[0]) or trapezoid(*args))
        return calls

    LAWS = [malaga_blockage_pdf, malaga_blockage_cdf, malaga_blockage_mgf]

    def test_real_beta_blockage_is_one_pass(self, passes):
        malaga_blockage_cdf(self.X, mixture_weights(REAL_BETA), BlockageConfig(p_b=0.3))
        assert passes == ["cdf"]

    def test_natural_beta_blockage_is_two_passes(self, passes):
        # theta = xi_g + omega' / beta: the blocked branch has a lattice of its own
        malaga_blockage_cdf(self.X, mixture_weights(PRESET), BlockageConfig(p_b=0.3))
        assert passes == ["cdf", "cdf"]

    @pytest.mark.parametrize("law", LAWS, ids=["pdf", "cdf", "mgf"])
    @pytest.mark.parametrize("params", [PRESET, REAL_BETA], ids=["beta3", "beta2.5"])
    @pytest.mark.parametrize("p_b", [0.0, 1.0])
    def test_zero_weight_column_makes_no_pass(self, passes, law, params, p_b):
        law(self.X, mixture_weights(params), BlockageConfig(p_b=p_b))
        assert len(passes) == 1

    @pytest.mark.parametrize("law", LAWS, ids=["pdf", "cdf", "mgf"])
    def test_full_coupling_fully_blocked_makes_none(self, passes, law):
        ex, bl = full_coupling(), BlockageConfig(p_b=1.0)
        atom = {malaga_blockage_pdf: 0.0}.get(law, 1.0)
        assert np.array_equal(law(self.X, ex, bl), np.full(3, atom))
        # the arguments are still checked where no kernel runs
        for bad in (math.nan, -1.0):
            with pytest.raises(DomainError):
                law(np.array([0.5, bad]), ex, bl)
        assert passes == []
