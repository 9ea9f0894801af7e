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
    mixture_weights,
)
from fso_linklab.malaga import _laws, coupling_probability
from fso_linklab.outage import subchannel_diversity

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
        assert 0.0 < malaga_blockage_cdf(0.5, ex) < 1.0
        assert 0.0 < malaga_blockage_mgf(0.5, ex) < 1.0
        assert malaga_blockage_pdf(0.5, ex) > 0.0


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
        with pytest.raises(DomainError, match="k_max"):
            mixture_weights(REAL_BETA, k_max=0)

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
        assert malaga_blockage_cdf(empty, mixture_weights(PRESET)).shape == (0,)

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
        monkeypatch.setattr(malaga, "_law", lambda kind, arg, alpha, entry, *a: rows.append(
            (kind, arg.shape, entry.orders.shape)) or orig_law(kind, arg, alpha, entry, *a))
        ex = self.REAL
        x = np.linspace(0.1, 3.0, 7)
        malaga_blockage_cdf(x, ex)
        malaga_blockage_mgf(x, ex)
        malaga_blockage_pdf(x, ex)
        assert rows == [(kind, (7,), (1, len(ex.orders))) for kind in ("cdf", "mgf", "pdf")]

    def test_point_blocks_match_one_call(self, monkeypatch):
        # long grids run in blocks of points to bound memory; the values
        # do not depend on the block size
        import fso_linklab.malaga as malaga
        ex = self.REAL
        x = np.linspace(0.0, 6.0, 41)
        whole = [malaga_blockage_pdf(x, ex), malaga_blockage_cdf(x, ex),
                 malaga_blockage_mgf(x[:5], ex)]
        # a few points per block, down to one
        for elements in (600, 1):
            monkeypatch.setattr(malaga, "_KERNEL_ELEMENTS", elements)
            blocked = [malaga_blockage_pdf(x, ex), malaga_blockage_cdf(x, ex),
                       malaga_blockage_mgf(x[:5], ex)]
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
        "malaga_pdf": (lambda a: malaga_blockage_pdf(a, TestKernel.EX), X),
        "malaga_cdf": (lambda a: malaga_blockage_cdf(a, TestKernel.EX), X),
        "malaga_mgf": (lambda a: malaga_blockage_mgf(a, TestKernel.EX), S),
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
                     lambda: malaga_blockage_cdf(0.5, self.EX, budget=tight),
                     lambda: malaga_blockage_mgf(0.5, self.EX, budget=tight)):
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
        assert malaga_blockage_cdf(0.0, ex) == 0.0
        assert malaga_blockage_cdf(math.inf, ex) == mass
        assert malaga_blockage_mgf(0.0, ex) == mass
        assert malaga_blockage_mgf(1e-70, ex) == mass


class TestLeftTail:
    """The closed-form left tail: one power series in t per kernel row."""

    @staticmethod
    def lattice_sum(log_w, k_lo, last, h, stride):
        """h sum_k w_k / Gamma(k) exp(k u_j - e^u_j) over u_j = j h, j = last,
        last - stride, ..., node by node in mpmath, until the rest is below
        1e-18 of the sum."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            w = [mp.exp(mp.mpf(v)) for v in log_w if v > -math.inf]
            step = mp.mpf(h) * stride
            u = mp.mpf(last) * h
            t, shrink = mp.exp(u), mp.exp(-step)
            power, fall = mp.exp(k_lo * u), mp.exp(-k_lo * step)
            # leftwards a node falls at least like e^(k_lo u), within e^(t_last)
            rest = mp.exp(t) / (1 - fall) * mp.mpf(1e18)
            cut = w[0] * mp.mpf(1e-22)  # terms of degree n fall at least like t^n
            total = mp.mpf(0)
            while True:
                branches, tn = w[0], mp.mpf(1)
                for wk in w[1:]:
                    tn *= t
                    if tn < cut:
                        break
                    branches += wk * tn
                node = power * mp.exp(-t) * branches
                total += node
                if node * rest < total:
                    return float(h * total)
                t *= shrink
                power *= fall

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("h", [1 / 8, 1 / 256], ids=["h1/8", "h1/256"])
    @pytest.mark.parametrize("k_lo", [0.5, 1.0, 2.5, 7.0])
    def test_equals_the_lattice_sum(self, k_lo, h, stride):
        import fso_linklab.malaga as malaga
        rng = np.random.default_rng([int(2 * k_lo), int(1 / h), stride])
        # two rows of orders k_lo, k_lo + 1, ..., the narrower padded with
        # zero weights, as _laws pads them
        widths = [int(rng.integers(1, 81)), 80]
        log_w = np.full((2, 80), -np.inf)
        for r, width in enumerate(widths):
            orders = k_lo + np.arange(width)
            log_w[r, :width] = (np.log(rng.uniform(0.5, 1.0, width))
                                - [math.lgamma(k) for k in orders])
        last = np.floor(rng.uniform(-40.0, -2.0, 2) / h)
        tail = malaga._left_tail(log_w, np.full(2, k_lo))
        # a repeated (row, last) pair, and points in either order
        at = np.array([0, 1, 0])
        if stride == 1:
            got = tail(np.r_[last, last[0]], at, h)
        else:
            # every other node: half the sum at step 2 h, up to node last / 2
            last -= last % 2.0
            got = 0.5 * tail(np.r_[last, last[0]] * 0.5, at, 2.0 * h)
        assert got[2] == got[0]
        for p in range(2):
            want = self.lattice_sum(log_w[p], k_lo, last[p], h, stride)
            assert rel(got[p], want) < 1e-14, (widths[p], last[p] * h)

    # the power series needs each row's live orders to run k_lo, k_lo + 1, ...:
    # every expansion's nonzero weights are one unbroken run of its orders
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(beta=st.one_of(st.integers(1, 60).map(float), st.floats(1.0, 6.0)),
           rho=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 1.0),
                         st.floats(1.0 - 1e-6, 1.0)),
           omega=st.one_of(st.just(0.0), st.floats(1e-300, 1e-6), st.floats(1e-6, 10.0)))
    def test_live_orders_are_consecutive(self, beta, rho, omega):
        try:
            ex = mixture_weights(MalagaParams(alpha=2.0, beta=beta, rho=rho,
                                              omega=omega, xi=1.0))
        except (AccuracyError, DegenerateModelError):
            return  # refused: no kernel row is built
        live = np.flatnonzero(ex.weights)
        assert live.size and np.array_equal(live, np.arange(live[0], live[-1] + 1))
        assert np.all(np.diff(ex.orders[live]) == 1.0)


class TestRowTables:
    """The kernel's tables of row sets: values do not depend on what they hold."""

    X = np.geomspace(1e-4, 8.0, 37)
    S = np.geomspace(1e-3, 1e6, 23)
    LAWS = {"pdf": (malaga_blockage_pdf, X), "cdf": (malaga_blockage_cdf, X),
            "mgf": (malaga_blockage_mgf, S)}

    @pytest.fixture
    def tables(self, monkeypatch):
        # tables of this test's own, so no other test's sets are in them
        import fso_linklab.malaga as malaga

        def fresh(budget=8 << 20):
            monkeypatch.setattr(malaga, "_TABLES", malaga._Tables(budget))
            return malaga._TABLES
        return fresh

    # every per-row constant an entry keeps, from its second call on
    CONSTANTS = ("weights", "orders", "log_w", "mass", "mean", "k_ends", "width", "top")

    @classmethod
    def arrays(cls, tables):
        for entry in tables.sets.values():
            if entry.weights is not None:
                yield from (getattr(entry, name) for name in cls.CONSTANTS)
            for held in (*entry.nodes.values(), *entry.sums.values()):
                yield held[1]

    @staticmethod
    def formed(monkeypatch):
        # node-weight passes, tail series and values merged into the tables
        import fso_linklab.malaga as malaga
        calls = []
        for owner, name in ((malaga, "_node_weights"), (malaga, "_left_tail"),
                            (malaga._TABLES, "merge")):
            orig = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _n=name, _f=orig:
                                calls.append(_n) or _f(*a))
        return calls

    @classmethod
    def counted(cls, entry):
        # an entry's bytes: its arrays' and the key's, and a flat charge for
        # the entry and for each table
        import fso_linklab.malaga as malaga
        key = sum(len(w) + len(k) for w, k in entry.key)
        tables = [a for _, a in (*entry.nodes.values(), *entry.sums.values())]
        constants = 0
        if entry.weights is not None:
            # the left tail's coefficients and powers, K + 11 per row each
            shape = entry.weights.shape
            constants = (sum(getattr(entry, name).nbytes for name in cls.CONSTANTS)
                         + 16 * shape[0] * (shape[1] + malaga._TAYLOR.size - 1))
        return (malaga._ENTRY_BYTES * (1 + len(tables)) + key + constants
                + sum(a.nbytes for a in tables))

    # the tight budgets sit just above each channel's rounding floor, where
    # every law halves the step
    @pytest.mark.parametrize("tight", [False, True], ids=["default", "halvings"])
    @pytest.mark.parametrize("params,tol", [(PRESET, 2e-14), (REAL_BETA, 1e-13)],
                             ids=["beta3", "beta2.5"])
    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    def test_cold_and_warm_tables_agree_bit_for_bit(self, tables, monkeypatch, kind,
                                                     params, tol, tight):
        law, points = self.LAWS[kind]
        ex, bl = mixture_weights(params), BlockageConfig(p_b=0.3)
        budget = AccuracyBudget(rel_tol=tol) if tight else None
        cache = tables()
        cold = law(points, ex, bl, budget)
        # a set's first call only records it
        assert len(cache.sets) == 1 and not list(self.arrays(cache))
        filling = law(points, ex, bl, budget)
        (entry,) = cache.sets.values()
        assert entry.weights is not None and len(entry.nodes) > (1 if tight else 0)
        assert bool(entry.sums) == (kind != "pdf")
        calls = self.formed(monkeypatch)
        warm = law(points, ex, bl, budget)
        # a warm call on the same points forms nothing again
        assert calls == []
        assert np.array_equal(cold, filling) and np.array_equal(cold, warm)
        # the blocked and unblocked rows, each a set on its own
        for p_b in (0.0, 1.0):
            alone = [law(points, ex, BlockageConfig(p_b=p_b), budget) for _ in range(3)]
            assert all(np.array_equal(a, alone[0]) for a in alone)
        assert len(cache.sets) == 3

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    def test_a_grown_entry_equals_a_fresh_wide_call(self, tables, kind):
        import fso_linklab.malaga as malaga
        law, points = self.LAWS[kind]
        # a density window far right moves the node range's right end too
        points = np.r_[points, 1e4]
        ex, bl = mixture_weights(REAL_BETA), BlockageConfig(p_b=0.3)
        fresh_wide = law(points, ex, bl)
        cache = tables()
        narrow = points[15:20]
        law(narrow, ex, bl)
        law(narrow, ex, bl)
        (entry,) = cache.sets.values()
        held = dict(entry.nodes)
        assert np.array_equal(law(points, ex, bl), fresh_wide)
        sides = set()
        for h, (i0, q) in held.items():
            # the entry now spans the union of both requests, and keeps
            # what it held
            i1, wide = entry.nodes[h]
            assert i1 <= i0 and i1 + wide.shape[1] >= i0 + q.shape[1]
            kept = wide[:, i0 - i1:i0 - i1 + q.shape[1]]
            assert np.array_equal(kept[~np.isnan(q)], q[~np.isnan(q)])
            sides |= {"left"} if i1 < i0 else set()
            sides |= {"right"} if i1 + wide.shape[1] > i0 + q.shape[1] else set()
            # each weight equals its node's formed in one piece, over the
            # padded rows (padding adds exact zeros)
            u = np.arange(i1, i1 + wide.shape[1]) * h
            whole = malaga._node_weights(entry.log_w, entry.orders, h, u, np.exp(u))
            formed = ~np.isnan(wide)
            assert formed.any() and np.array_equal(wide[formed], whole[formed])
        assert sides == ({"left", "right"} if kind == "pdf" else {"left"})
        assert np.array_equal(law(points, ex, bl), fresh_wide)

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    def test_a_merge_keeps_what_the_tables_held(self, tables, monkeypatch, kind):
        # two calls on disjoint points: each one's values stay held
        law, points = self.LAWS[kind]
        ex, bl = mixture_weights(REAL_BETA), BlockageConfig(p_b=0.3)
        tables()
        first, second = points[15:20], points[25:30]
        want = [law(first, ex, bl), law(second, ex, bl)]
        tables()
        law(first, ex, bl)
        law(first, ex, bl)
        law(second, ex, bl)
        calls = self.formed(monkeypatch)
        assert np.array_equal(law(first, ex, bl), want[0])
        assert np.array_equal(law(second, ex, bl), want[1])
        assert calls == []

    def test_budget_holds_and_arrays_stay_read_only(self, tables):
        cache = tables(budget=96 << 10)
        x, bl = np.geomspace(1e-3, 5.0, 9), BlockageConfig(p_b=0.1)
        channels = [mixture_weights(dataclasses.replace(REAL_BETA, rho=rho))
                    for rho in np.linspace(0.05, 0.7, 320)]
        first = []
        for ex in channels:
            first.append(malaga_blockage_cdf(x, ex, bl))
            assert np.array_equal(malaga_blockage_cdf(x, ex, bl), first[-1])
            # wider points grow the tables the second call filled
            malaga_blockage_cdf(np.geomspace(1e-4, 8.0, 11), ex, bl)
            assert np.array_equal(malaga_blockage_cdf(x, ex, bl), first[-1])
            assert cache.nbytes <= cache.budget
            assert cache.nbytes == sum(map(self.counted, cache.sets.values()))
        assert 0 < len(cache.sets) < len(channels)  # sets were dropped
        assert all(not a.flags.writeable for a in self.arrays(cache))
        # a dropped set's values are formed again, bit for bit
        for _ in range(3):
            assert np.array_equal(malaga_blockage_cdf(x, channels[0], bl), first[0])

    def test_a_table_wider_than_the_budget_is_not_kept(self, tables):
        # 6 kB hold this set's constants and two of its three node tables;
        # the widest, 2 rows x 443 nodes, is not merged, and every value is
        # that of a call with room for all of them
        s, bl = np.geomspace(1e-3, 1e6, 60), BlockageConfig(p_b=0.1)
        ex = mixture_weights(PRESET)
        roomy = tables()
        want = [malaga_blockage_mgf(s, ex, bl) for _ in range(3)]
        (entry,) = roomy.sets.values()
        widths = sorted(a.shape[1] for _, a in (*entry.nodes.values(), *entry.sums.values()))
        cache = tables(budget=6 << 10)
        got = [malaga_blockage_mgf(s, ex, bl) for _ in range(3)]
        (entry,) = cache.sets.values()
        assert entry.weights is not None and cache.nbytes <= cache.budget
        assert widths[-1] == 443 and sorted(
            a.shape[1] for _, a in (*entry.nodes.values(), *entry.sums.values())) == widths[:-1]
        assert all(np.array_equal(a, want[0]) for a in want + got)

    def test_orders_grids_keep_nothing(self, tables):
        # gk_*'s rows, one per order, are formed anew on each call
        cache = tables()
        k = np.linspace(0.5, 20.0, 50)
        for _ in range(3):
            gk_cdf(np.geomspace(1e-2, 10.0, 50), 4.2, k, 1.0)
        assert len(cache.sets) == 0

    def test_threads_share_the_tables(self, tables):
        # threads evaluating at once against a small budget: every value as
        # computed alone, and the byte count still the sum of the sets'
        import sys
        import threading
        x, bl = np.geomspace(1e-3, 5.0, 7), BlockageConfig(p_b=0.1)
        channels = [mixture_weights(dataclasses.replace(REAL_BETA, rho=rho))
                    for rho in np.linspace(0.1, 0.7, 12)]
        want = [malaga_blockage_cdf(x, ex, bl) for ex in channels]
        cache = tables(budget=64 << 10)
        bad = []

        def lane(k):
            for n in range(24):
                g = (k + n) % len(channels)
                if not np.array_equal(malaga_blockage_cdf(x, channels[g], bl), want[g]):
                    bad.append(g)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            lanes = [threading.Thread(target=lane, args=(k,)) for k in range(6)]
            for t in lanes:
                t.start()
            for t in lanes:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in lanes)
        assert bad == []
        assert cache.nbytes <= cache.budget
        assert cache.nbytes == sum(map(self.counted, cache.sets.values()))


class TestSmallCalls:
    """A one-point call is its point in a long call, bit for bit, whatever the tables hold."""

    # 196 grid points and, spread among them, the edges: 0, inf, a point
    # past _FAR for the density and cdf, and for the transform a point in
    # its linear region (s E[I] <= 1e-10) and one far out
    X = np.insert(np.geomspace(1e-4, 8.0, 196), [0, 60, 120, 196], [0.0, 1e300, math.inf, 0.0])
    S = np.insert(np.geomspace(1e-3, 1e6, 196), [0, 60, 120, 196], [1e-12, 1e300, math.inf, 0.0])
    LAWS = {"pdf": (malaga_blockage_pdf, X), "cdf": (malaga_blockage_cdf, X),
            "mgf": (malaga_blockage_mgf, S)}

    @pytest.fixture
    def tables(self, monkeypatch):
        import fso_linklab.malaga as malaga

        def fresh():
            monkeypatch.setattr(malaga, "_TABLES", malaga._Tables(8 << 20))
            return malaga._TABLES
        return fresh

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    @pytest.mark.parametrize("p_b", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("params", [PRESET, REAL_BETA], ids=["beta3", "beta2.5"])
    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    def test_one_point_equals_its_place_in_a_long_call(self, tables, kind, params, p_b):
        law, points = self.LAWS[kind]
        ex, bl = mixture_weights(params), BlockageConfig(p_b=p_b)
        tables()
        long = law(points, ex, bl)
        assert long.shape == (200,) and np.isfinite(long).all()
        cold = []
        for x in points.tolist():
            tables()  # each point is its row set's first call
            cold.append(law(x, ex, bl))
        assert all(type(v) is float for v in cold)
        assert np.array_equal(self.bits(cold), self.bits(long))
        cache = tables()
        law(points, ex, bl)
        law(points, ex, bl)
        (entry,) = cache.sets.values()
        assert entry.weights is not None  # every point below reads the kept set
        warm = [law(x, ex, bl) for x in points.tolist()]
        assert np.array_equal(self.bits(warm), self.bits(long))
        assert np.array_equal(self.bits(law(points, ex, bl)), self.bits(long))
        # tables kept from every 25th point: the others read gaps of the
        # tables, values not formed yet
        tables()
        for _ in range(3):
            law(points[::25], ex, bl)
        gaps = [law(x, ex, bl) for x in points.tolist()]
        assert np.array_equal(self.bits(gaps), self.bits(long))

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    def test_a_row_set_carries_no_theta(self, tables, kind):
        # two channels with the same weights and orders but their own theta
        # and xi_g share one row set, found by content
        law, points = self.LAWS[kind]
        ex = mixture_weights(REAL_BETA)
        other = dataclasses.replace(ex, means=ex.means * 1.7, xi_g=ex.xi_g * 0.6)
        bl = BlockageConfig(p_b=0.01)
        want = []
        for channel in (ex, other):
            tables()
            want.append(law(points, channel, bl))
        assert not np.array_equal(want[0], want[1])
        cache = tables()
        for _ in range(3):
            law(points, ex, bl)
        assert np.array_equal(self.bits(law(points, other, bl)), self.bits(want[1]))
        stacked = _laws(kind, [points, points[::-1]], [ex, other], None, [0.01])
        assert np.array_equal(self.bits(stacked[0][0]), self.bits(want[0]))
        assert np.array_equal(self.bits(stacked[1][0]), self.bits(want[1][::-1]))
        assert [len(key) for key in cache.sets] == [2, 4]


class TestMixtureLaws:
    def test_pdf_reference_value(self):
        ex = mixture_weights(PRESET)
        assert rel(malaga_blockage_pdf(1.0, ex), 0.43124373904388229797) < 1e-11

    def test_pdf_at_zero(self):
        # only the order-1 branch has a nonzero limit, alpha / ((alpha-1) mu_1)
        ex = mixture_weights(PRESET)
        w1, mu1 = ex.weights[0], ex.means[0]
        assert rel(malaga_blockage_pdf(0.0, ex), w1 * 4.2 / (3.2 * mu1)) < 1e-14

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
        free = malaga_blockage_cdf(x, ex)
        blocked = gk_cdf(x, ex.alpha, 1.0, ex.xi_g)
        for p_b in (0.0, 0.25, 1.0):
            combined = malaga_blockage_cdf(x, ex, BlockageConfig(p_b=p_b))
            assert rel(combined, p_b * blocked + (1.0 - p_b) * free) < 1e-14

    def test_cdf_normalizes(self):
        ex = mixture_weights(PRESET)
        assert malaga_blockage_cdf(0.0, ex) == 0.0
        assert malaga_blockage_cdf(60.0, ex) > 1.0 - 1e-9

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad
        ex = mixture_weights(PRESET)
        total, err = quad(lambda t: malaga_blockage_pdf(t, ex), 0.0, np.inf, limit=200)
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
        mass = malaga_blockage_cdf(math.inf, ex)
        blocked_mass = malaga_blockage_cdf(math.inf, ex, bl)
        assert mass > 1.0 - 1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gk_pdf(x, 4.2, 1.0, 0.3) == 0.0
            assert gk_cdf(x, 4.2, 1.0, 0.3) == 1.0
            assert malaga_blockage_pdf(x, ex) == 0.0
            assert malaga_blockage_cdf(x, ex) == mass
            assert malaga_blockage_pdf(x, ex, bl) == 0.0
            assert malaga_blockage_cdf(x, ex, bl) == blocked_mass
            assert malaga_blockage_pdf(np.array([1.0, x]), ex)[1] == 0.0

    # past every lattice the transform follows its power tail
    # s^alpha M(s) -> sum_k w_k b_k (every order k > alpha = 0.6 here)
    @pytest.mark.parametrize("s", [1e300, 1e307, 1.7e308])
    def test_transform_power_tail_without_warnings(self, s):
        ex = mixture_weights(dataclasses.replace(REAL_BETA, alpha=0.6, rho=0.75))
        tail = math.fsum(w * subchannel_diversity(0.6, k, m)[1]
                         for w, k, m in zip(ex.weights, ex.orders, ex.means))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rel(s ** 0.6 * malaga_blockage_mgf(s, ex), tail) < 3e-14
            assert rel(s ** 0.6 * gk_mgf(s, 0.6, 1.0, 0.5),
                       subchannel_diversity(0.6, 1.0, 0.5)[1]) < 3e-14


class TestSubnormalDensity:
    # x f(x) is itself subnormal below the smallest normal double, where the
    # kernel's sum keeps no relative accuracy: the density raises there and
    # holds its x = 0 limit from the first normal x up
    LAWS = {
        "gk_pdf": lambda x: gk_pdf(x, 4.2, 1.0, 0.5),
        "malaga_pdf_beta3": lambda x: malaga_blockage_pdf(x, mixture_weights(PRESET)),
        "malaga_pdf_beta2.5": lambda x: malaga_blockage_pdf(
            x, mixture_weights(dataclasses.replace(PRESET, beta=2.5))),
        "blockage_pdf": lambda x: malaga_blockage_pdf(
            x, mixture_weights(PRESET), BlockageConfig(p_b=0.3)),
    }

    @pytest.mark.parametrize("name", list(LAWS))
    def test_subnormal_raises_and_normal_holds_the_limit(self, name):
        law = self.LAWS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = law(0.0)
            assert 0.0 < at_zero < math.inf
            for x in (5e-324, 1e-320):
                with pytest.raises(AccuracyError, match="subnormal"):
                    law(x)
                with pytest.raises(AccuracyError, match="subnormal"):
                    law(np.array([0.5, x]))
            for x in (2.3e-308, 1e-300):
                assert rel(law(x), at_zero) < 1e-9


class TestSubnormalCdf:
    # below x = 1e-250 every CDF here is its small-x law F ~ x^alpha (the
    # next term is smaller by x^(1 - alpha)), also where x / theta is
    # subnormal and alpha r keeps only a digit or two as a double
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
    def test_follows_the_power_law(self, alpha):
        ex = mixture_weights(dataclasses.replace(PRESET, alpha=alpha, beta=3.0))
        laws = [lambda x: malaga_blockage_cdf(x, ex),
                lambda x: malaga_blockage_cdf(x, ex, BlockageConfig(p_b=0.3)),
                lambda x: gk_cdf(x, alpha, 2.0, 0.7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for law in laws:
                ref = law(1e-250)
                for x in (5e-324, 1e-320, 1e-310):
                    assert rel(law(x), ref * (x / 1e-250) ** alpha) < 1e-12, x


class TestGammaGammaLimit:
    """rho = 1: one two-gamma branch of order beta plus an atom at zero."""

    def test_full_coupling_limit_of_the_mixture(self):
        # rho just below one: the mixture must approach the two-gamma law
        ex = full_coupling(rho=1.0 - 1e-4)
        x = np.linspace(0.05, 3.0, 30)
        mix = malaga_blockage_pdf(x, ex)
        gg = malaga_blockage_pdf(x, full_coupling())
        assert np.max(np.abs(mix - gg)) / np.max(gg) < 0.01

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad
        ex = full_coupling()
        total, _ = quad(lambda t: malaga_blockage_pdf(t, ex), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-9

    def test_cdf_and_mgf_behave(self):
        ex = full_coupling()
        assert malaga_blockage_cdf(0.0, ex) == 0.0
        assert malaga_blockage_cdf(50.0, ex) > 1.0 - 1e-9
        assert malaga_blockage_mgf(0.0, ex) == 1.0
        assert 0.0 < malaga_blockage_mgf(5.0, ex) < 1.0

    def test_integer_gap_handled_internally(self):
        # alpha - beta = 2: no pole for the kernel, so alpha stays as given
        ex = full_coupling(alpha=4.0, beta=2.0)
        assert ex.alpha == 4.0
        assert 0.0 < malaga_blockage_cdf(0.5, ex) < 1.0
        assert 0.0 < malaga_blockage_mgf(1.0, ex) < 1.0

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


_LAWS = {"pdf": (gk_pdf, malaga_blockage_pdf), "cdf": (gk_cdf, malaga_blockage_cdf),
         "mgf": (gk_mgf, malaga_blockage_mgf)}
_ATOM = {"pdf": 0.0, "cdf": 1.0, "mgf": 1.0}


def _alone(kind, x, ex, budget):
    """The blocked and unblocked laws of one channel from the public laws."""
    gk, mixture = _LAWS[kind]
    blocked = (np.full(x.shape, _ATOM[kind]) if ex.xi_g == 0.0
               else gk(x, ex.alpha, 1.0, ex.xi_g, budget))
    return blocked, mixture(x, ex, budget=budget)


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
                _laws(kind, points, expansions, budget, [1.0, 0.0])
            return
        laws = _laws(kind, points, expansions, budget, [1.0, 0.0])
        assert len(laws) == len(expansions)
        for (want_b, want_u), (got_b, got_u), x in zip(alone, laws, points):
            assert got_b.shape == got_u.shape == x.shape
            assert np.array_equal(got_b, want_b) and np.array_equal(got_u, want_u)

    def test_scalar_points_give_floats(self):
        # the laws of a scalar point are one value per p_b; the public laws
        # return a float for one channel and one blockage, and an array
        # with an axis for each sequence
        ex = mixture_weights(PRESET)
        (law,) = _laws("cdf", [0.5], [ex], None, [1.0, 0.0])
        assert law.shape == (2,)
        assert tuple(law.tolist()) == _alone("cdf", np.array(0.5), ex, None)
        bl = BlockageConfig(p_b=0.3)
        for public in (malaga_blockage_pdf, malaga_blockage_cdf, malaga_blockage_mgf):
            assert type(public(0.5, ex)) is float
            assert type(public(0.5, ex, bl)) is float
            assert public(0.5, [ex]).shape == public(0.5, ex, [bl]).shape == (1,)
            assert public(0.5, [ex, ex], [bl, bl, bl]).shape == (2, 3)

    def test_empty_sequences_are_refused(self):
        ex = mixture_weights(PRESET)
        for public in (malaga_blockage_pdf, malaga_blockage_cdf, malaga_blockage_mgf):
            with pytest.raises(DomainError, match="empty sequence of MixtureExpansion"):
                public(0.5, [])
            with pytest.raises(DomainError, match="empty sequence of BlockageConfig"):
                public(0.5, ex, [])

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
            malaga_blockage_cdf(x, long, budget=budget)
        laws = _laws("cdf", [x, x], [natural, short], budget, [1.0, 0.0])
        for ex, got in zip((natural, short), laws):
            want = _alone("cdf", x, ex, budget)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with pytest.raises(AccuracyError, match="rounding floor"):
            _laws("cdf", [x, x], [natural, long], budget, [0.0])

    def test_channels_must_share_alpha(self):
        other = mixture_weights(dataclasses.replace(PRESET, alpha=2.0))
        with pytest.raises(DomainError, match="alpha"):
            _laws("cdf", [[0.5], [0.5]], [mixture_weights(PRESET), other], None, [0.0])


# real beta over the coupling range (theta = xi_g); rho = 1 gives a channel
# with an atom instead of a blocked row
_REAL_RHO = st.builds(
    lambda beta, rho: MalagaParams(alpha=1.0, beta=beta, rho=rho, omega=0.2, xi=1.0),
    st.sampled_from([1.5, 2.5, 4.7]), st.sampled_from([0.0, 0.3, 0.6, 0.75, 1.0]))
# 0, infinity, points that refine (1e-10, 50) and, for the transform, the
# linear region s E[I] <= 1e-10 of one column but not of the other
_EDGE_POINT = st.one_of(st.sampled_from([0.0, math.inf, 1e-10, 50.0, 2e-10]), _POINT)


class TestOnePass:
    """Blocked branches are rows of the one kernel pass, natural and real beta alike."""

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alpha=st.sampled_from([0.5, 0.8, 1.0, 2.0, 4.2]),
           channels=st.lists(
               st.tuples(st.one_of(_REAL_RHO, _NATURAL),
                         st.lists(_EDGE_POINT, min_size=1, max_size=6)),
               min_size=1, max_size=4),
           p_bs=st.sampled_from([(1.0, 0.3, 0.0), (0.3,), (0.0, 0.01), (0.0, 1.0),
                                 (1.0,), (0.5, 1.0, 0.5)]))
    def test_laws_equal_the_public_laws(self, kind, alpha, channels, p_bs):
        expansions = [mixture_weights(dataclasses.replace(params, alpha=alpha))
                      for params, _ in channels]
        points = [np.array(pts) for _, pts in channels]
        laws = _laws(kind, points, expansions, None, p_bs)
        for ex, x, law in zip(expansions, points, laws):
            assert law.shape == (len(p_bs), *x.shape)
            b, u = _alone(kind, x, ex, None)
            for p_b, got in zip(p_bs, law):
                # p_b = 1 and 0 give each law alone; a mix between them
                # weighs two values that are both finite or +inf
                want = b if p_b == 1.0 else u if p_b == 0.0 else p_b * b + (1.0 - p_b) * u
                assert np.array_equal(got, want)
        # the public law stacks every channel at every blockage, channels
        # first, ahead of the points' shape; each slice is its own call
        public = _LAWS[kind][1]
        x = np.concatenate(points)
        blockages = [BlockageConfig(p_b=p_b) for p_b in p_bs]
        stacked = public(x, expansions, blockages)
        assert stacked.shape == (len(expansions), len(p_bs), *x.shape)
        for ex, per_channel in zip(expansions, stacked):
            for bl, got in zip(blockages, per_channel):
                assert np.array_equal(got, public(x, ex, bl))
        # a single channel or blockage, not in a sequence, has no axis
        for g in (0, slice(0, 1)):
            for b in (0, slice(0, 1)):
                got = public(x, expansions[g], blockages[b])
                assert got.shape == stacked[g, b].shape
                assert np.array_equal(got, stacked[g, b])

    @pytest.mark.parametrize("kind", ["pdf", "cdf", "mgf"])
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(alpha=st.sampled_from([0.5, 0.8, 1.0, 2.0, 4.2]),
           params=st.one_of(_NATURAL, _REAL, _REAL_RHO),
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
        assert got[0] == math.inf and got[1] == malaga_blockage_pdf(0.5, ex)

    def test_laws_at_every_p_b_have_no_nan(self):
        # one call at p_b = 0, 0.5 and 1 where both laws are infinite at x = 0
        ex = mixture_weights(dataclasses.replace(PRESET, alpha=0.8))
        x = np.array([0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (law,) = _laws("pdf", [x], [ex], None, (0.0, 0.5, 1.0))
        assert not np.isnan(law).any()
        assert np.array_equal(law[:, 0], np.full(3, math.inf))
        assert law[0, 1] == malaga_blockage_pdf(0.5, ex)
        assert law[2, 1] == malaga_blockage_pdf(0.5, ex, BlockageConfig(p_b=1.0))
        # the rows at p_b = 0 and 1 mixed by hand as at p_b = 0: 0 * inf
        with np.errstate(invalid="ignore"):
            assert math.isnan(0.0 * law[2, 0] + 1.0 * law[0, 0])


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

    def test_natural_and_real_beta_blockage_is_one_pass(self, passes):
        # the blocked branch is a row of its own at scale xi_g, whatever the
        # mixture's theta (xi_g + omega' / beta for natural beta), so every
        # law and every stacked call is one kernel pass
        bl = BlockageConfig(p_b=0.3)
        natural, real = mixture_weights(PRESET), mixture_weights(REAL_BETA)
        for law, kind in zip(self.LAWS, ("pdf", "cdf", "mgf")):
            for ex in (natural, real):
                passes.clear()
                law(self.X, ex, bl)
                assert passes == [kind]
            passes.clear()
            _laws(kind, [self.X, self.X[:2]], [natural, real], None, [0.0, 0.3, 1.0])
            assert passes == [kind]

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
