"""Monte Carlo sampler: determinism, statistical agreement, GOF machinery."""
import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from fso_linklab import (
    AccuracyBudget,
    BlockageConfig,
    DomainError,
    MalagaParams,
    McConfig,
    SnrPoint,
    chunk_plan,
    chunk_rng,
    collect_samples,
    empirical_outage,
    gof_chisquare,
    gof_ks,
    malaga_blockage_cdf,
    mixture_weights,
    sample_chunk,
    sample_irradiance,
    summarize,
    summarize_values,
)
from fso_linklab import montecarlo
from fso_linklab.montecarlo import _ks_candidates, _ks_cdf_evaluator, _wilson_interval

PRESET = MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0)
EXPANSION = mixture_weights(PRESET)
REAL_BETA = MalagaParams(alpha=4.2, beta=2.5, rho=0.6, omega=0.2, xi=1.0)
PB01 = BlockageConfig(p_b=0.1)
PB0 = BlockageConfig(p_b=0.0)


def rel(value, ref):
    return float(abs(value - ref) / abs(ref))

# first draws for seed 20240817, pinned to catch silent stream changes
FIRST_TEN = [
    0.38265804752678795, 1.009161749668432, 0.6814173743834501,
    1.5446256572671628, 1.1561774878653108, 0.768656691451701,
    0.9376381836229809, 1.7238564847857203, 0.7712524337432429,
    0.4549759526221126,
]

# sha256 of 300,000 draws at seed 11, pinned to catch silent stream changes
PINNED_STREAMS = {
    ("natural", 0.75, 0.0): "d6e88766b5940a69cf2a8020169fa733c4ccb8d03edad9694929fb98ed088dd0",
    ("natural", 0.75, 0.1): "da5353ee9825bf1cb4e05a58f0a16313fd7f8798a86eb0d1331cef86d848e381",
    ("natural", 0.75, 1.0): "8a072e69e71defd56321e61546b72bce8e2aa7d3f51ad20e385bf3364efe3e99",
    ("natural", 1.0, 0.0): "da55522b3c2d6527bc69bab9b0fa7bfdf816e63513bb6778a3c25ae8db4c324f",
    ("natural", 1.0, 0.1): "e49a23553da1fbc4cd75e93cbd9c5b93424f82017a87bb3c98553bf45bb6a989",
    ("natural", 1.0, 1.0): "2a638511358c57fd3502715df9f97f6be12b5bea719df0dc39185e291832cce8",
    ("real", 0.6, 0.0): "bc7ed58f596eddbfa10a6825eaf66a41da1dd61ff1430eb6c30cc0d06fe224fe",
    ("real", 0.6, 0.1): "3a3dce9aa93350770151af42d8a88ce1e6c2f98f27d818eb07d22c031967df54",
    ("real", 0.6, 1.0): "8a064ec6cae23e67e4883d5732b96922ab79544f49c75ad494ed1612d2db0f10",
    ("real", 1.0, 0.0): "db87ad61f53bf0d80f75fcbca03ade1b5dfd7d2615e8dc963500693d85ef2b78",
    ("real", 1.0, 0.1): "b2ae49ebd781f27e65d2af426e362ee7a626e63dbf66d1dcc04948a8f619cf3d",
    ("real", 1.0, 1.0): "2a638511358c57fd3502715df9f97f6be12b5bea719df0dc39185e291832cce8",
}


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(samples=0, seed=1)
        with pytest.raises(DomainError):
            McConfig(samples=10, seed=1, histogram_bins=0)
        with pytest.raises(DomainError):
            McConfig(samples=10, seed=1, histogram_range=(2.0, 1.0))
        with pytest.raises(DomainError):
            McConfig(samples=10, seed=1, histogram_range=(-1.0, 1.0))

    @pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["negative", "past-128-bits"])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(DomainError, match="seed"):
            McConfig(samples=10, seed=seed)
        assert McConfig(samples=10, seed=(1 << 128) - 1).seed == (1 << 128) - 1

    @pytest.mark.parametrize("field, value", [
        ("samples", 1000.0), ("samples", "1000"),
        ("seed", 1.0), ("histogram_bins", 8.0),
    ], ids=["samples-float", "samples-str", "seed-float", "bins-float"])
    def test_counts_must_be_integers(self, field, value):
        kwargs = {"samples": 1000, "seed": 1, field: value}
        with pytest.raises(DomainError, match=field):
            McConfig(**kwargs)
        assert McConfig(samples=np.int64(1000), seed=np.uint64(7)).samples == 1000

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)],
                             ids=["inf", "nan-hi", "nan-lo"])
    def test_histogram_range_must_be_finite(self, bounds):
        # an infinite edge gave NaN bins and all-zero counts
        with pytest.raises(DomainError, match="histogram_range"):
            McConfig(samples=1000, seed=1, histogram_range=bounds)

    def test_chunk_plan_covers_exactly(self):
        cfg = McConfig(samples=2_500_000, seed=1)
        plan = chunk_plan(cfg)
        assert [i for i, _ in plan] == list(range(len(plan)))
        assert sum(c for _, c in plan) == cfg.samples
        assert all(c <= montecarlo._CHUNK for _, c in plan)

    def test_chunk_streams_differ(self):
        cfg = McConfig(samples=100, seed=9)
        a = chunk_rng(cfg, 0).random(8)
        b = chunk_rng(cfg, 1).random(8)
        assert not np.allclose(a, b)


class TestDeterminism:
    def test_bit_for_bit_reproducible(self):
        cfg = McConfig(samples=4096, seed=123)
        a = collect_samples(EXPANSION, PB01, cfg)
        b = collect_samples(EXPANSION, PB01, cfg)
        assert np.array_equal(a, b)

    def test_seed_changes_the_stream(self):
        a = collect_samples(EXPANSION, PB01, McConfig(samples=256, seed=1))
        b = collect_samples(EXPANSION, PB01, McConfig(samples=256, seed=2))
        assert not np.array_equal(a, b)

    def test_pinned_first_draws(self):
        got = collect_samples(EXPANSION, PB01, McConfig(samples=10, seed=20240817))
        np.testing.assert_allclose(got, FIRST_TEN, rtol=0.0, atol=0.0)

    def test_chunking_is_part_of_the_layout(self, monkeypatch):
        # each chunk gets its own jumped stream, so a prefix of a longer run
        # equals a shorter run
        monkeypatch.setattr(montecarlo, "_CHUNK", 1024)
        long = collect_samples(EXPANSION, PB01, McConfig(samples=3000, seed=5))
        short = collect_samples(EXPANSION, PB01, McConfig(samples=1024, seed=5))
        assert np.array_equal(long[:1024], short)

    @pytest.mark.parametrize("p_b", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("params, rho", [
        (PRESET, 0.75), (PRESET, 1.0), (REAL_BETA, 0.6), (REAL_BETA, 1.0),
    ], ids=["natural", "natural-rho1", "real", "real-rho1"])
    def test_streams_are_pinned(self, params, rho, p_b):
        # two chunks of every order path, blocked or not; at p_b = 1 and
        # rho = 1 every draw is 0
        ex = mixture_weights(dataclasses.replace(params, rho=rho))
        vals = collect_samples(ex, BlockageConfig(p_b=p_b), McConfig(samples=300_000, seed=11))
        assert hashlib.sha256(vals.tobytes()).hexdigest() == PINNED_STREAMS[
            ("natural" if params is PRESET else "real", rho, p_b)]


class TestSamplingDistribution:
    def test_sample_mean_matches_model(self):
        cfg = McConfig(samples=400_000, seed=42)
        s = summarize(EXPANSION, PB01, cfg)
        analytic_mean = (1.0 - 0.1) * 1.0 + 0.1 * EXPANSION.xi_g
        z = (s.mean - analytic_mean) / math.sqrt(s.variance / s.count)
        assert abs(z) < 4.0

    def test_all_samples_nonnegative(self):
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=10_000, seed=7))
        assert np.all(vals > 0.0)

    def test_blockage_shrinks_the_samples(self):
        n = 200_000
        free = collect_samples(EXPANSION, PB0, McConfig(samples=n, seed=11))
        blocked = collect_samples(EXPANSION, BlockageConfig(p_b=1.0),
                                  McConfig(samples=n, seed=11))
        assert blocked.mean() < 0.25 * free.mean()

    def test_matches_direct_mixture_table_sampler(self):
        # independent sampler: draw the branch order from the weight table
        # instead of the binomial bridge, then the same two gamma factors
        n = 100_000
        rng = np.random.default_rng(2024)
        orders = rng.choice(EXPANSION.orders, size=n, p=EXPANSION.weights)
        means = orders * (EXPANSION.xi_g + EXPANSION.omega_prime
                          / round(EXPANSION.beta))
        blocked = rng.random(n) < PB01.p_b
        orders = np.where(blocked, 1.0, orders)
        means = np.where(blocked, EXPANSION.xi_g, means)
        reference = (rng.gamma(EXPANSION.alpha, 1.0 / EXPANSION.alpha, n)
                     * rng.gamma(orders, means / orders, n))
        ours = collect_samples(EXPANSION, PB01, McConfig(samples=n, seed=77))
        res = stats.ks_2samp(ours, reference)
        assert res.pvalue > 1e-3

    def test_real_beta_sampler_matches_truncated_table(self):
        # negative-binomial order sampling against an explicit table built
        # from the truncated expansion weights
        ex = mixture_weights(REAL_BETA, epsilon=1e-12)
        n = 100_000
        rng = np.random.default_rng(555)
        w = ex.weights / ex.weights.sum()
        orders = rng.choice(ex.orders, size=n, p=w)
        reference = (rng.gamma(ex.alpha, 1.0 / ex.alpha, n)
                     * rng.gamma(orders, ex.xi_g, n))
        ours = collect_samples(ex, PB0, McConfig(samples=n, seed=888))
        res = stats.ks_2samp(ours, reference)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("p_b", [0.0, 0.1])
    @pytest.mark.parametrize("beta", [2.0, 3.0, 5.0])
    def test_inverted_orders_follow_the_binomial_law(self, beta, p_b):
        # the order row sample_chunk leaves in its scratch holds each
        # unblocked draw's order, read from its blockage uniform by
        # inversion: an exact chi-square against 1 + Bin(beta - 1, p), on a
        # seed fixed before the first run
        ex = mixture_weights(MalagaParams(alpha=4.2, beta=beta, rho=0.75, omega=0.2, xi=1.0))
        n = 200_000
        cfg = McConfig(samples=n, seed=2121)
        scratch = montecarlo._chunk_scratch(n)
        sample_chunk(chunk_rng(cfg, 0), n, ex, BlockageConfig(p_b=p_b), scratch=scratch)
        order = scratch[0]
        unblocked = chunk_rng(cfg, 0).random(n) >= p_b  # the same uniforms
        assert np.all(order[~unblocked] == 1.0)  # the scatter branch
        b = int(beta)
        counts = np.bincount((order[unblocked] - 1.0).astype(np.intp), minlength=b)
        assert len(counts) == b
        expected = stats.binom.pmf(np.arange(b), b - 1, ex.p) * np.count_nonzero(unblocked)
        assert stats.chisquare(counts, expected).pvalue > 1e-3

    def test_full_blockage_takes_the_scatter_branch_for_every_draw(self):
        # at p_b = 1 a natural-beta draw depends on alpha and xi_g alone, so
        # channels that differ in beta (and so in p and the unblocked law)
        # but share xi_g draw one stream, and every order is 1
        n = 100_000
        cfg = McConfig(samples=n, seed=2122)
        streams = []
        for beta in (3.0, 5.0, 1.0):
            ex = mixture_weights(MalagaParams(alpha=4.2, beta=beta, rho=0.75, omega=0.2, xi=1.0))
            assert ex.xi_g == EXPANSION.xi_g
            scratch = montecarlo._chunk_scratch(n)
            streams.append(sample_chunk(chunk_rng(cfg, 0), n, ex, BlockageConfig(p_b=1.0),
                                        scratch=scratch))
            assert np.all(scratch[0] == 1.0)
        assert all(np.array_equal(streams[0], s) for s in streams[1:])


class TestEmpiricalOutage:
    def test_matches_analytic_within_binomial_error(self):
        cfg = McConfig(samples=300_000, seed=31)
        snr = SnrPoint(100.0)
        est = empirical_outage(snr, EXPANSION, PB01, cfg)
        exact = float(malaga_blockage_cdf(snr.gamma_n ** -0.5, EXPANSION, PB01))
        se = math.sqrt(exact * (1.0 - exact) / cfg.samples)
        assert abs(est.estimate - exact) < 4.0 * se
        assert est.ci_low <= est.estimate <= est.ci_high

    def test_zero_hits_uses_rule_of_three(self):
        cfg = McConfig(samples=5_000, seed=13)
        est = empirical_outage(SnrPoint(1e30), EXPANSION, PB0, cfg)
        assert est.hits == 0 and est.estimate == 0.0
        assert est.ci_low == 0.0
        assert math.isclose(est.ci_high, 3.0 / cfg.samples)

    def test_wilson_interval_width_shrinks(self):
        snr = SnrPoint(100.0)
        wide = empirical_outage(snr, EXPANSION, PB01, McConfig(samples=2_000, seed=3))
        narrow = empirical_outage(snr, EXPANSION, PB01, McConfig(samples=200_000, seed=3))
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)

    def test_coverage_of_the_interval(self):
        # fixed master seeds 5000-6999: the 95% interval must cover the truth
        # in at least 1,870 of these 2,000 repetitions. Its exact coverage
        # here (n = 20,000, p = 0.10176) is 0.9506, so a correct sampler
        # fails with probability 0.09 %; one covering 0.93 passes with 20 %,
        # one covering 0.90 with 2e-8
        exact = float(malaga_blockage_cdf(100.0 ** -0.5, EXPANSION, PB01))
        covered = 0
        for rep in range(2000):
            cfg = McConfig(samples=20_000, seed=5000 + rep)
            est = empirical_outage(SnrPoint(100.0), EXPANSION, PB01, cfg)
            if est.ci_low <= exact <= est.ci_high:
                covered += 1
        assert covered >= 1870


class TestSummary:
    def test_a_draw_at_the_range_top_is_counted_once(self):
        # every cell is half-open, so the top edge belongs to the overflow
        s = summarize_values([0.5, 1.0, 8.0, 9.0], McConfig(samples=4, seed=1))
        assert (int(s.counts.sum()), s.underflow, s.overflow) == (2, 0, 2)
        s = summarize_values([0.0, 0.25, 7.999, 8.0],
                             McConfig(samples=4, seed=1, histogram_range=(0.25, 8.0)))
        assert (s.underflow, s.counts[0], s.counts[-1], s.overflow) == (1, 1, 1, 1)
        assert int(s.counts.sum()) + s.underflow + s.overflow == 4

    def test_histogram_accounts_for_every_sample(self):
        cfg = McConfig(samples=50_000, seed=8, histogram_bins=32,
                       histogram_range=(0.0, 4.0))
        s = summarize(EXPANSION, PB01, cfg)
        assert int(s.counts.sum()) + s.underflow + s.overflow == cfg.samples
        assert s.underflow == 0  # range starts at zero, samples are positive
        assert s.overflow > 0

    def test_densities_integrate_to_coverage(self):
        cfg = McConfig(samples=100_000, seed=8)
        s = summarize(EXPANSION, PB01, cfg)
        mass = float(np.sum(s.densities * np.diff(s.bin_edges)))
        assert math.isclose(mass, 1.0 - (s.underflow + s.overflow) / s.count,
                            rel_tol=1e-12)

    def test_outage_points_carried_through(self):
        cfg = McConfig(samples=20_000, seed=4)
        s = summarize(EXPANSION, PB01, cfg, gamma_n_points=(100.0, 1e4))
        assert set(s.outage) == {100.0, 1e4}
        direct = empirical_outage(SnrPoint(100.0), EXPANSION, PB01, cfg)
        assert s.outage[100.0].hits == direct.hits

    def test_summarize_values_matches_streaming_pass(self, monkeypatch):
        # 51 chunk slices, the last one short, reduced on the lanes; one
        # reduction over the whole array rounds the sums differently
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        cfg = McConfig(samples=50_007, seed=8, histogram_bins=32,
                       histogram_range=(0.0, 4.0))
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("FSO_LINKLAB_THREADS", threads)
            s = summarize(EXPANSION, PB01, cfg, gamma_n_points=(100.0,))
            v = summarize_values(collect_samples(EXPANSION, PB01, cfg), cfg,
                                 gamma_n_points=(100.0,))
            assert np.array_equal(s.counts, v.counts)
            assert (s.count, s.underflow, s.overflow) == (v.count, v.underflow, v.overflow)
            assert (s.mean, s.variance) == (v.mean, v.variance)
            assert s.outage[100.0] == v.outage[100.0]
            assert v.count == cfg.samples

    def test_summarize_values_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            summarize_values(np.zeros((2, 2)), McConfig(samples=4, seed=1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_summarize_values_refuses_what_no_draw_can_be(self, bad, monkeypatch):
        # a NaN fell out of every cell but still counted, and made the mean
        # NaN and a chi-square p-value of 4e-220; the slice holding the value
        # refuses it, on whichever lane, and a large finite sum does not
        cfg = McConfig(samples=4, seed=1)
        with pytest.raises(DomainError, match="finite, non-negative"):
            summarize_values([0.5, 1.0, bad, 2.0], cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "2")
        values = np.full(3500, 0.5)
        values[2700] = bad
        with pytest.raises(DomainError, match="finite, non-negative"):
            summarize_values(values, cfg)
        values[2700:2702] = 1e308  # their sum overflows
        with np.errstate(over="ignore"):
            assert summarize_values(values, cfg).mean == math.inf


class TestGofChisquare:
    def test_accepts_the_true_law(self):
        cfg = McConfig(samples=500_000, seed=101)
        s = summarize(EXPANSION, PB01, cfg)
        res = gof_chisquare(s, EXPANSION, PB01)
        assert res.pvalue > 0.01
        assert res.dof == res.cells - 1
        assert res.passed()

    def test_rejects_a_wrong_law(self):
        cfg = McConfig(samples=500_000, seed=101)
        s = summarize(EXPANSION, BlockageConfig(p_b=0.3), cfg)
        res = gof_chisquare(s, EXPANSION, PB0)
        assert res.pvalue < 1e-10
        assert not res.passed()

    def test_pooling_respects_minimum_expectation(self):
        cfg = McConfig(samples=2_000, seed=6, histogram_bins=200,
                       histogram_range=(0.0, 20.0))
        s = summarize(EXPANSION, PB01, cfg)
        res = gof_chisquare(s, EXPANSION, PB01)
        assert res.cells < 202
        assert res.pvalue > 1e-6

    def test_pvalue_is_the_chi2_survival_function(self):
        cfg = McConfig(samples=20_000, seed=7)
        res = gof_chisquare(summarize(EXPANSION, PB01, cfg), EXPANSION, PB01)
        with mp.workdps(40):
            ref = mp.gammainc(mp.mpf(res.dof) / 2, mp.mpf(res.statistic) / 2, mp.inf,
                              regularized=True)
        assert rel(res.pvalue, ref) <= 1e-13
        assert rel(res.pvalue, stats.chi2.sf(res.statistic, res.dof)) <= 1e-13

    def test_needs_enough_cells(self):
        cfg = McConfig(samples=100, seed=6, histogram_bins=1,
                       histogram_range=(0.0, 50.0))
        s = summarize(EXPANSION, PB01, cfg)
        with pytest.raises(DomainError):
            gof_chisquare(s, EXPANSION, PB01)


class TestGofKs:
    def test_accepts_the_true_law(self):
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=40_000, seed=21))
        res = gof_ks(vals, EXPANSION, PB01)
        assert res.pvalue > 0.01

    def test_rejects_a_wrong_law(self):
        vals = collect_samples(EXPANSION, BlockageConfig(p_b=0.3),
                               McConfig(samples=40_000, seed=21))
        res = gof_ks(vals, EXPANSION, PB0)
        assert res.pvalue < 1e-10

    def test_statistic_matches_direct_computation(self):
        # the large-sample interpolation fast path must reproduce the
        # textbook statistic computed in one un-chunked evaluation
        n = 250_000
        vals = np.sort(collect_samples(EXPANSION, PB01,
                                       McConfig(samples=n, seed=33)))
        res = gof_ks(vals, EXPANSION, PB01)
        f = np.asarray(malaga_blockage_cdf(vals, EXPANSION, PB01))
        ranks = np.arange(1, n + 1, dtype=float)
        d_direct = max(float(np.max(ranks / n - f)),
                       float(np.max(f - (ranks - 1.0) / n)))
        assert abs(res.statistic - d_direct) < 1e-6

    def test_interpolant_engages_at_loose_budget(self):
        # the grid and probe are pinned to a tight tolerance internally, so
        # a loose caller budget must not knock the evaluator back onto the
        # slow direct path, and the interpolant must still track the law
        vals = np.sort(collect_samples(EXPANSION, PB01,
                                       McConfig(samples=200_000, seed=33)))
        ev = _ks_cdf_evaluator(vals, float(vals[0]), float(vals[-1]), EXPANSION,
                               PB01, AccuracyBudget(rel_tol=1e-6))
        assert ev.__name__ == "<lambda>"  # not the direct fallback
        probe = vals[::401]
        f = np.asarray(malaga_blockage_cdf(probe, EXPANSION, PB01))
        assert float(np.max(np.abs(ev(probe) - f))) < 2e-7

    def test_interpolant_refused_where_the_law_dips_on_the_grid(self, monkeypatch):
        # the cell bounds hold only for a monotone interpolant; a smooth
        # ripple the probe cannot see still dips in the tails
        def rippled(x, expansion, blockage, budget=None):
            x = np.asarray(x)
            return (np.asarray(malaga_blockage_cdf(x, expansion, blockage, budget))
                    + 1e-6 * np.sin(50.0 * np.log(x)))

        monkeypatch.setattr(montecarlo, "malaga_blockage_cdf", rippled)
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=200_000, seed=33))
        lo, hi = float(vals.min()), float(vals.max())
        assert _ks_cdf_evaluator(vals, lo, hi, EXPANSION, PB01, None) is None

    def test_exact_tail_for_small_samples(self):
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=500, seed=2))
        res = gof_ks(vals, EXPANSION, PB01)
        ref = stats.kstest(vals, lambda x: np.asarray(
            malaga_blockage_cdf(x, EXPANSION, PB01)))
        assert abs(res.statistic - ref.statistic) < 1e-12
        assert abs(res.pvalue - ref.pvalue) < 1e-9
        assert res.pvalue == float(stats.kstwo.sf(res.statistic, 500))

    def test_asymptotic_pvalue_is_the_kolmogorov_law(self):
        n = 60_000
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=n, seed=22))
        res = gof_ks(vals, EXPANSION, PB01)
        y = res.statistic * math.sqrt(n)
        with mp.workdps(40):
            ref = 2 * mp.nsum(lambda k: (-1) ** (k - 1) * mp.exp(-2 * k * k * mp.mpf(y) ** 2),
                              [1, mp.inf])
        assert rel(res.pvalue, ref) <= 1e-13
        assert rel(res.pvalue, stats.kstwobign.sf(y)) <= 1e-13

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            gof_ks(np.array([0.5]), EXPANSION, PB01)

    @pytest.mark.parametrize("values", [
        np.array(0.5),
        np.ones((2, 2)),
        np.array([0.5, math.nan]),
        np.array([0.5, math.inf]),
        np.array([-math.inf, 0.5]),
        np.array([1.0, math.inf]),
        np.array([0.5, -0.25]),
    ], ids=["0-d", "2-d", "nan", "inf", "-inf", "1-and-inf", "negative"])
    def test_rejects_a_malformed_sample(self, values):
        with pytest.raises(DomainError):
            gof_ks(values, EXPANSION, PB01)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("case", ["plain", "past-one-chunk", "tied", "wrong-law"])
    def test_sort_free_statistic_equals_the_sorted_one(self, case, seed):
        # the cell-pruned statistic must equal, bit for bit, the textbook
        # computation over a full sort with the same interpolant
        n = 1_048_577 if case == "past-one-chunk" else 200_000
        drawn = PB0 if case == "wrong-law" else PB01
        vals = collect_samples(EXPANSION, drawn, McConfig(samples=n, seed=seed))
        if case == "tied":
            vals = np.maximum(np.round(vals, 3), 1e-3)
        digest = hashlib.sha256(vals.tobytes()).hexdigest()
        res = gof_ks(vals, EXPANSION, PB01)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest

        lo, hi = float(vals.min()), float(vals.max())
        cdf = _ks_cdf_evaluator(vals, lo, hi, EXPANSION, PB01, None)
        assert cdf is not None  # the interpolant, not the direct path
        x = np.sort(vals)
        f = cdf(x)
        ranks = np.arange(1, n + 1, dtype=float)
        reference = max(0.0, float(np.max(ranks / n - f)),
                        float(np.max(f - (ranks - 1.0) / n)))
        assert res.statistic == reference
        if case == "wrong-law":
            assert res.statistic > 0.05
        candidates, _ = _ks_candidates(vals, lo, hi, cdf)
        assert len(candidates) < n // 4  # no sorted copy of the sample

    def test_statistic_does_not_depend_on_the_lanes(self, monkeypatch):
        # the counting and gathering passes run on the lanes, four slices
        # of which the last is short
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=3 * (1 << 20) + 5, seed=44))
        lo, hi = float(vals.min()), float(vals.max())
        cdf = _ks_cdf_evaluator(vals, lo, hi, EXPANSION, PB01, None)
        got = []
        for threads in ("1", "2"):
            monkeypatch.setenv("FSO_LINKLAB_THREADS", threads)
            got.append((gof_ks(vals, EXPANSION, PB01), *_ks_candidates(vals, lo, hi, cdf)))
        (one, x1, r1), (two, x2, r2) = got
        assert (one.statistic, one.pvalue) == (two.statistic, two.pvalue)
        assert np.array_equal(x1, x2) and np.array_equal(r1, r2)

    @pytest.mark.parametrize("blockage", [PB01, PB0], ids=["pb0.1", "pb0"])
    def test_interpolant_equals_scipy_pchip(self, blockage):
        # the numpy interpolant against the scipy one it replaced, on the
        # same 4,096-node log grid of the law
        from scipy.interpolate import PchipInterpolator

        vals = collect_samples(EXPANSION, blockage, McConfig(samples=200_000, seed=33))
        lo, hi = float(vals.min()), float(vals.max())
        cdf = _ks_cdf_evaluator(vals, lo, hi, EXPANSION, blockage, None)
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), montecarlo._KS_INTERP_GRID))
        grid[0], grid[-1] = lo, hi
        tight = AccuracyBudget(rel_tol=montecarlo._KS_INTERP_TOL * 1e-2)
        on_grid = np.asarray(malaga_blockage_cdf(grid, EXPANSION, blockage, tight))
        pchip = PchipInterpolator(np.log(grid), on_grid, extrapolate=True)
        # each node but the last falls in its own cubic, which starts at the
        # node's value
        assert np.array_equal(cdf(grid[:-1]), on_grid[:-1])
        for x in (vals, grid, np.exp(np.linspace(math.log(lo) - 1.0, math.log(hi) + 1.0, 10_001))):
            assert np.max(np.abs(cdf(x) - pchip(np.log(x)))) <= 1e-15

    def test_interpolant_is_monotone_at_the_cell_edges(self):
        vals = collect_samples(EXPANSION, PB01, McConfig(samples=1_048_577, seed=41))
        lo, hi = float(vals.min()), float(vals.max())
        cdf = _ks_cdf_evaluator(vals, lo, hi, EXPANSION, PB01, None)
        seen = []

        def recording(x):
            seen.append(x.copy())
            return cdf(x)

        _ks_candidates(vals, lo, hi, recording)
        edges = seen[0]  # the one evaluation at the cell edges
        assert 2 ** 17 < len(edges) <= 2 ** 18 + 1
        assert edges[0] == lo and edges[-1] == hi
        assert np.all(np.diff(cdf(edges)) >= 0.0)


class TestFullCoupling:
    """rho = 1: one two-gamma branch of order beta, and a blocked draw is 0."""

    NATURAL = mixture_weights(dataclasses.replace(PRESET, rho=1.0))
    REAL = mixture_weights(dataclasses.replace(REAL_BETA, rho=1.0))

    def test_real_beta_draws(self):
        # numpy's negative_binomial raised a bare ValueError at p = 1
        vals = collect_samples(self.REAL, PB01, McConfig(samples=1000, seed=1))
        assert np.all(np.isfinite(vals)) and 0 < np.count_nonzero(vals == 0.0) < 1000

    def test_natural_beta_stream_is_pinned(self):
        # the one-branch draw reproduces the binomial inversion bit for bit
        vals = collect_samples(self.NATURAL, PB01, McConfig(samples=400_000, seed=11))
        assert hashlib.sha256(vals.tobytes()).hexdigest() == (
            "1e99e34f9919941dbd703d2357e31b2ad9bcd2854a013c2747893f0ec57e7b05")

    @pytest.mark.parametrize("seed", [3, 4])
    def test_gof_accepts_the_atom_at_zero(self, seed):
        # the blocked draws are an atom of mass p_b at zero: KS counts it
        # once, and chi-square counts it in the first bin
        cfg = McConfig(samples=400_000, seed=seed)
        vals = collect_samples(self.NATURAL, PB01, cfg)
        assert gof_ks(vals, self.NATURAL, PB01).pvalue > 0.01
        summary = summarize_values(vals, cfg)
        assert gof_chisquare(summary, self.NATURAL, PB01).pvalue > 0.01

    @pytest.mark.parametrize("law, tied", [
        (PB01, False), (BlockageConfig(p_b=0.3), False), (BlockageConfig(p_b=0.3), True),
    ], ids=["true", "wrong", "wrong-tied-low"])
    def test_atom_takes_the_sort_free_statistic(self, monkeypatch, law, tied):
        # the zeros are counted apart and the positive values take the cell
        # path, which equals the sorted computation over them bit for bit;
        # against the wrong p_b, with the 400 least positive values tied, the
        # maximum sits in the first cell, which the zeros share
        n = 400_000
        vals = collect_samples(self.NATURAL, PB01, McConfig(samples=n, seed=3))
        if tied:
            low = np.partition(vals[vals > 0.0], 400)[400]
            vals[(vals > 0.0) & (vals < low)] = low
        digest = hashlib.sha256(vals.tobytes()).hexdigest()
        sort = np.sort
        sorted_sizes = []

        def recording(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", recording)
        res = gof_ks(vals, self.NATURAL, law)
        monkeypatch.undo()
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest
        assert sorted_sizes and max(sorted_sizes) < n // 4

        zeros = int(np.count_nonzero(vals == 0.0))
        x = np.sort(vals[vals > 0.0])
        assert 0 < zeros < n
        cdf = _ks_cdf_evaluator(vals, float(x[0]), float(x[-1]), self.NATURAL, law, None)
        assert cdf is not None
        f = cdf(x)
        ranks = np.arange(zeros + 1.0, n + 1.0)
        reference = max(zeros / n - law.p_b, float(np.max(ranks / n - f)),
                        float(np.max(f - (ranks - 1.0) / n)))
        assert res.statistic == reference
        assert (res.statistic > 0.15) == (law is not PB01)
        # a negative zero is a zero
        signed = vals.copy()
        signed[np.flatnonzero(vals == 0.0)[::2]] = -0.0
        assert gof_ks(signed, self.NATURAL, law).statistic == reference

    @pytest.mark.parametrize("n, p_b, seed", [
        (2000, 0.1, 6), (12_000, 0.1, 6), (60_000, 0.1, 6), (200_000, 0.999, 1),
    ])
    def test_atom_statistic_is_the_largest_deviation(self, n, p_b, seed):
        # the sup of |F_n - F| over both sides of every jump, with the
        # left limits F_n(0-) = F(0-) = 0 below the atom. Below 2**14 draws,
        # and at p_b = 0.999, where the interpolant's probe holds no positive
        # value, F is the law; at 60,000 draws it is the interpolant past 0,
        # and the statistic equals this sorted computation bit for bit
        blockage = BlockageConfig(p_b=p_b)
        vals = collect_samples(self.NATURAL, blockage, McConfig(samples=n, seed=seed))
        x = np.sort(vals)
        f = np.asarray(malaga_blockage_cdf(x, self.NATURAL, blockage))
        positive = x > 0.0
        cdf = _ks_cdf_evaluator(vals, float(x[positive][0]), float(x[-1]), self.NATURAL,
                                blockage, None)
        assert (cdf is None) == (n < montecarlo._KS_INTERP_MIN_N or p_b == 0.999)
        if cdf is not None:
            f[positive] = cdf(x[positive])
        f_left = np.where(positive, f, 0.0)
        above = np.searchsorted(x, x, side="right") / n
        below = np.searchsorted(x, x, side="left") / n
        reference = max(float(np.max(np.abs(above - f))), float(np.max(np.abs(below - f_left))))
        statistic = gof_ks(vals, self.NATURAL, blockage).statistic
        if cdf is None:
            assert abs(statistic - reference) < 1e-15
        else:
            assert statistic == reference

    @pytest.mark.parametrize("n", [1000, 60_000])
    def test_all_zero_sample_fits_full_blockage(self, n):
        full = BlockageConfig(p_b=1.0)
        vals = collect_samples(self.REAL, full, McConfig(samples=n, seed=1))
        assert not vals.any()
        res = gof_ks(vals, self.REAL, full)
        assert (res.statistic, res.pvalue) == (0.0, 1.0)
        # the whole deviation is the jump at 0
        assert gof_ks(vals, self.REAL, PB01).statistic == pytest.approx(0.9, abs=1e-15)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_real_beta_matches_its_law(self, seed):
        vals = collect_samples(self.REAL, PB0, McConfig(samples=400_000, seed=seed))
        assert gof_ks(vals, self.REAL, PB0).pvalue > 0.01


def allocating_chunk(rng, n, expansion, blockage):
    # sample_chunk written with fresh arrays, np.searchsorted, np.where and
    # scaled gammas: the in-place form must reproduce these draws and
    # products exactly
    u = rng.random(n)
    blocked = u < blockage.p_b
    if expansion.xi_g == 0.0:
        order = np.full(n, expansion.orders[0])
        means = order * (expansion.means[0] / expansion.orders[0])
    elif expansion.natural:
        b = int(round(expansion.beta))
        p = expansion.p
        pmf = [math.comb(b - 1, j) * p ** j * (1.0 - p) ** (b - 1 - j) for j in range(b - 1)]
        cuts = blockage.p_b + (1.0 - blockage.p_b) * np.cumsum(pmf)
        order = 1.0 + np.searchsorted(cuts, u, side="right")
        means = order * (expansion.xi_g + expansion.omega_prime / b)
    else:
        order = 1.0 + rng.negative_binomial(expansion.beta, 1.0 - expansion.p, size=n)
        means = order * expansion.xi_g
    order = np.where(blocked, 1.0, order)
    means = np.where(blocked, expansion.xi_g, means)
    large = rng.gamma(expansion.alpha, 1.0 / expansion.alpha, size=n)
    small = rng.gamma(order, means / order, size=n)
    return large * small


def serial_stream(expansion, blockage, cfg):
    return np.concatenate(list(sample_irradiance(expansion, blockage, cfg)))


def serial_summary(expansion, blockage, cfg, gamma_n_points):
    # the chunk-by-chunk reduction in stream order that the lanes must match
    lo, hi = cfg.histogram_range
    edges = np.linspace(lo, hi, cfg.histogram_bins + 1)
    counts = np.zeros(cfg.histogram_bins, dtype=np.int64)
    under = over = 0
    total = total_sq = 0.0
    hits = dict.fromkeys(gamma_n_points, 0)
    for chunk in sample_irradiance(expansion, blockage, cfg):
        counts += np.histogram(chunk[chunk < hi], bins=edges)[0]
        under += int(np.count_nonzero(chunk < lo))
        over += int(np.count_nonzero(chunk >= hi))
        total += float(np.sum(chunk))
        total_sq += float(np.sum(chunk * chunk))
        for g in hits:
            hits[g] += int(np.count_nonzero(chunk < g ** -0.5))
    n = cfg.samples
    mean = total / n
    variance = (total_sq - n * mean * mean) / (n - 1)
    return counts, under, over, mean, variance, hits


# (samples, chunk_size): several chunks ending in a short one, three chunks,
# two chunks (fewer than three workers), one short chunk
LAYOUTS = ((10_007, 1000), (3000, 1000), (1500, 1000), (999, 1000))


class TestLanes:
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("p_b", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("params", [PRESET, REAL_BETA], ids=["natural", "real"])
    def test_stream_equals_serial_chunks(self, monkeypatch, threads, p_b, params):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", threads)
        ex = mixture_weights(params)
        bl = BlockageConfig(p_b=p_b)
        for samples, chunk_size in LAYOUTS:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
            cfg = McConfig(samples=samples, seed=61)
            assert np.array_equal(collect_samples(ex, bl, cfg),
                                  serial_stream(ex, bl, cfg))

    def test_default_chunking_equals_serial_chunks(self, monkeypatch):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "2")
        cfg = McConfig(samples=2_200_001, seed=62)
        assert np.array_equal(collect_samples(EXPANSION, PB01, cfg),
                              serial_stream(EXPANSION, PB01, cfg))

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("params", [PRESET, REAL_BETA], ids=["natural", "real"])
    def test_summaries_equal_serial_reduction(self, monkeypatch, threads, params):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", threads)
        ex = mixture_weights(params)
        points = (4.0, 100.0)
        for samples, chunk_size in LAYOUTS:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
            cfg = McConfig(samples=samples, seed=63, histogram_bins=16,
                           histogram_range=(0.25, 3.0))
            counts, under, over, mean, variance, hits = serial_summary(
                ex, PB01, cfg, points)
            s = summarize(ex, PB01, cfg, gamma_n_points=points)
            assert np.array_equal(s.counts, counts)
            assert (s.count, s.underflow, s.overflow) == (samples, under, over)
            assert (s.mean, s.variance) == (mean, variance)
            for g in points:
                est = empirical_outage(SnrPoint(g), ex, PB01, cfg)
                want = (hits[g] / samples, *_wilson_interval(hits[g], samples),
                        samples, hits[g])
                for got in (s.outage[g], est):
                    assert (got.estimate, got.ci_low, got.ci_high,
                            got.samples, got.hits) == want

    def test_one_sample_chunk_call_per_chunk(self, monkeypatch):
        # lanes reach sample_chunk through the module binding, so a patched
        # binding (a tracer, say) sees every chunk once
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "2")
        seen = []
        original = montecarlo.sample_chunk

        def counting(rng, n, *args, **kwargs):
            seen.append(n)
            return original(rng, n, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "sample_chunk", counting)
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        cfg = McConfig(samples=3500, seed=64)
        collect_samples(EXPANSION, PB01, cfg)
        summarize(EXPANSION, PB01, cfg)
        assert sorted(seen) == sorted([c for _, c in chunk_plan(cfg)] * 2)

    def test_error_in_a_pool_lane_propagates(self, monkeypatch):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "2")
        original = montecarlo.chunk_rng
        raised_on = []

        def failing(cfg, index):
            if index == 1:  # lane 1 of 2, which runs on the pool
                raised_on.append(threading.current_thread())
                raise RuntimeError("chunk 1 failed")
            return original(cfg, index)

        monkeypatch.setattr(montecarlo, "chunk_rng", failing)
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        cfg = McConfig(samples=3000, seed=65)
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            collect_samples(EXPANSION, PB01, cfg)
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            summarize(EXPANSION, PB01, cfg)
        assert len(raised_on) == 2
        assert threading.main_thread() not in raised_on

    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_bad_thread_env_is_a_domain_error(self, monkeypatch, value):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", value)
        cfg = McConfig(samples=10, seed=66)
        with pytest.raises(DomainError, match="FSO_LINKLAB_THREADS"):
            collect_samples(EXPANSION, PB01, cfg)
        with pytest.raises(DomainError, match="FSO_LINKLAB_THREADS"):
            summarize(EXPANSION, PB01, cfg)

    def test_more_lanes_than_cores_under_fast_switching(self, monkeypatch):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "7")
        monkeypatch.setattr(montecarlo, "_CHUNK", 500)
        cfg = McConfig(samples=40_000, seed=67, histogram_range=(0.5, 2.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stream = collect_samples(EXPANSION, PB01, cfg)
            s = summarize(EXPANSION, PB01, cfg, gamma_n_points=(100.0,))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(stream, serial_stream(EXPANSION, PB01, cfg))
        counts, under, over, mean, variance, hits = serial_summary(
            EXPANSION, PB01, cfg, (100.0,))
        assert np.array_equal(s.counts, counts)
        assert (s.underflow, s.overflow, s.mean, s.variance) == (under, over, mean, variance)
        assert s.outage[100.0].hits == hits[100.0]

    @pytest.mark.parametrize("p_b", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("params", [
        PRESET, REAL_BETA, MalagaParams(alpha=0.7, beta=3.0, rho=0.3, omega=0.2, xi=1.0),
        dataclasses.replace(PRESET, rho=1.0), dataclasses.replace(REAL_BETA, rho=1.0),
    ], ids=["natural", "real", "small-alpha", "natural-rho1", "real-rho1"])
    def test_sample_chunk_equals_allocating_form(self, p_b, params):
        ex = mixture_weights(params)
        bl = BlockageConfig(p_b=p_b)
        cfg = McConfig(samples=10, seed=69)
        # and across sample_chunk's blocks: exactly one, and three plus 17 draws
        block = montecarlo._BLOCK
        for n in (1, 4097, block, 3 * block + 17):
            assert np.array_equal(sample_chunk(chunk_rng(cfg, 3), n, ex, bl),
                                  allocating_chunk(chunk_rng(cfg, 3), n, ex, bl))

    def test_sample_chunk_into_buffers_equals_fresh_arrays(self):
        cfg = McConfig(samples=10, seed=68)
        fresh = sample_chunk(chunk_rng(cfg, 2), 777, EXPANSION, PB01)
        out = np.full(1000, np.nan)
        scratch = montecarlo._chunk_scratch(1000)
        got = sample_chunk(chunk_rng(cfg, 2), 777, EXPANSION, PB01,
                           out=out, scratch=scratch)
        assert np.shares_memory(got, out) and len(got) == 777
        assert np.array_equal(got, fresh)
        assert np.isnan(out[777:]).all()


class TestMemory:
    # tracemalloc counts numpy's buffers, so these are exact allocation
    # counts of the sampler, not timings

    @staticmethod
    def peak_during(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("params", [PRESET, REAL_BETA], ids=["natural", "real"])
    def test_sample_chunk_into_buffers_allocates_blocks_only(self, params):
        # about 0.6 MB of block temporaries; a whole-chunk order array alone
        # would be 8 MB
        n = 1 << 20
        ex = mixture_weights(params)
        out, scratch = np.empty(n), montecarlo._chunk_scratch(n)
        _, peak = self.peak_during(lambda: sample_chunk(
            chunk_rng(McConfig(samples=n, seed=70), 0), n, ex, PB01,
            out=out, scratch=scratch))
        assert peak <= 4 << 20

    def test_collect_samples_holds_the_stream_and_lane_scratch(self, monkeypatch):
        # two lanes of about 3 MB scratch each (a 2**18-draw order row and
        # two 2**16-draw block rows) beside the 32 MB stream
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "2")
        cfg = McConfig(samples=4 << 20, seed=70)
        stream, peak = self.peak_during(lambda: collect_samples(EXPANSION, PB01, cfg))
        assert stream.nbytes == 32 << 20
        assert peak <= stream.nbytes + (8 << 20)
