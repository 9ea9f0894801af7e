"""Monte Carlo sampler: determinism, statistical agreement, GOF machinery."""
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
    0.752661846788907, 1.455111340788491, 0.7433196398765343,
    4.214031225372884, 0.6951335308317244, 0.9695311580206305,
    1.4817460493969101, 0.0027549463508656346, 12.783825707712383,
    2.459784376194355,
]


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
        ("samples", 1000.0), ("samples", "1000"), ("chunk_size", 2.5),
        ("seed", 1.0), ("histogram_bins", 8.0),
    ], ids=["samples-float", "samples-str", "chunk-float", "seed-float", "bins-float"])
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
        assert all(c <= cfg.chunk_size for _, c in plan)

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

    def test_chunking_is_part_of_the_layout(self):
        # each chunk gets its own jumped stream, so a prefix of a longer run
        # equals a shorter run with the same chunk size
        long = collect_samples(EXPANSION, PB01,
                               McConfig(samples=3000, seed=5, chunk_size=1024))
        short = collect_samples(EXPANSION, PB01,
                                McConfig(samples=1024, seed=5, chunk_size=1024))
        assert np.array_equal(long[:1024], short)


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
        # fixed master seeds: the 95% interval must cover the truth in at
        # least 95 of these 100 repetitions (it covers 99)
        exact = float(malaga_blockage_cdf(100.0 ** -0.5, EXPANSION, PB01))
        covered = 0
        for rep in range(100):
            cfg = McConfig(samples=20_000, seed=5000 + rep)
            est = empirical_outage(SnrPoint(100.0), EXPANSION, PB01, cfg)
            if est.ci_low <= exact <= est.ci_high:
                covered += 1
        assert covered >= 95


class TestSummary:
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
        cfg = McConfig(samples=50_007, seed=8, histogram_bins=32,
                       histogram_range=(0.0, 4.0), chunk_size=1000)
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
        res = gof_chisquare(s, EXPANSION, PB01, min_expected=5.0)
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
            gof_chisquare(s, EXPANSION, PB01, min_expected=1e6)


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
    ], ids=["0-d", "2-d", "nan", "inf", "-inf", "1-and-inf"])
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


def allocating_chunk(rng, n, expansion, blockage):
    # sample_chunk written with fresh arrays, np.where and scaled gammas:
    # the in-place form must reproduce these draws and products exactly
    blocked = rng.random(n) < blockage.p_b
    if expansion.natural:
        b = int(round(expansion.beta))
        order = 1.0 + rng.binomial(b - 1, expansion.p, size=n)
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
        counts += np.histogram(chunk, bins=edges)[0]
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
            cfg = McConfig(samples=samples, seed=61, chunk_size=chunk_size)
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
            cfg = McConfig(samples=samples, seed=63, chunk_size=chunk_size,
                           histogram_bins=16, histogram_range=(0.25, 3.0))
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
        cfg = McConfig(samples=3500, seed=64, chunk_size=1000)
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
        cfg = McConfig(samples=3000, seed=65, chunk_size=1000)
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
        cfg = McConfig(samples=40_000, seed=67, chunk_size=500,
                       histogram_range=(0.5, 2.0))
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
    @pytest.mark.parametrize("params", [PRESET, REAL_BETA, MalagaParams(
        alpha=0.7, beta=3.0, rho=0.3, omega=0.2, xi=1.0)], ids=["natural", "real", "small-alpha"])
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
        # two lanes of about 9 MB scratch each beside the 32 MB stream
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "2")
        cfg = McConfig(samples=4 << 20, seed=70)
        stream, peak = self.peak_during(lambda: collect_samples(EXPANSION, PB01, cfg))
        assert stream.nbytes == 32 << 20
        assert peak <= stream.nbytes + (24 << 20)
