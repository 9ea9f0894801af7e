"""Outage probability, its large-SNR behaviour, and the blockage penalty.

Reference literals were produced with an independent arbitrary-precision
implementation of the same distribution stack.
"""
import math

import numpy as np
import pytest

from fso_linklab import (
    AccuracyBudget,
    AccuracyError,
    BlockageConfig,
    BracketError,
    DegenerateParameterError,
    DomainError,
    MalagaParams,
    SnrPoint,
    asymptotic_outage,
    gain_coefficient,
    gk_cdf,
    malaga_blockage_cdf,
    max_power_penalty,
    mixture_weights,
    outage_curve,
    outage_exact,
    power_penalty,
    required_gamma_n,
    subchannel_diversity,
)

PRESET = MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0)
EXPANSION = mixture_weights(PRESET)
PB01 = BlockageConfig(p_b=0.1)
PB0 = BlockageConfig(p_b=0.0)


def preset_with_rho(rho):
    return mixture_weights(
        MalagaParams(alpha=4.2, beta=3.0, rho=rho, omega=0.2, xi=1.0))


FULL_COUPLING = preset_with_rho(1.0)
REAL_BETA = mixture_weights(
    MalagaParams(alpha=4.2, beta=2.5, rho=0.75, omega=0.2, xi=1.0))


def rel(x, ref):
    return abs(x - ref) / abs(ref)


class TestSnrPoint:
    def test_normalization(self):
        p = SnrPoint(gamma0=2e6, gamma_th=2.0)
        assert p.gamma_n == 1e6
        assert abs(p.gamma_n_db - 60.0) < 1e-12

    def test_from_db(self):
        assert rel(SnrPoint.from_db(60.0).gamma_n, 1e6) < 1e-14

    def test_validation(self):
        with pytest.raises(DomainError):
            SnrPoint(gamma0=0.0)
        with pytest.raises(DomainError):
            SnrPoint(gamma0=1.0, gamma_th=-1.0)

    @pytest.mark.parametrize("field", ["gamma0", "gamma_th"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            SnrPoint(**{"gamma0": 1.0, field: value})


class TestExactOutage:
    def test_reference_values(self):
        assert rel(outage_exact(SnrPoint(1e6), EXPANSION, PB01).exact,
                   0.0012907961078341974653) < 1e-9
        assert rel(outage_exact(SnrPoint(1e8), EXPANSION, PB01).exact,
                   0.00012958430634021379499) < 1e-9
        assert rel(outage_exact(SnrPoint(1e6), EXPANSION, PB0).exact,
                   0.00029097592165004434059) < 1e-9

    def test_matches_distribution_function(self):
        # outage is the fading CDF at the inverse square root of the SNR
        for g in (1e2, 1e4, 1e6):
            res = outage_exact(SnrPoint(g), EXPANSION, PB01)
            direct = malaga_blockage_cdf(g ** -0.5, EXPANSION, PB01)
            assert rel(res.exact, direct) < 1e-12

    @staticmethod
    def per_branch(gamma_n, ex):
        """Each mixture branch's outage: gk_cdf at its order and mean."""
        return gk_cdf(gamma_n ** -0.5, ex.alpha, ex.orders, ex.means)

    def test_decomposition_recombines(self):
        res = outage_exact(SnrPoint(1e5), EXPANSION, PB01)
        mix = sum(w * pk for w, pk in zip(EXPANSION.weights, self.per_branch(1e5, EXPANSION)))
        recombined = 0.1 * res.blockage_pout + 0.9 * mix
        assert rel(recombined, res.exact) < 1e-13

    def test_per_subchannel_structure(self):
        assert EXPANSION.orders.tolist() == [1, 2, 3]
        assert abs(sum(EXPANSION.weights) - 1.0) < 1e-12
        # higher orders carry more diversity, so they fall off faster
        pks = self.per_branch(1e5, EXPANSION).tolist()
        assert pks[0] > pks[1] > pks[2]

    def test_monotone_decreasing_in_snr(self):
        gammas = np.geomspace(1.0, 1e12, 25)
        outs = [outage_exact(SnrPoint(float(g)), EXPANSION, PB01).exact
                for g in gammas]
        assert all(b < a for a, b in zip(outs, outs[1:]))

    def test_blockage_raises_outage(self):
        g = SnrPoint(1e6)
        assert (outage_exact(g, EXPANSION, PB01).exact
                > outage_exact(g, EXPANSION, PB0).exact)

    @pytest.mark.parametrize("p_b,law_rows", [(1.0, (1, 1)), (0.3, (2, 74)), (0.0, (2, 74))])
    def test_law_pass_evaluates_only_weighed_rows(self, monkeypatch, p_b, law_rows):
        # the law pass holds the blocked row, and the 74-branch mixture row
        # only when p_b < 1; it is the only pass
        import fso_linklab.malaga as malaga
        rows = []
        trapezoid = malaga._trapezoid
        monkeypatch.setattr(malaga, "_trapezoid", lambda *args: rows.append(
            args[3].log_w.shape) or trapezoid(*args))
        bl = BlockageConfig(p_b=p_b)
        res = outage_exact(SnrPoint(1e6), REAL_BETA, bl)
        assert rows == [law_rows]
        assert res.exact == malaga_blockage_cdf(1e-3, REAL_BETA, bl)
        assert res.blockage_pout == malaga_blockage_cdf(
            1e-3, REAL_BETA, BlockageConfig(p_b=1.0))

    def test_small_alpha_has_no_asymptote(self):
        ex = mixture_weights(
            MalagaParams(alpha=0.9, beta=3.0, rho=0.75, omega=0.2, xi=1.0))
        res = outage_exact(SnrPoint(1e6), ex, PB01)
        assert res.asymptotic is None and res.gain_coeff is None
        assert 0.0 < res.exact < 1.0
        with pytest.raises(DomainError):
            gain_coefficient(ex, PB01)


class TestOutageCurve:
    # 10^0.13 is the 1.3 dB point, where np.power(g, -0.5) lands an ulp away
    # from g ** -0.5
    GAMMA_N = [1.0, 10.0 ** 0.13, 10.0 ** 1.7, 1e4, 1e8, 1e12]

    def test_grid_holds_the_ulp_point(self):
        g = self.GAMMA_N[1]
        assert np.power(g, -0.5) != g ** -0.5

    @pytest.mark.parametrize("ex", [EXPANSION, REAL_BETA, FULL_COUPLING],
                             ids=["beta3", "beta2.5", "rho1"])
    @pytest.mark.parametrize("p_b", [0.0, 0.01, 0.2])
    def test_matches_outage_exact_bit_for_bit(self, ex, p_b):
        bl = BlockageConfig(p_b=p_b)
        exact, asym = outage_curve(self.GAMMA_N, ex, bl)
        points = [outage_exact(SnrPoint(g), ex, bl) for g in self.GAMMA_N]
        assert exact.tolist() == [r.exact for r in points]
        assert asym.tolist() == [r.asymptotic for r in points]

    def test_point_blocks_match_one_call(self, monkeypatch):
        # the kernel's blocks of (point x node) pairs, a few points each
        import fso_linklab.malaga as malaga
        gamma_n = np.geomspace(1.0, 1e12, 25)
        whole = outage_curve(gamma_n, REAL_BETA, PB01)
        monkeypatch.setattr(malaga, "_KERNEL_ELEMENTS", 600)
        for got, want in zip(outage_curve(gamma_n, REAL_BETA, PB01), whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("ex", [EXPANSION, REAL_BETA, FULL_COUPLING],
                             ids=["beta3", "beta2.5", "rho1"])
    def test_blockage_sequence_matches_one_call_each(self, ex):
        blockages = [BlockageConfig(p_b=p) for p in (0.0, 1e-4, 0.1, 1.0)]
        exact, asym = outage_curve(self.GAMMA_N, ex, blockages)
        assert exact.shape == asym.shape == (4, len(self.GAMMA_N))
        for bl, got_exact, got_asym in zip(blockages, exact, asym):
            want_exact, want_asym = outage_curve(self.GAMMA_N, ex, bl)
            assert got_exact.tolist() == want_exact.tolist()
            assert np.array_equal(got_asym, want_asym, equal_nan=True)

    def test_channel_sequence_matches_one_call_each(self):
        # channels lead the axes, then blockages, then gamma_n
        channels = [EXPANSION, REAL_BETA, FULL_COUPLING]
        blockages = [BlockageConfig(p_b=p) for p in (0.0, 0.01, 1.0)]
        exact, asym = outage_curve(self.GAMMA_N, channels, blockages)
        assert exact.shape == asym.shape == (3, 3, len(self.GAMMA_N))
        for ex, per_exact, per_asym in zip(channels, exact, asym):
            for bl, got_exact, got_asym in zip(blockages, per_exact, per_asym):
                want_exact, want_asym = outage_curve(self.GAMMA_N, ex, bl)
                assert got_exact.tolist() == want_exact.tolist()
                assert np.array_equal(got_asym, want_asym, equal_nan=True)
        one = outage_curve(self.GAMMA_N, channels, blockages[1])
        assert one[0].shape == (3, len(self.GAMMA_N))
        assert np.array_equal(one[0], exact[:, 1])
        assert np.array_equal(one[1], asym[:, 1], equal_nan=True)

    def test_no_asymptote_is_nan(self):
        ex = mixture_weights(
            MalagaParams(alpha=0.9, beta=3.0, rho=0.75, omega=0.2, xi=1.0))
        exact, asym = outage_curve(self.GAMMA_N, ex, PB01)
        assert np.all(np.isnan(asym))
        assert exact.tolist() == [outage_exact(SnrPoint(g), ex, PB01).exact
                                  for g in self.GAMMA_N]

    def test_domain(self):
        # a normalized SNR must be finite and > 0, as SnrPoint requires
        for gamma_n in ([10.0, 0.0], [math.inf], [10.0, math.nan]):
            with pytest.raises(DomainError, match="normalized SNR"):
                outage_curve(gamma_n, EXPANSION, PB01)


class TestNudgedPoles:
    """Integer shapes, which mixture_weights keeps as given: at alpha = 1
    (below rho = 1) and alpha = beta (at rho = 1) alpha sits on the pole of
    the asymptote, so there is none; other integer gaps keep it."""

    def test_alpha_one_has_no_asymptote(self):
        ex = mixture_weights(
            MalagaParams(alpha=1.0, beta=3.0, rho=0.5, omega=0.2, xi=1.0))
        assert ex.alpha == 1.0
        snr = SnrPoint.from_db(60.0)
        res = outage_exact(snr, ex, PB01)
        assert res.asymptotic is None and res.gain_coeff is None
        assert 0.0 < res.exact < 1.0
        assert np.isnan(outage_curve([snr.gamma_n], ex, PB01)[1][0])
        for fn in (lambda: gain_coefficient(ex, PB01),
                   lambda: asymptotic_outage(snr, ex, PB01),
                   lambda: power_penalty(ex, PB01),
                   lambda: max_power_penalty(ex),
                   lambda: required_gamma_n(1e-3, ex, PB01, mode="asymptotic")):
            with pytest.raises(DomainError, match="alpha"):
                fn()

    def test_alpha_equal_beta_at_full_coupling_has_no_asymptote(self):
        ex = mixture_weights(
            MalagaParams(alpha=3.0, beta=3.0, rho=1.0, omega=0.2, xi=1.0))
        res = outage_exact(SnrPoint.from_db(60.0), ex, PB01)
        assert res.asymptotic is None
        # the exact curve sits on the blockage floor
        assert rel(res.exact, 0.1) < 1e-5

    def test_other_integer_gaps_keep_their_asymptote(self):
        # alpha - beta = 1 at rho = 1 is far from the pole
        ex = mixture_weights(
            MalagaParams(alpha=4.0, beta=3.0, rho=1.0, omega=0.2, xi=1.0))
        res = outage_exact(SnrPoint.from_db(60.0), ex, PB01)
        assert rel(res.asymptotic, res.exact) < 1e-6
        ex = mixture_weights(
            MalagaParams(alpha=2.0, beta=3.0, rho=0.5, omega=0.2, xi=1.0))
        assert outage_exact(SnrPoint.from_db(60.0), ex, PB01).asymptotic > 0.0


class TestAsymptote:
    def test_gain_reference_value(self):
        assert rel(gain_coefficient(EXPANSION, PB01),
                   1.2964103654233484842) < 1e-12

    def test_outage_reference_value(self):
        assert rel(asymptotic_outage(SnrPoint.from_db(60.0), EXPANSION, PB01),
                   0.0012964103654233484842) < 1e-12

    def test_agrees_with_exact_at_high_snr(self):
        for db, tol in ((60.0, 5e-3), (80.0, 5e-4), (100.0, 5e-5)):
            p = SnrPoint.from_db(db)
            exact = outage_exact(p, EXPANSION, PB01).exact
            asym = asymptotic_outage(p, EXPANSION, PB01)
            assert rel(asym, exact) < tol

    def test_transform_tail_recovers_gain(self):
        # s * E[exp(-s I_combined)] converges to the gain coefficient as
        # s grows, an independent route to the same constant
        from fso_linklab import malaga_blockage_mgf
        s = 1e8
        val = s * malaga_blockage_mgf(s, EXPANSION, PB01)
        assert rel(val, gain_coefficient(EXPANSION, PB01)) < 1e-4

    def test_slope_is_half_decade_per_10db(self):
        lo = asymptotic_outage(SnrPoint.from_db(80.0), EXPANSION, PB0)
        hi = asymptotic_outage(SnrPoint.from_db(120.0), EXPANSION, PB0)
        slope = (math.log10(hi) - math.log10(lo)) / 4.0
        assert abs(slope + 0.5) < 1e-12


class TestSubchannelDiversity:
    def test_first_order_branch_gain(self):
        # order-1 branch: gain alpha/((alpha-1) * mean)
        mu1 = float(EXPANSION.means[0])
        d, b = subchannel_diversity(EXPANSION.alpha, 1.0, mu1)
        assert d == 1.0
        assert rel(b, 4.2 / 3.2 / mu1) < 1e-12

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_defining_transform_limit(self, k):
        # s^d * branch transform converges to the gain coefficient
        from fso_linklab import gk_mgf
        alpha = EXPANSION.alpha
        mu = float(EXPANSION.means[int(k) - 1])
        d, b = subchannel_diversity(alpha, k, mu)
        s = 1e10
        est = s ** d * gk_mgf(s, alpha, k, mu, AccuracyBudget(rel_tol=1e-10))
        assert rel(est, b) < 1e-5

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_defining_outage_limit(self, k):
        # gamma_n^(d/2) * branch outage converges to b / Gamma(d+1)
        alpha = EXPANSION.alpha
        mu = float(EXPANSION.means[int(k) - 1])
        d, b = subchannel_diversity(alpha, k, mu)
        g = 1e12
        est = g ** (d / 2.0) * gk_cdf(g ** -0.5, alpha, k, mu,
                                      AccuracyBudget(rel_tol=1e-12))
        assert rel(est, b / math.gamma(d + 1.0)) < 1e-5

    def test_higher_order_branch_uses_small_shape(self):
        d, _ = subchannel_diversity(4.2, 3.0, 1.0)
        assert d == 3.0
        d, _ = subchannel_diversity(2.0, 6.0, 1.0)
        assert d == 2.0

    def test_equal_shapes_raise(self):
        with pytest.raises(DegenerateParameterError):
            subchannel_diversity(2.5, 2.5, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            subchannel_diversity(-1.0, 2.0, 1.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (2.0, math.nan, 1.0),
                                      (2.0, 1.0, math.nan), (math.inf, 1.0, 1.0),
                                      (2.0, math.inf, 1.0), (2.0, 1.0, math.inf)],
                             ids=["nan-alpha", "nan-k", "nan-mean", "inf-alpha",
                                  "inf-k", "inf-mean"])
    def test_non_finite_rejected(self, args):
        # NaN fails no sign check, so it would come back as (nan, nan)
        with pytest.raises(DomainError):
            subchannel_diversity(*args)


class TestPowerPenalty:
    def test_reference_values(self):
        cases = [
            (0.9, 52.48662431115016, 32.67033094542291),
            (0.8, 36.12359947967774, 17.26645720240912),
            (0.2, 7.496324196497997, 1.115492226363983),
        ]
        for rho, max_ref, at01_ref in cases:
            ex = preset_with_rho(rho)
            assert rel(max_power_penalty(ex), max_ref) < 1e-12
            assert rel(power_penalty(ex, PB01), at01_ref) < 1e-12

    def test_limits(self):
        ex = preset_with_rho(0.8)
        assert power_penalty(ex, PB0) == 0.0
        assert rel(power_penalty(ex, BlockageConfig(p_b=1.0)),
                   max_power_penalty(ex)) < 1e-12

    def test_monotone_in_blockage_probability(self):
        ex = preset_with_rho(0.8)
        pens = [power_penalty(ex, BlockageConfig(p_b=p))
                for p in (0.0, 0.01, 0.1, 0.5, 1.0)]
        assert all(b > a for a, b in zip(pens, pens[1:]))

    def test_penalty_matches_required_snr_shift(self):
        # the asymptotic-mode SNR requirement shifts by exactly the penalty
        target = 1e-3
        ex = preset_with_rho(0.8)
        g0 = required_gamma_n(target, ex, PB0, mode="asymptotic")
        g1 = required_gamma_n(target, ex, PB01, mode="asymptotic")
        assert rel(10.0 * math.log10(g1 / g0),
                   power_penalty(ex, PB01)) < 1e-10


class TestRequiredSnr:
    def test_exact_roundtrip(self):
        for target in (1e-2, 1e-4, 1e-6):
            g = required_gamma_n(target, EXPANSION, PB01)
            back = outage_exact(SnrPoint(g), EXPANSION, PB01).exact
            assert rel(back, target) < 1e-9

    def test_asymptotic_mode_closed_form(self):
        g = required_gamma_n(1e-4, EXPANSION, PB01, mode="asymptotic")
        gain = gain_coefficient(EXPANSION, PB01)
        assert rel(g, (gain / 1e-4) ** 2) < 1e-14

    def test_modes_agree_deep_in_the_tail(self):
        g_e = required_gamma_n(1e-6, EXPANSION, PB01)
        g_a = required_gamma_n(1e-6, EXPANSION, PB01, mode="asymptotic")
        assert rel(g_e, g_a) < 1e-2

    def test_unreachable_targets_raise(self):
        with pytest.raises(BracketError):
            required_gamma_n(1e-15, EXPANSION, PB01)
        with pytest.raises(BracketError):
            required_gamma_n(1e-15, EXPANSION, PB01, mode="asymptotic")

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            required_gamma_n(0.0, EXPANSION, PB01)
        with pytest.raises(DomainError):
            required_gamma_n(1.5, EXPANSION, PB01)
        with pytest.raises(DomainError):
            required_gamma_n(1e-3, EXPANSION, PB01, mode="middle")


def brentq_reference(target, ex, bl):
    """The inversion as it was written over scipy: brentq on log outage."""
    from scipy.optimize import brentq

    def log_excess(u):
        val = outage_exact(SnrPoint(gamma0=10.0 ** u), ex, bl).exact
        if val <= 0.0:
            return -745.0 - math.log(target)
        return math.log(val) - math.log(target)

    if log_excess(0.0) < 0.0 or log_excess(20.0) > 0.0:
        raise BracketError(f"target {target} unreachable")
    return 10.0 ** brentq(log_excess, 0.0, 20.0, xtol=1e-11, rtol=9e-16)


def root_or_bracket_error(fn):
    try:
        return fn()
    except BracketError:
        return "BracketError"


class TestLockstepInversion:
    TARGETS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    P_BS = (0.0, 1e-4, 0.1, 1.0)

    @pytest.mark.parametrize("ex", [EXPANSION, REAL_BETA, FULL_COUPLING],
                             ids=["beta3", "beta2.5", "rho1"])
    def test_roots_equal_brentq_bit_for_bit(self, ex):
        for target in self.TARGETS:
            for p_b in self.P_BS:
                bl = BlockageConfig(p_b=p_b)
                got = root_or_bracket_error(lambda: required_gamma_n(target, ex, bl))
                want = root_or_bracket_error(lambda: brentq_reference(target, ex, bl))
                assert got == want, (target, p_b)

    @pytest.mark.parametrize("ex", [EXPANSION, REAL_BETA], ids=["beta3", "beta2.5"])
    @pytest.mark.parametrize("mode", ["exact", "asymptotic"])
    def test_blockage_sequence_matches_one_call_each(self, ex, mode):
        blockages = [BlockageConfig(p_b=p) for p in self.P_BS]
        for target in (1e-3, 1e-6):
            roots = required_gamma_n(target, ex, blockages, mode=mode)
            assert isinstance(roots, np.ndarray) and roots.shape == (4,)
            assert roots.tolist() == [required_gamma_n(target, ex, bl, mode=mode)
                                      for bl in blockages]

    def test_channel_sequence_matches_one_call_each(self):
        # every (channel, p_b) search of three channels, two of them padded
        # to the 74-branch one, in one lockstep; channels lead the axes
        channels = [EXPANSION, REAL_BETA, preset_with_rho(0.25)]
        blockages = [BlockageConfig(p_b=p) for p in (0.0, 1e-4, 0.1)]
        for mode in ("exact", "asymptotic"):
            roots = required_gamma_n(1e-4, channels, blockages, mode=mode)
            assert roots.shape == (3, 3)
            assert roots.tolist() == [[required_gamma_n(1e-4, ex, bl, mode=mode)
                                       for bl in blockages] for ex in channels]
            assert required_gamma_n(1e-4, channels, PB01, mode=mode).tolist() == [
                required_gamma_n(1e-4, ex, PB01, mode=mode) for ex in channels]

    def test_asymptotic_sequence_is_the_closed_form_per_blockage(self):
        blockages = [BlockageConfig(p_b=p) for p in (0.0, 0.1, 1.0)]
        roots = required_gamma_n(1e-4, EXPANSION, blockages, mode="asymptotic")
        assert roots.tolist() == [(gain_coefficient(EXPANSION, bl) / 1e-4) ** 2
                                  for bl in blockages]

    def test_scalar_call_returns_a_float(self):
        # a float, not a numpy scalar, whose repr would read np.float64(...)
        for mode in ("exact", "asymptotic"):
            assert type(required_gamma_n(1e-3, EXPANSION, PB01, mode=mode)) is float
            assert required_gamma_n(1e-3, [EXPANSION], [PB01], mode=mode).shape == (1, 1)

    def test_empty_sequences_are_refused(self):
        for mode in ("exact", "asymptotic"):
            with pytest.raises(DomainError, match="empty sequence of MixtureExpansion"):
                required_gamma_n(1e-3, [], PB01, mode=mode)
            with pytest.raises(DomainError, match="empty sequence of BlockageConfig"):
                required_gamma_n(1e-3, EXPANSION, [], mode=mode)
        with pytest.raises(DomainError, match="empty sequence of MixtureExpansion"):
            outage_curve([10.0], [], PB01)

    def test_unreachable_lane_names_its_blockage(self):
        # at rho = 1 the blocked state is an outage floor: p_b = 0.1 cannot
        # reach 1e-3, while p_b = 1e-4 can
        blockages = [BlockageConfig(p_b=1e-4), BlockageConfig(p_b=0.1)]
        with pytest.raises(BracketError, match="p_b = 0.1"):
            required_gamma_n(1e-3, FULL_COUPLING, blockages)
        with pytest.raises(BracketError, match="p_b = 0.1"):
            required_gamma_n(1e-15, EXPANSION, [PB01, PB0], mode="asymptotic")

    def test_no_convergence_is_an_accuracy_error(self, monkeypatch):
        import fso_linklab.outage as outage
        monkeypatch.setattr(outage, "_BRENT_MAXITER", 3)
        with pytest.raises(AccuracyError, match="did not converge in 3"):
            required_gamma_n(1e-3, EXPANSION, [PB0, PB01])


class TestFullCouplingLimit:
    def test_rho_one_outage_floor(self):
        p = outage_exact(SnrPoint.from_db(120.0), FULL_COUPLING,
                         BlockageConfig(p_b=0.01)).exact
        assert rel(p, 0.01) < 1e-6

    def test_rho_one_outage_composition(self):
        snr = SnrPoint.from_db(30.0)
        res = outage_exact(snr, FULL_COUPLING, BlockageConfig(p_b=0.2))
        gg = gk_cdf(snr.gamma_n ** -0.5, 4.2, 3.0, 1.0)
        assert rel(res.exact, 0.2 + 0.8 * gg) < 1e-14
        # a blocked path receives nothing: that branch is always in outage
        assert res.blockage_pout == 1.0
        # the one branch: order beta, weight 1 and mean 1
        assert (FULL_COUPLING.orders.tolist(), FULL_COUPLING.weights.tolist()) == ([3.0], [1.0])
        assert gk_cdf(snr.gamma_n ** -0.5, 4.2, FULL_COUPLING.orders,
                      FULL_COUPLING.means).tolist() == [gg]

    def test_rho_one_asymptote(self):
        # blockage floor plus the two-gamma branch decaying at diversity
        # min(alpha, beta) = 3, with coefficient b / Gamma(4)
        d, b = subchannel_diversity(4.2, 3.0, 1.0)
        for db in (20.0, 60.0):
            snr = SnrPoint.from_db(db)
            res = outage_exact(snr, FULL_COUPLING, BlockageConfig(p_b=0.2))
            expect = 0.2 + 0.8 * (b / math.gamma(d + 1.0)) * snr.gamma_n ** (-d / 2.0)
            assert rel(res.asymptotic, expect) < 1e-15
            assert res.gain_coeff is None
        # and it meets the exact curve at high SNR
        for db, tol in ((60.0, 5e-2), (80.0, 5e-3)):
            res = outage_exact(SnrPoint.from_db(db), FULL_COUPLING, PB0)
            assert rel(res.asymptotic, res.exact) < tol

    def test_gain_and_penalty_refuse_full_coupling(self):
        # the gamma_n^(-1/2) law and the penalty built on it divide by xi_g
        for fn in (lambda: gain_coefficient(FULL_COUPLING, PB01),
                   lambda: asymptotic_outage(SnrPoint(1e6), FULL_COUPLING, PB01),
                   lambda: power_penalty(FULL_COUPLING, PB01),
                   lambda: max_power_penalty(FULL_COUPLING),
                   lambda: required_gamma_n(1e-3, FULL_COUPLING, PB01, mode="asymptotic")):
            with pytest.raises(DomainError, match="rho < 1"):
                fn()

    def test_mixture_approaches_the_floor(self):
        # deep coupling: at high SNR the exact outage flattens onto p_b
        ex = preset_with_rho(1.0 - 1e-8)
        pb = BlockageConfig(p_b=0.01)
        p = outage_exact(SnrPoint.from_db(120.0), ex, pb).exact
        assert abs(p / pb.p_b - 1.0) < 1e-3

    def test_near_full_coupling_plateau(self):
        # rho = 0.999 leaves a sliver of uncoupled scatter; the outage curve
        # plateaus near p_b over mid SNRs before the residual branch decays
        ex = preset_with_rho(0.999)
        pb = BlockageConfig(p_b=0.01)
        plateau = outage_exact(SnrPoint.from_db(45.0), ex, pb).exact
        assert 0.9 < plateau / pb.p_b < 1.5
        # but it has NOT converged to the floor even at 120 dB: the blocked
        # branch mean is far above zero on this scale
        deep = outage_exact(SnrPoint.from_db(120.0), ex, pb).exact
        assert deep / pb.p_b < 0.1
