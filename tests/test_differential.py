"""Density, distribution function and transform against mpmath, across the parameter space.

Seeded samples of generalized-K branches and of mixture channels, natural
and real beta, rho up to 1, x from 1e-10 to 50 and s from 1e-6 to 1e8; a
second sample puts alpha on integers, where the closed forms have poles.
The references are the closed forms per branch, a Bessel K function for the
density, a Meijer G function for the distribution function and a Tricomi U
function for the transform, summed over the expansion's own weights: the
library integrates exactly that truncated mixture, so any difference is
evaluation error. Every value must be within the budget's rel_tol of its
reference, or the call must raise.
"""
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

mp = pytest.importorskip("mpmath")

from fso_linklab import (  # noqa: E402
    AccuracyBudget,
    AccuracyError,
    BlockageConfig,
    DomainError,
    MalagaParams,
    gk_cdf,
    gk_mgf,
    gk_pdf,
    malaga_blockage_cdf,
    malaga_blockage_mgf,
    malaga_blockage_pdf,
    mixture_weights,
    outage_curve,
)

DPS = 30
BUDGETS = [None, AccuracyBudget(rel_tol=1e-12)]
BUDGET_IDS = ["default", "1e-12"]


@functools.lru_cache(maxsize=None)
def ref_branch(kind, arg, alpha, k, mean):
    """pdf (Bessel K), cdf (Meijer G) or transform (Tricomi U) of one branch."""
    with mp.workdps(DPS):
        a, k, mu, v = (mp.mpf(t) for t in (alpha, k, mean, arg))
        if kind == "pdf":
            b, h = a * k / mu, (a + k) / 2
            return (2 * b ** h * v ** (h - 1) * mp.besselk(a - k, 2 * mp.sqrt(b * v))
                    / (mp.gamma(a) * mp.gamma(k)))
        if kind == "cdf":
            return mp.meijerg([[1], []], [[a, k], [0]], a * k / mu * v) \
                / (mp.gamma(a) * mp.gamma(k))
        z = a * k / (mu * v)
        return z ** a * mp.hyperu(a, a - k + 1, z)


def ref_mixture(kind, arg, ex):
    with mp.workdps(DPS):
        return mp.fsum(mp.mpf(float(w)) * ref_branch(kind, arg, ex.alpha, float(k), float(mu))
                       for w, k, mu in zip(ex.weights, ex.orders, ex.means) if w != 0.0)


def ref_blockage(kind, arg, ex, p_b):
    with mp.workdps(DPS):
        if ex.xi_g == 0.0:  # the atom at zero
            blocked = mp.mpf(0 if kind == "pdf" else 1)
        else:
            blocked = ref_branch(kind, arg, ex.alpha, 1.0, ex.xi_g)
        return p_b * blocked + (1 - mp.mpf(p_b)) * ref_mixture(kind, arg, ex)


def rel_err(value, ref):
    return float(abs(mp.mpf(value) - ref) / abs(ref))


# -- the seeded samples --------------------------------------------------------

RNG = np.random.default_rng(20240607)


def off_integer_gaps(orders):
    """alpha in (0.6, 12) at least 0.05 away from every integer gap alpha - k.

    This first sample was drawn while integer gaps were poles of the
    evaluators; its draws (and test ids) stay as they were, and the second
    sample below covers the integers.
    """
    while True:
        alpha = float(RNG.uniform(0.6, 12.0))
        gaps = alpha - np.asarray(orders, dtype=float)
        if np.all(np.abs(gaps - np.round(gaps)) > 0.05):
            return alpha


def log_uniform(lo, hi, n, rng=RNG):
    return (10.0 ** rng.uniform(np.log10(lo), np.log10(hi), n)).tolist()


def branch_cases():
    cases = []
    for j in range(30):
        k = float(RNG.integers(1, 9)) if j % 2 else float(RNG.uniform(1.0, 9.0))
        alpha = off_integer_gaps([k])
        mean = log_uniform(0.05, 3.0, 1)[0]
        cases.append((alpha, k, mean, log_uniform(1e-10, 50.0, 4), log_uniform(1e-6, 1e8, 4)))
    return cases


def channel_cases():
    # natural and real beta, rho across (0, 1] with rho = 1 itself
    shapes = [(float(b), float(RNG.uniform(0.02, 0.99))) for b in (1, 2, 3, 4, 6)]
    shapes += [(3.0, 0.99), (2.0, 1.0), (2.7, 1.0), (1.3, 1.0)]
    shapes += [(float(RNG.uniform(1.0, 4.0)), float(RNG.uniform(0.02, 0.8)))
               for _ in range(4)]
    cases = []
    for beta, rho in shapes:
        probe = mixture_weights(MalagaParams(alpha=4.2, beta=beta, rho=rho, omega=0.2, xi=1.0))
        alpha = off_integer_gaps(probe.orders)
        ex = mixture_weights(MalagaParams(alpha=alpha, beta=beta, rho=rho, omega=0.2, xi=1.0))
        assert ex.alpha == alpha  # kept as given
        p_b = float(RNG.uniform(0.0, 1.0))
        label = f"beta{beta:.3g}-rho{rho:.3g}-K{len(ex.weights)}"
        cases.append((label, ex, p_b, log_uniform(1e-10, 50.0, 4), log_uniform(1e-6, 1e8, 4)))
    return cases


BRANCHES = branch_cases()
CHANNELS = channel_cases()

INTEGER_RNG = np.random.default_rng(20261018)


def integer_alpha(j):
    """alpha in (0.6, 12), an integer (1 to 12) every third draw."""
    if j % 3 == 0:
        return float(INTEGER_RNG.integers(1, 13))
    return float(INTEGER_RNG.uniform(0.6, 12.0))


def integer_branch_cases():
    # k up to 40, an integer every other draw, so integer gaps alpha - k
    # come up at every integer alpha
    cases = []
    for j in range(24):
        alpha = integer_alpha(j)
        k = float(INTEGER_RNG.integers(1, 41)) if j % 2 else float(INTEGER_RNG.uniform(0.3, 40.0))
        mean = log_uniform(0.05, 3.0, 1, INTEGER_RNG)[0]
        cases.append((alpha, k, mean, log_uniform(1e-10, 50.0, 3, INTEGER_RNG),
                      log_uniform(1e-6, 1e8, 3, INTEGER_RNG)))
    return cases


def integer_channel_cases():
    shapes = [(1.0, 0.3), (2.0, 0.6), (3.0, 0.75), (4.0, 0.9), (3.0, 1.0), (2.5, 0.3)]
    cases = []
    for beta, rho in shapes:
        alpha = float(INTEGER_RNG.integers(1, 13))
        ex = mixture_weights(MalagaParams(alpha=alpha, beta=beta, rho=rho, omega=0.2, xi=1.0))
        p_b = float(INTEGER_RNG.uniform(0.0, 1.0))
        label = f"a{alpha:g}-beta{beta:.3g}-rho{rho:.3g}-K{len(ex.weights)}"
        cases.append((label, ex, p_b, log_uniform(1e-10, 50.0, 3, INTEGER_RNG),
                      log_uniform(1e-6, 1e8, 3, INTEGER_RNG)))
    return cases


INTEGER_BRANCHES = integer_branch_cases()
INTEGER_CHANNELS = integer_channel_cases()


def check_branch_laws(case, budget):
    alpha, k, mean, xs, ss = case
    tol = (budget or AccuracyBudget()).rel_tol
    for kind, fn, args in (("pdf", gk_pdf, xs), ("cdf", gk_cdf, xs), ("mgf", gk_mgf, ss)):
        values = fn(np.array(args), alpha, k, mean, budget)
        for arg, value in zip(args, values.tolist()):
            err = rel_err(value, ref_branch(kind, arg, alpha, k, mean))
            assert err <= tol, (kind, alpha, k, mean, arg, err)


def check_mixture_laws(case, budget):
    _, ex, p_b, xs, ss = case
    tol = (budget or AccuracyBudget()).rel_tol
    for kind, law, args in (("pdf", malaga_blockage_pdf, xs),
                            ("cdf", malaga_blockage_cdf, xs),
                            ("mgf", malaga_blockage_mgf, ss)):
        for arg, vm in zip(args, law(np.array(args), ex, budget=budget).tolist()):
            assert rel_err(vm, ref_mixture(kind, arg, ex)) <= tol, (kind, arg)
        # the sampled blockage and both edges, never and always blocked
        for q in (p_b, 0.0, 1.0):
            got = law(np.array(args), ex, BlockageConfig(p_b=q), budget).tolist()
            for arg, vb in zip(args, got):
                ref = ref_blockage(kind, arg, ex, q)
                # an always-blocked path at rho = 1 has no density off zero
                assert vb == 0.0 if ref == 0 else rel_err(vb, ref) <= tol, (kind, arg, q)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("case", BRANCHES, ids=[f"a{c[0]:.3g}-k{c[1]:.3g}" for c in BRANCHES])
def test_branch_laws(case, budget):
    check_branch_laws(case, budget)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("case", CHANNELS, ids=[c[0] for c in CHANNELS])
def test_mixture_laws(case, budget):
    check_mixture_laws(case, budget)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("case", INTEGER_BRANCHES,
                         ids=[f"a{c[0]:.3g}-k{c[1]:.3g}" for c in INTEGER_BRANCHES])
def test_integer_alpha_branch_laws(case, budget):
    check_branch_laws(case, budget)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("case", INTEGER_CHANNELS, ids=[c[0] for c in INTEGER_CHANNELS])
def test_integer_alpha_mixture_laws(case, budget):
    _, ex, _, _, _ = case
    assert ex.alpha == round(ex.alpha)  # kept as given
    check_mixture_laws(case, budget)


# -- every double in ----------------------------------------------------------------

def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# log-uniform over every positive double from the smallest subnormal up, and
# the two ends; the subnormal and the top decade are drawn more often too
EVERY_DOUBLE = st.one_of(
    st.sampled_from([0.0, math.inf]),
    _log_uniform(5e-324, sys.float_info.max),
    _log_uniform(5e-324, sys.float_info.min),
    _log_uniform(1e300, sys.float_info.max))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CHANNELS + INTEGER_CHANNELS), x=EVERY_DOUBLE, s=EVERY_DOUBLE)
def test_every_double_gives_a_value_or_raises(case, x, s):
    # a finite value (inf only for the density at 0), an AccuracyError only
    # for the density at a subnormal x, where x f(x) is subnormal too
    _, ex, p_b, _, _ = case
    bl = BlockageConfig(p_b=p_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, arg, law in (("pdf", x, malaga_blockage_pdf),
                               ("cdf", x, malaga_blockage_cdf),
                               ("mgf", s, malaga_blockage_mgf)):
            for blockage in (None, bl):
                try:
                    value = law(arg, ex, blockage)
                except AccuracyError:
                    assert kind == "pdf" and 0.0 < arg < np.finfo(float).tiny, (kind, arg)
                    continue
                except DomainError:
                    continue
                assert math.isfinite(value) or (kind == "pdf" and arg == 0.0
                                                and value == math.inf), (kind, arg, value)


# -- regressions -----------------------------------------------------------------

PIN_TOL = 1e-13


def test_gk_cdf_series_guard_case():
    # an ascending series once returned 0.02476321819505 here
    value = gk_cdf(6.111391029542666, 6.871122484902576, 22.0, 17.35638585737792)
    assert abs(value / 0.02476321841764 - 1.0) < 1e-12
    ref = ref_branch("cdf", 6.111391029542666, 6.871122484902576, 22.0, 17.35638585737792)
    assert rel_err(value, ref) < PIN_TOL


@pytest.mark.parametrize("beta,x", [(3.0, 2.2367336683417083), (2.5, 0.5285)],
                         ids=["paper-figures", "beta2.5"])
def test_mixture_cdf_cases(beta, x):
    # once off by 1.13e-9 (beta = 3) and 3.3e-10 (beta = 2.5, 74 branches)
    ex = mixture_weights(MalagaParams(alpha=4.2, beta=beta, rho=0.75, omega=0.2, xi=1.0))
    assert rel_err(malaga_blockage_cdf(x, ex), ref_mixture("cdf", x, ex)) < PIN_TOL


@pytest.mark.parametrize("rho", [0.5, 0.99, 0.9999, 1.0])
def test_outage_curve_from_0_to_200_db(rho):
    # thresholds x = gamma_n^-1/2 from 1 down to 1e-10; measured worst 2.03e-15
    ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=rho, omega=0.2, xi=1.0))
    p_bs = (0.0, 0.1, 1.0)
    exact, _ = outage_curve([1.0, 1e10, 1e20], ex, [BlockageConfig(p_b=p) for p in p_bs])
    for p_b, row in zip(p_bs, exact.tolist()):
        for x, value in zip((1.0, 1e-5, 1e-10), row):
            assert rel_err(value, ref_blockage("cdf", x, ex, p_b)) < PIN_TOL, (p_b, x)


def test_real_beta_near_full_coupling_raises():
    # at beta = 2.5, rho = 0.99 the branches beyond k_max still hold 0.44 of
    # the weight: the expansion refuses rather than drop it
    with pytest.raises(AccuracyError, match="k_max"):
        mixture_weights(MalagaParams(alpha=4.2, beta=2.5, rho=0.99, omega=0.2, xi=1.0))


def ref_natural_weights(beta, rho, omega=0.2, xi=1.0):
    """Binomial weights from the physical parameters, 1 - p formed in mpmath."""
    with mp.workdps(50):
        r = mp.mpf(rho)
        xi_g = (1 - r) * xi
        omega_prime = omega + r * xi + 2 * mp.sqrt(omega * r * xi)
        q = beta * xi_g / (omega_prime + beta * xi_g)
        n = int(beta)
        return [mp.binomial(n - 1, k - 1) * (1 - q) ** (k - 1) * q ** (n - k)
                for k in range(1, n + 1)]


@pytest.mark.parametrize("rho", [0.99, 0.9999, 1.0 - 1e-8])
def test_mixture_weights_near_full_coupling(rho):
    # 1 - p once came from the rounded p: the order-1 weight was off by
    # 1.8e-14, 7.1e-13 and 9.9e-9 at these couplings
    ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=rho, omega=0.2, xi=1.0))
    for w, ref in zip(ex.weights.tolist(), ref_natural_weights(3.0, rho)):
        assert rel_err(w, ref) <= 1e-14, (rho, w)


def ref_real_weights(beta, rho, n, omega=0.2, xi=1.0):
    """Negative-binomial weights of the first n orders, at 50 digits."""
    with mp.workdps(50):
        r = mp.mpf(rho)
        xi_g = (1 - r) * xi
        omega_prime = omega + r * xi + 2 * mp.sqrt(omega * r * xi)
        q = beta * xi_g / (omega_prime + beta * xi_g)
        return [mp.gamma(beta + k - 1) / (mp.gamma(k) * mp.gamma(beta))
                * (1 - q) ** (k - 1) * q ** beta for k in range(1, n + 1)]


@pytest.mark.parametrize("rho,branches", [(0.75, 74), (0.9, 189)])
def test_real_beta_weights(rho, branches):
    # a difference of log gammas once put the worst weight 6.3e-14 and
    # 2.2e-13 off
    ex = mixture_weights(MalagaParams(alpha=4.2, beta=2.5, rho=rho, omega=0.2, xi=1.0))
    assert len(ex.weights) == branches
    for w, ref in zip(ex.weights.tolist(), ref_real_weights(2.5, rho, branches)):
        assert rel_err(w, ref) <= 1e-14, (rho, w)


# once nudged off integer alpha, or refused there; each within 1e-12 now
NUDGE_TOL = 1e-12


@pytest.mark.parametrize("alpha", [4.0, 2.0])
def test_integer_alpha_mixture_cdf(alpha):
    # the nudge put these 0.85-1.3e-7 (alpha = 4) and 4.7-7.0e-7 (alpha = 2) off
    ex = mixture_weights(MalagaParams(alpha=alpha, beta=3.0, rho=0.75, omega=0.2, xi=1.0))
    assert ex.alpha == alpha
    xs = [1e-3, 1e-2, 0.1]
    for x, value in zip(xs, malaga_blockage_cdf(np.array(xs), ex).tolist()):
        assert rel_err(value, ref_mixture("cdf", x, ex)) < NUDGE_TOL, x


def test_integer_alpha_mixture_pdf():
    # 189 branches; the nudge put this 5.4e-8 off
    ex = mixture_weights(MalagaParams(alpha=4.0, beta=2.5, rho=0.9, omega=0.2, xi=1.0))
    assert ex.alpha == 4.0
    assert rel_err(malaga_blockage_pdf(1.0, ex), ref_mixture("pdf", 1.0, ex)) < NUDGE_TOL


def test_high_order_density_near_zero():
    # the small-argument Bessel series once raised AccuracyError here
    value = gk_pdf(1e-6, 4.0, 150.0, 15.0)
    assert abs(value / 9.01509734891185e-22 - 1.0) < NUDGE_TOL
    assert rel_err(value, ref_branch("pdf", 1e-6, 4.0, 150.0, 15.0)) < NUDGE_TOL


def test_integer_gap_branch_cdf():
    # once refused with DegenerateParameterError
    value = gk_cdf(0.5, 3.0, 1.0, 1.0)
    assert rel_err(value, ref_branch("cdf", 0.5, 3.0, 1.0, 1.0)) < NUDGE_TOL
