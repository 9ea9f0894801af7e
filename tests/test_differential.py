"""Distribution function and transform against mpmath, across the parameter space.

A seeded sample of generalized-K branches and of mixture channels, natural
and real beta, rho up to 1, x from 1e-10 to 50 and s from 1e-6 to 1e8. The
references are the closed forms per branch, a Meijer G function for the
distribution function and a Tricomi U function for the transform, summed
over the expansion's own weights: the library integrates exactly that
truncated mixture, so any difference is evaluation error. Every value must
be within the budget's rel_tol of its reference, or the call must raise.
"""
import functools

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from fso_linklab import (  # noqa: E402
    AccuracyBudget,
    BlockageConfig,
    MalagaParams,
    gk_cdf,
    gk_mgf,
    malaga_blockage_cdf,
    malaga_blockage_mgf,
    malaga_cdf,
    malaga_mgf,
    mixture_weights,
)

DPS = 30
BUDGETS = [None, AccuracyBudget(rel_tol=1e-12)]
BUDGET_IDS = ["default", "1e-12"]


@functools.lru_cache(maxsize=None)
def ref_branch(kind, arg, alpha, k, mean):
    """cdf (Meijer G) or transform (Tricomi U) of one generalized-K branch."""
    with mp.workdps(DPS):
        a, k, mu, v = (mp.mpf(t) for t in (alpha, k, mean, arg))
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
        blocked = (mp.mpf(1) if ex.xi_g == 0.0
                   else ref_branch(kind, arg, ex.alpha, 1.0, ex.xi_g))
        return p_b * blocked + (1 - mp.mpf(p_b)) * ref_mixture(kind, arg, ex)


def rel_err(value, ref):
    return float(abs(mp.mpf(value) - ref) / abs(ref))


# -- the seeded sample ---------------------------------------------------------

RNG = np.random.default_rng(20240607)


def off_integer_gaps(orders):
    """alpha in (0.6, 12) at least 0.05 away from every integer gap alpha - k."""
    while True:
        alpha = float(RNG.uniform(0.6, 12.0))
        gaps = alpha - np.asarray(orders, dtype=float)
        if np.all(np.abs(gaps - np.round(gaps)) > 0.05):
            return alpha


def log_uniform(lo, hi, n):
    return (10.0 ** RNG.uniform(np.log10(lo), np.log10(hi), n)).tolist()


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
        assert ex.alpha == alpha  # off every pole, so nothing was nudged
        p_b = float(RNG.uniform(0.0, 1.0))
        label = f"beta{beta:.3g}-rho{rho:.3g}-K{len(ex.weights)}"
        cases.append((label, ex, p_b, log_uniform(1e-10, 50.0, 4), log_uniform(1e-6, 1e8, 4)))
    return cases


BRANCHES = branch_cases()
CHANNELS = channel_cases()


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("case", BRANCHES, ids=[f"a{c[0]:.3g}-k{c[1]:.3g}" for c in BRANCHES])
def test_branch_laws(case, budget):
    alpha, k, mean, xs, ss = case
    tol = (budget or AccuracyBudget()).rel_tol
    for kind, fn, args in (("cdf", gk_cdf, xs), ("mgf", gk_mgf, ss)):
        values = fn(np.array(args), alpha, k, mean, budget)
        for arg, value in zip(args, values.tolist()):
            err = rel_err(value, ref_branch(kind, arg, alpha, k, mean))
            assert err <= tol, (kind, alpha, k, mean, arg, err)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("case", CHANNELS, ids=[c[0] for c in CHANNELS])
def test_mixture_laws(case, budget):
    _, ex, p_b, xs, ss = case
    bl = BlockageConfig(p_b=p_b)
    tol = (budget or AccuracyBudget()).rel_tol
    for kind, mix, blocked, args in (("cdf", malaga_cdf, malaga_blockage_cdf, xs),
                                     ("mgf", malaga_mgf, malaga_blockage_mgf, ss)):
        got_mix = mix(np.array(args), ex, budget).tolist()
        got_bl = blocked(np.array(args), ex, bl, budget).tolist()
        for arg, vm, vb in zip(args, got_mix, got_bl):
            assert rel_err(vm, ref_mixture(kind, arg, ex)) <= tol, (kind, arg)
            assert rel_err(vb, ref_blockage(kind, arg, ex, p_b)) <= tol, (kind, arg, p_b)


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
    assert rel_err(malaga_cdf(x, ex), ref_mixture("cdf", x, ex)) < PIN_TOL


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
