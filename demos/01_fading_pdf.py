"""Walk through the fading law: mixture decomposition, densities, blockage.

Run with: python3 demos/01_fading_pdf.py
"""
import numpy as np

from fso_linklab import (
    BlockageConfig,
    MalagaParams,
    malaga_blockage_pdf,
    mixture_weights,
)


def show_decomposition(rho):
    params = MalagaParams(alpha=4.2, beta=3.0, rho=rho, omega=0.2, xi=1.0)
    ex = mixture_weights(params)
    print(f"\ncoupling rho={rho}: xi_g={ex.xi_g:.6f}  omega'={ex.omega_prime:.6f}"
          f"  p={ex.p:.6f}")
    print("  order   weight      branch mean")
    for k, w, mu in zip(ex.orders, ex.weights, ex.means):
        print(f"  {k:5g}   {w:.6f}    {mu:.6f}")
    print(f"  mixture mean = {np.dot(ex.weights, ex.means):.12f}")
    return ex


def main():
    print("mixture decomposition at three coupling levels")
    for rho in (0.25, 0.75, 0.99):
        show_decomposition(rho)

    ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=0.75,
                                      omega=0.2, xi=1.0))
    grid = np.array([0.05, 0.2, 0.5, 1.0, 1.5, 2.5, 4.0])
    # one call for both blockage rates: a row per BlockageConfig
    clear, blocked = malaga_blockage_pdf(
        grid, ex, [BlockageConfig(p_b=0.0), BlockageConfig(p_b=0.3)])

    print("\ndensity with and without a 30% line-of-sight blockage rate")
    print(f"  {'irradiance':>10}  {'clear':>12}  {'p_b=0.3':>12}")
    for i, c, b in zip(grid, clear, blocked):
        print(f"  {i:10.2f}  {c:12.6f}  {b:12.6f}")
    print("  blockage moves mass toward small irradiance: the blocked branch")
    print("  keeps only the scattered field, whose mean is xi_g")

    # in the full-coupling limit the discrete mixture collapses to the
    # two-parameter turbulence law: one branch of order beta
    print("\nfull-coupling limit against the two-parameter law")
    at_one = show_decomposition(1.0)
    near_one = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=1.0 - 1e-6,
                                            omega=0.2, xi=1.0))
    at = np.array([0.3, 1.0, 2.0])
    # blockage=None is the unblocked law; two channels give a row each
    mix, lim = malaga_blockage_pdf(at, [near_one, at_one])
    for i, a, b in zip(at, mix, lim):
        print(f"  i={i:.1f}: mixture {a:.9f}  limit law {b:.9f}"
              f"  (rel diff {abs(a - b) / b:.2e})")


if __name__ == "__main__":
    main()
