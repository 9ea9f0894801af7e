"""Outage curves under random blockage, their floors, and the power cost.

Run with: python3 demos/03_outage_and_penalty.py
"""
import math

from fso_linklab import (
    BlockageConfig,
    MalagaParams,
    SnrPoint,
    max_power_penalty,
    mixture_weights,
    outage_curve,
    outage_exact,
    power_penalty,
    required_gamma_n,
    asymptotic_outage,
)


def outage_table(ex, pbs, dbs):
    header = "  ".join(f"{'P_b=' + format(p, 'g'):>12}" for p in pbs)
    print(f"  {'SNR [dB]':>8}  {header}")
    # one call for every curve: the channel is evaluated once, at every
    # SNR point, for all blockage probabilities; a row per blockage
    gamma_n = [SnrPoint.from_db(db).gamma_n for db in dbs]
    curves, _ = outage_curve(gamma_n, ex, [BlockageConfig(p_b=p_b) for p_b in pbs])
    for j, db in enumerate(dbs):
        cells = [f"{curve[j]:12.3e}" for curve in curves]
        print(f"  {db:8.0f}  " + "  ".join(cells))


def main():
    ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=0.75,
                                      omega=0.2, xi=1.0))

    print("outage probability vs normalized SNR")
    outage_table(ex, (0.0, 1e-3, 1e-2, 1e-1), (20, 40, 60, 80, 100, 120))
    print("  every blocked curve decays at the same half-order slope; the")
    print("  blockage rate only shifts it, it never builds a floor")

    snr = SnrPoint.from_db(60.0)
    r = outage_exact(snr, ex, BlockageConfig(p_b=0.01))
    print(f"\nat 60 dB with P_b=0.01: exact {r.exact:.6e}, "
          f"asymptote {asymptotic_outage(snr, ex, BlockageConfig(p_b=0.01)):.6e}")
    print("diversity order 1 (slope -1/2 per SNR decade)")

    print("\nextra SNR needed to hold a 1e-3 outage, relative to no blockage")
    # one batched inversion: the channel is evaluated once per search step
    # for every blockage probability
    blockages = [BlockageConfig(p_b=p_b) for p_b in (0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0)]
    clear, *needs = required_gamma_n(1e-3, ex, blockages)
    print(f"  {'P_b':>8}  {'exact [dB]':>10}  {'slope rule [dB]':>15}")
    for bl, need in zip(blockages[1:], needs):
        exact_db = 10.0 * math.log10(need / clear)
        print(f"  {bl.p_b:8g}  {exact_db:10.3f}  {power_penalty(ex, bl):15.3f}")
    print(f"  ceiling (always blocked): {max_power_penalty(ex):.3f} dB")

    print("\nthe penalty grows with coupling: a stronger line-of-sight term")
    print("has more to lose when the line of sight goes away")
    print(f"  {'rho':>6}  {'penalty at P_b=0.1':>18}  {'ceiling':>8}")
    for rho in (0.2, 0.5, 0.8, 0.9):
        exr = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=rho,
                                           omega=0.2, xi=1.0))
        print(f"  {rho:6.1f}  {power_penalty(exr, BlockageConfig(p_b=0.1)):18.3f}"
              f"  {max_power_penalty(exr):8.3f}")


if __name__ == "__main__":
    main()
