"""Correctness oracle: mpmath references for a seeded subsample of outputs.

Runs after the timed region. The references rebuild the fading law from the
physical parameters in mpmath, independently of the library: normalized
powers, coupling probability, binomial or negative-binomial weights, and each
generalized-K branch through a Meijer G function (distribution), a Bessel K
(density) or a Tricomi U (transform). A value counts as failed when it is
off its reference by more than REL_TOL, the library's default accuracy
contract; the library may refuse instead, which shows up as a failed job.

Every check appends one entry to ``Checks``; the entry count is part of the
benchmark's ``ops_attempted``.
"""
from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

import workloads as wl

mp.mp.dps = 30

REL_TOL = 1e-9
# a value error of REL_TOL moves a root of a curve falling like gamma^-1/2 by
# 2 REL_TOL; a ratio of two roots by 4 REL_TOL. The brentq bracket adds
# ~2e-11. Roots are checked at 10 REL_TOL.
ROOT_TOL = 10 * REL_TOL
# closed-form asymptotes and beam geometry involve no series or quadrature
CLOSED_FORM_TOL = 1e-12
# Monte Carlo hit counts: |hits/n - exact| within MC_Z standard errors. With
# ~8 such checks per run a 3-SE band fails about one run in fifty by chance;
# 5 SE keeps the per-run false alarm below 1e-5.
MC_Z = 5.0


class Checks:
    def __init__(self):
        self.entries: list[dict] = []

    def add(self, name: str, ok: bool, **detail) -> None:
        self.entries.append({"check": name, "ok": bool(ok), **detail})

    def rel(self, name: str, value: float, ref, tol: float) -> None:
        ref = float(ref)
        err = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
        self.add(name, err <= tol, value=value, ref=ref, rel_err=err, tol=tol)

    @property
    def failed(self) -> int:
        return sum(not e["ok"] for e in self.entries)


# -- the law in mpmath --------------------------------------------------------

class Law:
    """Blocked Malaga law rebuilt from physical parameters (delta_phi = 0)."""

    def __init__(self, alpha, beta, rho, omega, xi, branches=None):
        self.alpha = mp.mpf(alpha)
        self.beta = mp.mpf(beta)
        self.rho = mp.mpf(rho)
        omega, xi = mp.mpf(omega), mp.mpf(xi)
        xi_c = self.rho * xi
        xi_g = (1 - self.rho) * xi
        omega_p = omega + xi_c + 2 * mp.sqrt(omega * xi_c)
        total = omega_p + xi_g
        self.xi_g, self.omega_p = xi_g / total, omega_p / total
        self.degenerate = self.rho == 1
        if self.degenerate:
            return
        p = self.omega_p / (self.omega_p + self.beta * self.xi_g)
        if abs(beta - round(beta)) < 1e-9:
            n = int(round(beta))
            self.weights = [mp.binomial(n - 1, k - 1) * p ** (k - 1) * (1 - p) ** (n - k)
                            for k in range(1, n + 1)]
            self.means = [k * (self.xi_g + self.omega_p / n) for k in range(1, n + 1)]
        else:
            b = self.beta
            self.weights = [mp.gamma(b + k - 1) / (mp.gamma(k) * mp.gamma(b))
                            * p ** (k - 1) * (1 - p) ** b for k in range(1, branches + 1)]
            self.means = [k * self.xi_g for k in range(1, branches + 1)]

    def _branches(self, p_b):
        """(weight, shape k, mean) of every branch, the blocked one included."""
        p_b = mp.mpf(p_b)
        if self.degenerate:
            return [(1 - p_b, self.beta, mp.mpf(1))]
        out = [(p_b, mp.mpf(1), self.xi_g)] if p_b else []
        return out + [((1 - p_b) * w, mp.mpf(k), mu)
                      for k, (w, mu) in enumerate(zip(self.weights, self.means), start=1)]

    def cdf(self, x, p_b):
        x = mp.mpf(x)
        a = self.alpha
        total = p_b if self.degenerate else mp.mpf(0)
        for w, k, mu in self._branches(p_b):
            b = a * k / mu
            total += w * mp.meijerg([[1], []], [[a, k], [0]], b * x) / (mp.gamma(a) * mp.gamma(k))
        return total

    def pdf(self, x, p_b):
        x = mp.mpf(x)
        a = self.alpha
        total = mp.mpf(0)
        for w, k, mu in self._branches(p_b):
            b = a * k / mu
            h = (a + k) / 2
            total += w * 2 * b ** h * x ** (h - 1) * mp.besselk(a - k, 2 * mp.sqrt(b * x)) \
                / (mp.gamma(a) * mp.gamma(k))
        return total

    def mgf(self, s, p_b):
        s = mp.mpf(s)
        a = self.alpha
        total = mp.mpf(0)
        for w, k, mu in self._branches(p_b):
            z = a * k / (mu * s)
            total += w * z ** a * mp.hyperu(a, a - k + 1, z)
        return total

    def gain(self, p_b):
        """Outage gain coefficient: P_out ~ gain * gamma_n^(-1/2)."""
        a = self.alpha
        p_b = mp.mpf(p_b)
        return a / (a - 1) * (p_b / self.xi_g + (1 - p_b) * self.weights[0] / self.means[0])

    def root(self, target, p_b):
        """gamma_n where the exact outage equals target (secant in log10 gamma_n)."""
        target = mp.mpf(target)
        f = lambda u: mp.log(self.cdf(mp.power(10, -u / 2), p_b)) - mp.log(target)
        u0 = 2 * mp.log10(self.gain(p_b) / target)
        return mp.power(10, mp.findroot(f, (u0, u0 + mp.mpf("0.1")), tol=mp.mpf(10) ** -24))


# -- CSV helpers ---------------------------------------------------------------

def _table(text: str):
    lines = text.splitlines()
    manifest = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return manifest, header, rows


def _pick(rng, n: int, k: int):
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


def _label_value(label: str, prefix: str) -> float:
    return float(label[len(prefix):])


# -- per-workload oracles -------------------------------------------------------

def check(workload, records: dict, checks: Checks) -> None:
    rng = np.random.default_rng([workload.seed, 7919])
    {"realbeta-sweep": _check_realbeta,
     "paper-figures": _check_figures,
     "mc-validate": _check_mc}[workload.name](workload, records, checks, rng)


def _check_realbeta(w, records, checks, rng):
    import fso_linklab.malaga as malaga

    inp = w.inputs
    ex = malaga.mixture_weights(malaga.MalagaParams(
        alpha=inp["alpha"], beta=inp["beta"], rho=inp["rho"],
        omega=inp["omega"], xi=inp["xi"]))
    law = Law(inp["alpha"], inp["beta"], inp["rho"], inp["omega"], inp["xi"],
              branches=len(ex.weights))
    worst = max(abs(float(a) - float(b)) / float(b) for a, b in zip(ex.weights, law.weights))
    tail = 1 - mp.fsum(law.weights)
    checks.add("weights", worst <= REL_TOL and tail <= 1e-8,
               branches=len(ex.weights), worst_rel_err=worst, tail_mass=float(tail))

    outage_jobs = [name for name in records if name.startswith("outage-")]
    for name in sorted(outage_jobs):
        (fname, text), = records[name]["files"].items()
        manifest, header, rows = _table(text)
        p_b = manifest["resolved"]["p_b"]
        for j in _pick(rng, len(rows), 2):
            db, exact, _ = (float(v) for v in rows[j])
            checks.rel(f"{name} {db:.3f}dB", exact, law.cdf(10.0 ** (-db / 20.0), p_b), REL_TOL)
        if name.endswith("-0"):
            db, _, asym = (float(v) for v in rows[_pick(rng, len(rows), 1)[0]])
            checks.rel(f"{name} asym {db:.3f}dB", asym,
                       law.gain(p_b) * 10.0 ** (-db / 20.0), CLOSED_FORM_TOL)
    for kind, ref in (("cdf", law.cdf), ("pdf", law.pdf), ("mgf", law.mgf)):
        rec = records.get(kind)
        if not rec:
            continue
        _, _, rows = _table(rec["files"][f"{kind}.csv"])
        for j in _pick(rng, len(rows), 6):
            x, v = (float(t) for t in rows[j])
            checks.rel(f"{kind} x={x:.6g}", v, ref(x, 0.0), REL_TOL)
    for name in sorted(n for n in records if n.startswith("invert-")):
        inv = records[name]
        got = law.cdf(inv["gamma_n"] ** -0.5, inv["p_b"])
        checks.rel(name, inv["target"], got, 2 * REL_TOL)


def _check_figures(w, records, checks, rng):
    inp = w.inputs
    laws = {}

    def law(rho):
        if rho not in laws:
            laws[rho] = Law(inp["alpha"], inp["beta"], rho, inp["omega"], inp["xi"])
        return laws[rho]

    rec = records.get("fig2b")
    if rec:
        for fname, link in (("fig2b_moderate.csv", BEAM_LINKS["beam-moderate"]),
                            ("fig2b_strong.csv", BEAM_LINKS["beam-strong"])):
            _, header, rows = _table(rec["files"][fname])
            for j in _pick(rng, len(rows), 2):
                got = dict(zip(header, rows[j]))
                ref = beam_reference(float(got["length"]), **link)
                worst = max(abs(float(got[c]) - ref[c]) / ref[c]
                            for c in ("w", "w_e", "rho0", "d_b", "d_c"))
                checks.add(f"{fname} L={got['length']}",
                           worst <= CLOSED_FORM_TOL and got["blockage_class"] == ref["blockage_class"],
                           worst_rel_err=worst, blockage_class=got["blockage_class"])
    for fig, prefix, fixed in (("fig3a", "rho_", "p_b"), ("fig3b", "pb_", "rho")):
        rec = records.get(fig)
        if not rec:
            continue
        _, header, rows = _table(rec["files"][f"{fig}.csv"])
        for j in _pick(rng, len(rows), 4):
            c = int(rng.integers(1, len(header)))
            x = float(rows[j][0])
            label = _label_value(header[c], prefix)
            rho, p_b = (label, 0.0) if fixed == "p_b" else (inp["rho"], label)
            checks.rel(f"{fig} {header[c]} x={x:.6g}", float(rows[j][c]),
                       law(rho).pdf(x, p_b), REL_TOL)
    for fig, n_exact in (("fig4", 6), ("fig5b", 4)):
        rec = records.get(fig)
        if not rec:
            continue
        for kind, n in (("exact", n_exact), ("asym", 2)):
            _, header, rows = _table(rec["files"][f"{fig}_{kind}.csv"])
            for j in _pick(rng, len(rows), n):
                c = int(rng.integers(1, len(header)))
                db = float(rows[j][0])
                if fig == "fig4":
                    rho_s, pb_s = header[c][3:].split("_pb")
                    rho, p_b = float(rho_s), float(pb_s)
                else:
                    rho, p_b = inp["rho"], _label_value(header[c], "pb_")
                x = 10.0 ** (-db / 20.0)
                ref = law(rho).cdf(x, p_b) if kind == "exact" else law(rho).gain(p_b) * x
                tol = REL_TOL if kind == "exact" else CLOSED_FORM_TOL
                checks.rel(f"{fig}_{kind} {header[c]} {db:g}dB", float(rows[j][c]), ref, tol)
    rec = records.get("fig5a")
    if rec:
        for kind, n in (("exact", 3), ("asym", 2)):
            _, header, rows = _table(rec["files"][f"fig5a_{kind}.csv"])
            for j in _pick(rng, len(rows), n):
                c = int(rng.integers(1, len(header)))
                p_b, rho = float(rows[j][0]), _label_value(header[c], "rho_")
                pen = float(rows[j][c])
                if kind == "exact":
                    ratio = law(rho).root(1e-3, p_b) / law(rho).root(1e-3, 0.0)
                    err = abs(10.0 ** (pen / 10.0) / float(ratio) - 1.0)
                    checks.add(f"fig5a_exact {header[c]} p_b={p_b:.4g}", err <= ROOT_TOL,
                               value=pen, ref=float(10 * mp.log10(ratio)),
                               rel_err_ratio=err, tol=ROOT_TOL)
                else:
                    lw = law(rho)
                    r = lw.means[0] / (lw.xi_g * lw.weights[0])
                    checks.rel(f"fig5a_asym {header[c]} p_b={p_b:.4g}", pen,
                               20 * mp.log10(1 + p_b * (r - 1)), CLOSED_FORM_TOL)
    rec = records.get("fig6")
    if rec:
        _, header, rows = _table(rec["files"]["fig6.csv"])
        for j in _pick(rng, len(rows), 6):
            c = int(rng.integers(1, len(header)))
            rho = float(rows[j][0])
            db_s, pb_s = header[c][1:].split("db_pb")
            x = 10.0 ** (-float(db_s) / 20.0)
            checks.rel(f"fig6 rho={rho:g} {header[c]}", float(rows[j][c]),
                       law(rho).cdf(x, float(pb_s)), REL_TOL)


def _hits_ok(hits: int, n: int, exact) -> tuple[bool, float]:
    exact = float(exact)
    se = math.sqrt(max(exact * (1.0 - exact), 1e-300) / n)
    dev = (hits / n - exact) / se
    return abs(dev) <= MC_Z, dev


def _check_mc(w, records, checks, rng):
    inp = w.inputs
    for job in w.jobs:
        rec = records.get(job.name)
        if not rec or job.name == "mc":
            continue
        law = Law(inp["alpha"], inp["beta"], rec["rho"], inp["omega"], inp["xi"])
        tag = f"rho={rec['rho']} p_b={rec['p_b']}"
        checks.add(f"chi2 {tag}", rec["chi2_p"] > wl.GOF_ALPHA, pvalue=rec["chi2_p"])
        checks.add(f"ks {tag}", rec["ks_p"] > wl.GOF_ALPHA, pvalue=rec["ks_p"])
        for g, hits in zip(wl.MC_GAMMA_N, rec["hits"]):
            ok, dev = _hits_ok(hits, rec["samples"], law.cdf(g ** -0.5, rec["p_b"]))
            checks.add(f"hits {tag} gamma_n={g:g}", ok, hits=hits, dev_se=dev)
    rec = records.get("mc")
    if rec:
        summary = json.loads(rec["files"]["mc_summary.json"])
        resolved = summary["manifest"]["resolved"]
        law = Law(resolved["alpha"], resolved["beta"], resolved["rho"],
                  resolved["omega"], resolved["xi"])
        checks.add("mc chi2", summary["gof"]["pvalue"] > wl.GOF_ALPHA,
                   pvalue=summary["gof"]["pvalue"])
        for key, est in sorted(summary["outage"].items()):
            g = float(key)
            ok, dev = _hits_ok(est["hits"], summary["count"],
                               law.cdf(g ** -0.5, resolved["p_b"]))
            checks.add(f"mc hits gamma_n={g:g}", ok, hits=est["hits"], dev_se=dev)


# -- beam geometry ----------------------------------------------------------------

# the paper's two reference links at 1550 nm (moderate and strong turbulence)
BEAM_LINKS = {
    "beam-moderate": {"w0": 0.01, "wavelength": 1550e-9, "cn2": 1e-14, "obstacle_d": 0.16},
    "beam-strong": {"w0": 0.01, "wavelength": 1550e-9, "cn2": 5e-14, "obstacle_d": 0.09},
}


def beam_reference(length, w0, wavelength, cn2, obstacle_d):
    """Collimated Gaussian beam with long-term turbulence widening."""
    L, w0, cn2 = mp.mpf(length), mp.mpf(w0), mp.mpf(cn2)
    k = 2 * mp.pi / mp.mpf(wavelength)
    w = w0 * mp.sqrt(1 + (2 * L / (k * w0 ** 2)) ** 2)
    sigma2 = mp.mpf("1.23") * cn2 * k ** (mp.mpf(7) / 6) * L ** (mp.mpf(11) / 6)
    w_e = w * mp.sqrt(1 + mp.mpf("1.625") * sigma2 ** mp.mpf("1.2") * 2 * L / (k * w ** 2))
    rho0 = (mp.mpf("1.46") * cn2 * k ** 2 * L) ** mp.mpf("-0.6")
    d = mp.mpf(obstacle_d)
    cls = "total" if d >= 2 * w_e else ("los" if d >= 2 * rho0 else "none")
    return {"w": float(w), "w_e": float(w_e), "rho0": float(rho0),
            "d_b": float(2 * w_e), "d_c": float(2 * rho0), "blockage_class": cls}
