"""Workload definitions: seeded inputs and the job list each workload runs.

A workload is a list of jobs run back to back by one client. Analytic jobs
are argument lists handed to ``fso_linklab.cli.main`` in-process; the
inversion and Monte Carlo jobs call the library directly because the CLI has
no subcommand for them. Every library function is looked up on its module
at call time, so the tracer's patched bindings see the calls.

The seed only jitters inputs in ways that keep the amount of work steady:
the large-scale shape alpha (mixture weights, hence branch counts, do not
depend on it), grid offsets, inversion targets and the Monte Carlo stream
seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fso_linklab.cli as cli
import fso_linklab.malaga as malaga
import fso_linklab.montecarlo as montecarlo
import fso_linklab.outage as outage

WORKLOADS = ("realbeta-sweep", "paper-figures", "mc-validate")

# channel shared by every analytic job; alpha comes from the seed
BASE_CHANNEL = {"beta": 3.0, "rho": 0.75, "omega": 0.2, "xi": 1.0}
REALBETA_BETA = 2.5
FIGURES = ("fig2b", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6")
SMOKE_FIGURES = ("fig2b", "fig3a", "fig3b", "fig5b")

# acceptance-05 natural-beta sets: one per coupling value and per p_b
MC_SETS = ((0.2, 0.0), (0.5, 0.1), (0.8, 1.0))
MC_ALPHA = 4.2
MC_GAMMA_N = (100.0, 10_000.0)
MC_JOB_P_B = 0.1
MC_JOB_GAMMA_DB = (20.0, 40.0)
# every run draws a new stream seed: with five GOF gates per run a 1% level
# would fail a correct program in one run of twenty, so the gates sit at 1e-6
GOF_ALPHA = 1e-6


@dataclass
class Job:
    """One unit of timed work.

    ``run(out_dir)`` is the timed call. ``record(raw)`` runs after the timer
    stops and turns the raw result into a small JSON-able record for the
    correctness oracle plus a digest that must repeat on every pass.
    """

    name: str
    run: Callable[[Path], Any]
    record: Callable[[Any], tuple[str, dict]]


@dataclass
class Workload:
    name: str
    seed: int
    smoke: bool
    inputs: dict
    jobs: list[Job] = field(default_factory=list)


class JobFailed(Exception):
    """A job raised or its CLI call exited non-zero."""


def _digest_bytes(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _cli_job(name: str, argv: list[str]) -> Job:
    def run(out_dir: Path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out-dir", str(out_dir)])
        if rc != 0:
            raise JobFailed(f"exit {rc}: {err.getvalue().strip()[-400:]}")
        return [line for line in out.getvalue().splitlines() if line]

    def record(paths):
        files = {Path(p).name: Path(p).read_text(encoding="utf-8") for p in paths}
        digest = _digest_bytes(files[k].encode() for k in sorted(files))
        return digest, {"argv": argv, "files": files}

    return Job(name, run, record)


def _channel_flags(alpha: float, beta: float) -> list[str]:
    ch = dict(BASE_CHANNEL, beta=beta)
    return ["--alpha", repr(alpha), "--beta", repr(ch["beta"]),
            "--rho", repr(ch["rho"]), "--omega", repr(ch["omega"]),
            "--xi", repr(ch["xi"])]


def _inversion_job(alpha: float, p_b: float, target: float) -> Job:
    def run(out_dir: Path):
        params = malaga.MalagaParams(alpha=alpha, beta=REALBETA_BETA,
                                     rho=BASE_CHANNEL["rho"],
                                     omega=BASE_CHANNEL["omega"],
                                     xi=BASE_CHANNEL["xi"])
        expansion = malaga.mixture_weights(params)
        blockage = malaga.BlockageConfig(p_b=p_b)
        return outage.required_gamma_n(target, expansion, blockage, mode="exact")

    def record(root):
        return repr(root), {"p_b": p_b, "target": target, "gamma_n": root}

    return Job(f"invert-{target:.3g}", run, record)


def _mc_set_job(rho: float, p_b: float, samples: int, seed: int) -> Job:
    def run(out_dir: Path):
        params = malaga.MalagaParams(alpha=MC_ALPHA, beta=BASE_CHANNEL["beta"],
                                     rho=rho, omega=BASE_CHANNEL["omega"],
                                     xi=BASE_CHANNEL["xi"])
        ex = malaga.mixture_weights(params)
        bl = malaga.BlockageConfig(p_b=p_b)
        cfg = montecarlo.McConfig(samples=samples, seed=seed)
        vals = montecarlo.collect_samples(ex, bl, cfg)
        s = montecarlo.summarize_values(vals, cfg, gamma_n_points=MC_GAMMA_N)
        chi = montecarlo.gof_chisquare(s, ex, bl)
        ks = montecarlo.gof_ks(vals, ex, bl)
        exact = [float(malaga.malaga_blockage_cdf(g ** -0.5, ex, bl))
                 for g in MC_GAMMA_N]
        return vals, {
            "rho": rho, "p_b": p_b, "samples": samples,
            "chi2_p": chi.pvalue, "ks_p": ks.pvalue,
            "hits": [s.outage[g].hits for g in MC_GAMMA_N],
            "program_exact": exact,
        }

    def record(raw):
        vals, rec = raw
        digest = hashlib.sha256(np.ascontiguousarray(vals).tobytes()).hexdigest()
        return digest, dict(rec, sample_digest=digest)

    return Job(f"mc-set-rho{rho}-pb{p_b}", run, record)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Inputs and job list of one workload; the same seed gives the same jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "realbeta-sweep":
        return _realbeta(seed, smoke, rng)
    if name == "paper-figures":
        return _figures(seed, smoke, rng)
    return _mc(seed, smoke, rng)


def _realbeta(seed: int, smoke: bool, rng: np.random.Generator) -> Workload:
    alpha = 4.2 + float(rng.uniform(-0.1, 0.1))
    db_lo = float(rng.uniform(0.0, 1.0))
    x_lo = 1e-3 * (1.0 + float(rng.uniform(0.0, 1.0)))
    x_hi = 5.0 + float(rng.uniform(-0.25, 0.25))
    s_lo = 1e-2 * 10.0 ** float(rng.uniform(0.0, 0.1))
    s_hi = 1e6 * 10.0 ** float(rng.uniform(-0.1, 0.0))
    targets = [t * 10.0 ** float(rng.uniform(-0.2, 0.2))
               for t in (1e-2, 1e-3, 1e-4, 1e-5)]
    p_bs, chunks, points, n_x, n_s = (0.0, 0.01, 0.1), 3, 27, 200, 60
    if smoke:
        p_bs, chunks, points, n_x, n_s, targets = (0.01,), 1, 5, 8, 4, targets[1:2]
    flags = _channel_flags(alpha, REALBETA_BETA)
    grid = ["--grid-lo", repr(x_lo), "--grid-hi", repr(x_hi)]
    # each 81-point curve (1 dB steps) runs as three 27-point CLI calls: short
    # jobs bound the overrun past --seconds, and a job's median can drop the
    # samples that a short slowdown of the shared host lands on
    jobs = []
    for p_b in p_bs:
        for c in range(chunks):
            lo = db_lo + points * c
            jobs.append(_cli_job(f"outage-pb{p_b}-{c}", [
                "outage", *flags, "--p-b", repr(p_b), "--db-lo", repr(lo),
                "--db-hi", repr(lo + points - 1.0), "--db-points", str(points)]))
    jobs += [
        _cli_job("cdf", ["cdf", *flags, *grid, "--grid-points", str(n_x)]),
        _cli_job("pdf", ["pdf", *flags, *grid, "--grid-points", str(n_x)]),
        _cli_job("mgf", ["mgf", *flags, "--grid-lo", repr(s_lo),
                         "--grid-hi", repr(s_hi), "--grid-points", str(n_s)]),
    ]
    jobs += [_inversion_job(alpha, 0.01, t) for t in targets]
    inputs = dict(BASE_CHANNEL, alpha=alpha, beta=REALBETA_BETA)
    return Workload("realbeta-sweep", seed, smoke, inputs, jobs)


def _figures(seed: int, smoke: bool, rng: np.random.Generator) -> Workload:
    alpha = 4.2 + float(rng.uniform(-0.1, 0.1))
    flags = _channel_flags(alpha, BASE_CHANNEL["beta"])
    figs = SMOKE_FIGURES if smoke else FIGURES
    jobs = [_cli_job(f, ["figure", f, *flags]) for f in figs]
    return Workload("paper-figures", seed, smoke, dict(BASE_CHANNEL, alpha=alpha), jobs)


def _mc(seed: int, smoke: bool, rng: np.random.Generator) -> Workload:
    stream_seed = int(rng.integers(0, 2 ** 63))
    samples, job_samples = (200_000, 100_000) if smoke else (10_000_000, 1_000_000)
    sets = MC_SETS[1:2] if smoke else MC_SETS
    jobs = [_mc_set_job(rho, p_b, samples, stream_seed) for rho, p_b in sets]
    jobs.append(_cli_job("mc", [
        "mc", *_channel_flags(MC_ALPHA, BASE_CHANNEL["beta"]),
        "--p-b", repr(MC_JOB_P_B), "--samples", str(job_samples),
        "--seed", str(stream_seed), "--gof-alpha", repr(GOF_ALPHA),
        "--with-analytic", "--gamma-db-list", *map(repr, MC_JOB_GAMMA_DB)]))
    inputs = dict(BASE_CHANNEL, alpha=MC_ALPHA, stream_seed=stream_seed)
    return Workload("mc-validate", seed, smoke, inputs, jobs)
