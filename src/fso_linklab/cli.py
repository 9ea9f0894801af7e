"""Command-line front end.

Every subcommand writes CSV tables whose first line is a ``#``-prefixed JSON
manifest recording the tool version, the subcommand, and the fully resolved
inputs; ``mc`` also writes a JSON summary that embeds the same manifest.
Feeding either file back through ``fso-linklab rerun`` reproduces every
output byte for byte.  Executors only build tables, keyed by file name; one
writer, ``_emit``, builds the manifest and writes every file.  A subcommand's
parameters are declared once, in its parser, and it offers only the flags
its executor reads: each lands in the resolved inputs under its ``dest``.
Configuration is layered: named preset (always paper-figures for a figure),
then JSON config file, then individual flags, later layers winning key by key.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical accuracy
failure, 4 goodness-of-fit rejection.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from ._threads import max_workers as _max_workers
# not called here: bench/spans.py traces the pool map where this module
# binds it
from ._threads import parallel_map as _parallel_map  # noqa: F401
from .beam import (
    BeamScenario,
    beam_radius,
    classify_blockage,
    coherence_radius,
    effective_beam_radius,
)
from .errors import (
    AccuracyError,
    BracketError,
    DegenerateModelError,
    DegenerateParameterError,
    DomainError,
    GofFailure,
)
from .malaga import (
    BlockageConfig,
    MalagaParams,
    MixtureExpansion,
    malaga_blockage_cdf,
    malaga_blockage_mgf,
    malaga_blockage_pdf,
    mixture_weights,
)
from .montecarlo import McConfig, gof_chisquare, summarize
from .outage import outage_curve, power_penalty, required_gamma_n
from .presets import BEAM_KEYS, CHANNEL_KEYS, PRESETS, RHO_CURVES
from .special_math import AccuracyBudget

FIGURES = ("fig2b", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6")

_USAGE_ERRORS = (DomainError, DegenerateModelError, DegenerateParameterError)
_ACCURACY_ERRORS = (AccuracyError, BracketError)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return "inf" if math.isinf(f) else f
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


_FLOATS = {float, np.float64}


def _create(path: Path):
    """path opened for writing as a new file. What was there (a file, or a
    link, whose target is left alone) is removed first: rewriting a file in
    place makes the file system reallocate and flush its blocks at close."""
    Path(path).unlink(missing_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path: Path, manifest: dict, header: list[str], rows) -> None:
    # column by column: a column of floats is formatted in one pass, every
    # cell as _fmt would
    columns = [map(repr, map(float, col)) if {type(v) for v in col} <= _FLOATS
               else map(_fmt, col) for col in zip(*rows)]
    with _create(path) as fh:
        fh.write("# " + json.dumps(_jsonable(manifest), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in zip(*columns))


def _emit(out_dir: Path, subcommand: str, resolved: dict, tables: dict,
          **extra) -> list[str]:
    """Write a run's tables under one manifest and return their names.

    A ``(header, rows)`` table becomes a CSV headed by the manifest line; a
    dict becomes a JSON summary that embeds the manifest under "manifest".
    """
    names = list(tables)
    manifest = {"tool": "fso-linklab", "version": __version__, "subcommand": subcommand,
                "resolved": resolved, "outputs": names, **extra}
    for name, table in tables.items():
        if isinstance(table, dict):
            with _create(out_dir / name) as fh:
                json.dump(_jsonable(dict(table, manifest=manifest)), fh,
                          sort_keys=True, indent=1)
                fh.write("\n")
        else:
            write_csv(out_dir / name, manifest, *table)
    return names


def read_manifest(path: Path) -> dict:
    """The manifest line of a CSV, or the manifest a JSON summary embeds."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        text = first[2:] if first.startswith("# ") else first + fh.read()
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} holds no JSON manifest: {exc}")
    if isinstance(manifest, dict) and isinstance(manifest.get("manifest"), dict):
        manifest = manifest["manifest"]
    if not isinstance(manifest, dict) or "subcommand" not in manifest:
        raise DomainError(f"{path}: manifest lacks a 'subcommand' field")
    return manifest


# -- configuration layering ------------------------------------------------

def resolve_config(preset: str | None, config_path: str | None,
                   flags: dict) -> dict:
    out: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise DomainError(f"unknown preset {preset!r}; known presets: {known}")
        out.update(PRESETS[preset])
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(CHANNEL_KEYS) - set(BEAM_KEYS))
        if unknown:
            raise DomainError(f"unknown config keys: {', '.join(unknown)}")
        out.update(loaded)
    out.update({k: v for k, v in flags.items() if v is not None})
    _check_types(out)
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_float_text(v) -> bool:
    try:
        float(v)
    except ValueError:
        return False
    return True


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(_is_number(x) for x in v)


_NUMBER = ("a number", _is_number)

# what a parameter may hold, by key: every key of CHANNEL_KEYS and
# BEAM_KEYS, and the run keys the executors read
_KEY_TYPES = {
    **dict.fromkeys((*CHANNEL_KEYS, *BEAM_KEYS), _NUMBER),
    "normalize": ("true or false", lambda v: isinstance(v, bool)),
    "f0": ("a number or 'inf'", lambda v: _is_number(v) or (
        isinstance(v, str) and _is_float_text(v))),
    "obstacle_d": ("a number or null", lambda v: v is None or _is_number(v)),
    **dict.fromkeys(("samples", "seed", "bins", "grid_points", "db_points",
                     "length_points"), ("an integer", _is_integer)),
    **dict.fromkeys(("range_lo", "range_hi", "grid_lo", "grid_hi", "db_lo", "db_hi",
                     "length_lo", "length_hi", "gof_alpha"), _NUMBER),
    **dict.fromkeys(("gamma_db_list", "rho_list", "p_b_list"),
                    ("a list of numbers", _is_numbers)),
}


def _check_types(cfg: dict) -> None:
    """Raise DomainError for a parameter value of the wrong type."""
    for key, (what, ok) in _KEY_TYPES.items():
        if key in cfg and not ok(cfg[key]):
            raise DomainError(f"{key} must be {what}, got {cfg[key]!r}")


def _require(cfg: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise DomainError(f"missing {what} parameters: {', '.join(missing)}")


def _expansion(cfg: dict) -> MixtureExpansion:
    """Mixture expansion of a config's fading channel; p_b plays no part."""
    _require(cfg, ("alpha", "beta", "rho", "omega", "xi"), "channel")
    params = MalagaParams(
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        rho=float(cfg["rho"]),
        omega=float(cfg["omega"]),
        xi=float(cfg["xi"]),
        delta_phi=float(cfg.get("delta_phi", 0.0)),
        normalize=bool(cfg.get("normalize", True)),
    )
    return mixture_weights(params, epsilon=float(cfg.get("epsilon", 1e-8)))


def _beam_scenario(cfg: dict, length: float) -> BeamScenario:
    _require(cfg, ("w0", "lambda"), "beam")
    return BeamScenario(
        w0=float(cfg["w0"]),
        wavelength=float(cfg["lambda"]),
        length=float(length),
        cn2=float(cfg.get("cn2", 0.0)),
        f0=float(cfg.get("f0", "inf")),
        obstacle_d=None if cfg.get("obstacle_d") is None else float(cfg["obstacle_d"]),
    )


def make_grid(lo: float, hi: float, points: int, scale: str) -> np.ndarray:
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {lo} and {hi}")
    if not lo < hi:
        raise DomainError("grid requires lo < hi")
    if scale == "linear":
        return np.linspace(lo, hi, points)
    if scale == "log":
        if lo <= 0.0:
            raise DomainError("log grid requires lo > 0")
        return np.geomspace(lo, hi, points)
    raise DomainError(f"grid scale must be 'linear' or 'log', got {scale!r}")


def _gamma_n(dbs) -> list[float]:
    """Normalized SNRs of decibel values; each must be a finite positive double."""
    out = []
    for db in dbs:
        try:
            g = 10.0 ** (float(db) / 10.0)
        except OverflowError:
            g = math.inf
        if not 0.0 < g < math.inf:
            raise DomainError(f"an SNR of {db} dB is not a finite positive number")
        out.append(g)
    return out


def _budget(resolved: dict) -> AccuracyBudget | None:
    rel = resolved.get("rel_tol")
    return None if rel is None else AccuracyBudget(rel_tol=float(rel))


# -- executors ---------------------------------------------------------------
# Each EXECUTORS entry takes the resolved parameter dict and the output
# directory, builds its tables, hands them to _emit, and returns their names.
# Reruns call these.

def exec_pointwise(kind: str, resolved: dict, out_dir: Path) -> list[str]:
    blockage = BlockageConfig(p_b=float(resolved.get("p_b", 0.0)))
    expansion = _expansion(resolved)
    grid = make_grid(resolved["grid_lo"], resolved["grid_hi"],
                     int(resolved["grid_points"]), resolved["grid_scale"])
    law = {"pdf": malaga_blockage_pdf, "cdf": malaga_blockage_cdf,
           "mgf": malaga_blockage_mgf}[kind]
    values = law(grid, expansion, blockage, _budget(resolved))
    extra = _atom(expansion, blockage) if kind == "pdf" else {}
    table = (["s" if kind == "mgf" else "x", "value"],
             zip(grid.tolist(), np.asarray(values).tolist()))
    return _emit(out_dir, kind, resolved,
                 {f"{resolved.get('stem') or kind}.csv": table}, **extra)


def _atom(expansion: MixtureExpansion, blockage: BlockageConfig) -> dict:
    """The manifest note of the mass rho = 1 puts at zero, which a density omits."""
    return ({"atom_at_zero": blockage.p_b}
            if expansion.xi_g == 0.0 and blockage.p_b > 0.0 else {})


def exec_outage(resolved: dict, out_dir: Path) -> list[str]:
    budget = _budget(resolved)
    rho_list = resolved.get("rho_list")
    if rho_list is None:
        if resolved.get("rho") is None:
            raise DomainError("outage needs rho or --rho-list")
        rho_list = [resolved["rho"]]
    rhos = [float(r) for r in rho_list]
    p_bs = [float(p) for p in resolved.get("p_b_list")
            or [resolved.get("p_b", 0.0)]]
    mode = resolved.get("mode", "both")
    columns = _OUTAGE_COLUMNS.get(mode)
    if columns is None:
        raise DomainError(f"mode must be exact, asymptotic or both, got {mode!r}")
    db_grid = make_grid(resolved["db_lo"], resolved["db_hi"],
                        int(resolved["db_points"]), "linear")
    stem = resolved.get("stem") or "outage"
    sweep = len(rhos) * len(p_bs) > 1
    dbs = db_grid.tolist()
    gamma_n = _gamma_n(dbs)
    blockages = [BlockageConfig(p_b=p_b) for p_b in p_bs]
    expansions = [_expansion(dict(resolved, rho=rho)) for rho in rhos]
    tables = {}
    # one evaluation of every channel serves every p_b
    for rho, exact_cols, asym_cols in zip(
            rhos, *outage_curve(gamma_n, expansions, blockages, budget)):
        for p_b, exact_col, asym_col in zip(p_bs, exact_cols, asym_cols):
            curves = {"p_out_exact": exact_col, "p_out_asymptotic": asym_col}
            name = f"{stem}_rho{_fmt(rho)}_pb{_fmt(p_b)}" if sweep else stem
            tables[f"{name}.csv"] = (["gamma_n_db", *columns],
                                     zip(dbs, *(curves[c].tolist() for c in columns)))
    return _emit(out_dir, "outage", resolved, tables)


_OUTAGE_COLUMNS = {"exact": ("p_out_exact",), "asymptotic": ("p_out_asymptotic",),
                   "both": ("p_out_exact", "p_out_asymptotic")}


_BEAM_HEADER = ["length", "w", "w_e", "rho0", "d_b", "d_c"]


def _beam_rows(cfg: dict, lengths) -> tuple[list[str], list[tuple]]:
    classify = cfg.get("obstacle_d") is not None
    header = _BEAM_HEADER + (["blockage_class"] if classify else [])
    rows = []
    for length in lengths:
        sc = _beam_scenario(cfg, length)
        w = beam_radius(sc)
        w_e = effective_beam_radius(sc)
        rho0 = coherence_radius(sc)
        row = [length, w, w_e, rho0, 2.0 * w_e, 2.0 * rho0]
        if classify:
            row.append(classify_blockage(sc).value)
        rows.append(tuple(row))
    return header, rows


def exec_beam(resolved: dict, out_dir: Path) -> list[str]:
    grid = make_grid(resolved["length_lo"], resolved["length_hi"],
                     int(resolved["length_points"]), "linear")
    return _emit(out_dir, "beam", resolved, {
        f"{resolved.get('stem') or 'beam'}.csv": _beam_rows(resolved, grid.tolist())})


# outage points of an mc run that names none; a tuple, so the one parser's
# default cannot be changed by a run
_MC_GAMMA_DBS = (20.0, 40.0)
# the sampling stream an mc manifest was drawn with; rerun replays only this
# one, so it changes whenever montecarlo's stream layout does
_MC_STREAM = "pcg64dxsm-jumped/order-by-inversion"


def exec_mc(resolved: dict, out_dir: Path) -> list[str]:
    budget = _budget(resolved)
    blockage = BlockageConfig(p_b=float(resolved.get("p_b", 0.0)))
    expansion = _expansion(resolved)
    gof_alpha = float(resolved.get("gof_alpha", 0.01))
    if not 0.0 < gof_alpha < 1.0:
        raise DomainError(f"gof_alpha must lie in (0, 1), got {gof_alpha}")
    gamma_points = _gamma_n(resolved.get("gamma_db_list", _MC_GAMMA_DBS))
    cfg = McConfig(
        samples=int(resolved["samples"]),
        seed=int(resolved["seed"]),
        histogram_bins=int(resolved.get("bins", 64)),
        histogram_range=(float(resolved.get("range_lo", 0.0)),
                         float(resolved.get("range_hi", 8.0))),
    )
    summary = summarize(expansion, blockage, cfg, gamma_n_points=gamma_points)
    edges = summary.bin_edges
    header = ["bin_lo", "bin_hi", "count", "density"]
    cols = [edges[1:], summary.counts, summary.densities]
    if resolved.get("with_analytic", False):
        header.append("analytic_density")
        cols.append(malaga_blockage_pdf(0.5 * (edges[:-1] + edges[1:]),
                                        expansion, blockage, budget))
    gof = gof_chisquare(summary, expansion, blockage, budget=budget)
    verdict = "PASS" if gof.passed(gof_alpha) else "FAIL"
    stem = resolved.get("stem") or "mc"
    summary_table = {
        "count": summary.count,
        "mean": summary.mean,
        "variance": summary.variance,
        "underflow": summary.underflow,
        "overflow": summary.overflow,
        "outage": {
            _fmt(g): {"estimate": est.estimate, "ci_low": est.ci_low,
                      "ci_high": est.ci_high, "hits": est.hits}
            for g, est in summary.outage.items()
        },
        "gof": {"test": "chisquare", "statistic": gof.statistic,
                "pvalue": gof.pvalue, "dof": gof.dof, "cells": gof.cells,
                "alpha": gof_alpha, "verdict": verdict},
    }
    # both files are written before a rejection, so it can be inspected
    names = _emit(out_dir, "mc", resolved, {
        f"{stem}.csv": (header, zip(edges[:-1].tolist(), *(c.tolist() for c in cols))),
        f"{stem}_summary.json": summary_table}, stream=_MC_STREAM,
        **_atom(expansion, blockage))
    if verdict == "FAIL":
        raise GofFailure(
            f"chi-square p-value {gof.pvalue:.4g} below alpha {gof_alpha:g} "
            f"(statistic {gof.statistic:.4g}, dof {gof.dof})")
    return names


# -- figure families ---------------------------------------------------------
# Each builder takes the resolved parameters and returns its tables by name.

def _fig_beam_profiles(resolved):
    lengths = np.linspace(100.0, 2400.0, 47).tolist()
    return {f"fig2b_{p.split('-', 1)[1]}.csv": _beam_rows(dict(PRESETS[p]), lengths)
            for p in ("beam-moderate", "beam-strong")}


def _outage_figure(stem, db_grid, expansions, p_bs, labels, budget):
    """Exact and asymptotic outage curves, one column per (channel, p_b).

    Every channel is evaluated once, in one call, for all of p_bs; columns
    run channel outer, p_b inner.
    """
    blockages = [BlockageConfig(p_b=p_b) for p_b in p_bs]
    curves = outage_curve(_gamma_n(db_grid), expansions, blockages, budget)
    return {f"{stem}_{kind}.csv": (["gamma_n_db"] + labels,
                                   zip(db_grid, *(row.tolist() for per_channel in curve
                                                  for row in per_channel)))
            for curve, kind in zip(curves, ("exact", "asym"))}


def _fig_pdf_vs_coupling(resolved):
    grid = np.linspace(1e-4, 3.0, 300)
    expansions = [_expansion(dict(resolved, rho=rho)) for rho in RHO_CURVES]
    # every channel unblocked, all in one call
    laws = malaga_blockage_pdf(grid, expansions, budget=_budget(resolved))
    return {"fig3a.csv": (["x"] + [f"rho_{_fmt(r)}" for r in RHO_CURVES],
                          zip(grid.tolist(), *laws))}


_FIG3B_PBS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


def _fig_pdf_vs_blockage(resolved):
    grid = np.linspace(1e-4, 3.0, 300)
    laws = malaga_blockage_pdf(grid, _expansion(resolved),
                               [BlockageConfig(p_b=p_b) for p_b in _FIG3B_PBS],
                               _budget(resolved))
    return {"fig3b.csv": (["x"] + [f"pb_{_fmt(p)}" for p in _FIG3B_PBS],
                          zip(grid.tolist(), *laws))}


def _fig_outage_curves(resolved):
    p_bs = (0.0, 1.0)
    expansions = [_expansion(dict(resolved, rho=r)) for r in RHO_CURVES]
    db_grid = np.linspace(0.0, 80.0, 81).tolist()
    return _outage_figure("fig4", db_grid, expansions, p_bs,
                          [f"rho{_fmt(r)}_pb{_fmt(p)}" for r in RHO_CURVES for p in p_bs],
                          _budget(resolved))


def _fig_penalty_vs_blockage(resolved):
    budget = _budget(resolved)
    target = 1e-3
    p_grid = np.geomspace(1e-4, 1.0, 25).tolist()
    rhos = [r for r in RHO_CURVES if r >= 0.25]

    expansions = [_expansion(dict(resolved, rho=rho)) for rho in rhos]
    blockages = [BlockageConfig(p_b=p_b) for p_b in [0.0] + p_grid]
    # the required SNR of every (rho, p_b), all root searches in lockstep
    roots = required_gamma_n(target, expansions, blockages, budget=budget)
    exact = [[10.0 * math.log10(g / ref) for g in need] for ref, *need in roots.tolist()]
    asym = [[power_penalty(ex, bl) for bl in blockages[1:]] for ex in expansions]
    header = ["p_b"] + [f"rho_{_fmt(r)}" for r in rhos]
    return {"fig5a_exact.csv": (header, zip(p_grid, *exact)),
            "fig5a_asym.csv": (header, zip(p_grid, *asym))}


_FIG5B_PBS = (0.0, 1e-3, 1e-2, 1e-1, 1.0)


def _fig_outage_vs_blockage(resolved):
    db_grid = np.linspace(0.0, 120.0, 61).tolist()
    return _outage_figure("fig5b", db_grid, [_expansion(resolved)], _FIG5B_PBS,
                          [f"pb_{_fmt(p)}" for p in _FIG5B_PBS], _budget(resolved))


_FIG6_DBS = (40.0, 80.0, 120.0)
_FIG6_PBS = (0.0, 1e-3, 1e-2, 1e-1)


def _fig_outage_vs_coupling(resolved):
    budget = _budget(resolved)
    rho_grid = np.concatenate([np.linspace(0.01, 0.97, 49),
                               np.array([0.99, 0.999, 0.9999, 1.0])]).tolist()
    combos = [(db, p) for db in _FIG6_DBS for p in _FIG6_PBS]
    expansions = [_expansion(dict(resolved, rho=rho)) for rho in rho_grid]
    blockages = [BlockageConfig(p_b=p_b) for p_b in _FIG6_PBS]
    exact, _ = outage_curve(_gamma_n(_FIG6_DBS), expansions, blockages, budget)
    # columns in combos order: dB outer, p_b inner
    rows = [[rho, *per_rho.T.ravel().tolist()] for rho, per_rho in zip(rho_grid, exact)]
    return {"fig6.csv": (["rho"] + [f"g{int(db)}db_pb{_fmt(p)}" for db, p in combos], rows)}


_FIGURE_EXECUTORS = {
    "fig2b": _fig_beam_profiles,
    "fig3a": _fig_pdf_vs_coupling,
    "fig3b": _fig_pdf_vs_blockage,
    "fig4": _fig_outage_curves,
    "fig5a": _fig_penalty_vs_blockage,
    "fig5b": _fig_outage_vs_blockage,
    "fig6": _fig_outage_vs_coupling,
}


def exec_figure(resolved: dict, out_dir: Path) -> list[str]:
    which = resolved.get("figure")
    if which not in _FIGURE_EXECUTORS:
        raise DomainError(f"unknown figure {which!r}; choose from "
                          + ", ".join(FIGURES))
    return _emit(out_dir, "figure", resolved, _FIGURE_EXECUTORS[which](resolved))


EXECUTORS = {
    "pdf": partial(exec_pointwise, "pdf"),
    "cdf": partial(exec_pointwise, "cdf"),
    "mgf": partial(exec_pointwise, "mgf"),
    "outage": exec_outage,
    "beam": exec_beam,
    "figure": exec_figure,
    "mc": exec_mc,
}


def exec_rerun(resolved: dict, out_dir: Path) -> list[str]:
    manifest = read_manifest(Path(resolved["manifest"]))
    sub = manifest["subcommand"]
    if sub not in EXECUTORS:
        raise DomainError(f"manifest names unknown subcommand {sub!r}")
    inner = manifest.get("resolved")
    if not isinstance(inner, dict):
        raise DomainError("manifest lacks a 'resolved' parameter block")
    _check_types(inner)
    if sub == "mc" and manifest.get("stream") != _MC_STREAM:
        raise DomainError(
            f"the sampling stream changed: this mc manifest names stream "
            f"{manifest.get('stream')!r}, and this version draws only "
            f"{_MC_STREAM!r}, so rerun cannot reproduce its bytes; run mc "
            f"again with its resolved parameters")
    return EXECUTORS[sub](inner, out_dir)


# -- argument parsing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file layered over the preset")
    p.add_argument("--out-dir", default=".", help="output directory")


def _add_channel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--delta-phi", type=float, dest="delta_phi")
    p.add_argument("--normalize", choices=("true", "false"))
    p.add_argument("--epsilon", type=float,
                   help="mixture truncation tolerance for non-integer beta")
    p.add_argument("--rel-tol", type=float, dest="rel_tol",
                   help="relative accuracy requested from the evaluators")


def _add_grid(p: argparse.ArgumentParser, lo: float, hi: float, points: int,
              scale: str) -> None:
    p.add_argument("--grid-lo", type=float, default=lo, dest="grid_lo")
    p.add_argument("--grid-hi", type=float, default=hi, dest="grid_hi")
    p.add_argument("--grid-points", type=int, default=points, dest="grid_points")
    p.add_argument("--grid-scale", choices=("linear", "log"), default=scale,
                   dest="grid_scale")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fso-linklab",
        description="Free-space optical link analysis: composite fading "
                    "statistics, beam blockage geometry, outage probability, "
                    "and Monte Carlo validation.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    for kind, (lo, hi, n, sc) in (("pdf", (1e-3, 5.0, 200, "linear")),
                                  ("cdf", (1e-3, 5.0, 200, "linear")),
                                  ("mgf", (1e-2, 1e6, 60, "log"))):
        p = sub.add_parser(kind, help=f"tabulate the {kind} on a grid")
        _add_common(p)
        _add_channel(p)
        _add_grid(p, lo, hi, n, sc)

    p = sub.add_parser("outage", help="outage probability vs normalized SNR")
    _add_common(p)
    _add_channel(p)
    p.add_argument("--db-lo", type=float, default=0.0, dest="db_lo")
    p.add_argument("--db-hi", type=float, default=80.0, dest="db_hi")
    p.add_argument("--db-points", type=int, default=81, dest="db_points")
    p.add_argument("--mode", choices=("exact", "asymptotic", "both"),
                   default="both")
    p.add_argument("--rho-list", type=float, nargs="+", dest="rho_list",
                   help="sweep several coupling factors (one file each)")
    p.add_argument("--p-b-list", type=float, nargs="+", dest="p_b_list",
                   help="sweep several blockage probabilities")

    p = sub.add_parser("beam", help="beam size, coherence and blockage classes")
    _add_common(p)
    p.add_argument("--w0", type=float)
    p.add_argument("--f0", help="focusing parameter, number or 'inf'")
    p.add_argument("--lambda", type=float, dest="lambda",
                   help="optical wavelength in meters")
    p.add_argument("--cn2", type=float)
    p.add_argument("--obstacle-d", type=float, dest="obstacle_d")
    p.add_argument("--length-lo", type=float, default=100.0, dest="length_lo")
    p.add_argument("--length-hi", type=float, default=2400.0, dest="length_hi")
    p.add_argument("--length-points", type=int, default=47,
                   dest="length_points")

    p = sub.add_parser("figure", help="emit a prebuilt figure dataset")
    p.add_argument("figure", choices=FIGURES)
    _add_common(p)
    _add_channel(p)

    p = sub.add_parser("mc", help="Monte Carlo sampling with GOF checks")
    _add_common(p)
    _add_channel(p)
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="draws, in chunks of 2^18 spread over FSO_LINKLAB_THREADS "
                        "lanes; up to 262,144 draws are one chunk on one lane")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--range-lo", type=float, default=0.0, dest="range_lo")
    p.add_argument("--range-hi", type=float, default=8.0, dest="range_hi")
    p.add_argument("--gamma-db-list", type=float, nargs="+",
                   dest="gamma_db_list", default=_MC_GAMMA_DBS,
                   help="normalized SNR points (dB) for outage estimates")
    p.add_argument("--gof-alpha", type=float, default=0.01, dest="gof_alpha")
    p.add_argument("--with-analytic", action="store_true",
                   dest="with_analytic",
                   help="add the analytic density alongside the histogram")

    # figure names its own files, starts from the paper-figures preset and
    # sets its own blockage probabilities
    for name in ("pdf", "cdf", "mgf", "outage", "beam", "mc"):
        sub.choices[name].add_argument("--preset", help="named parameter preset")
        sub.choices[name].add_argument("--stem", help="basename for output files")
    for name in ("pdf", "cdf", "mgf", "outage", "mc"):
        sub.choices[name].add_argument("--p-b", type=float, dest="p_b",
                                       help="line-of-sight blockage probability")

    p = sub.add_parser("rerun", help="replay a manifest byte for byte")
    p.add_argument("manifest", help="CSV with a manifest line, or a JSON file")
    p.add_argument("--out-dir", default=".", help="output directory")

    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call in this process shares, built on first use.

    argparse keeps no state of a parse on the parser, and every default the
    parser holds is immutable, so one call cannot leak into the next.
    """
    return build_parser()


# argparse entries that steer a run but are not parameters of it
_RUN_KEYS = ("subcommand", "preset", "config", "out_dir")


def _resolved_from_args(args: argparse.Namespace) -> dict:
    """The parsed flags layered over the preset and config file.

    Every other argparse entry is a parameter under its dest; only the
    conversions the parser cannot express are made here.
    """
    flags = {k: v for k, v in vars(args).items() if k not in _RUN_KEYS}
    if flags.get("normalize") is not None:
        flags["normalize"] = flags["normalize"] == "true"
    preset = "paper-figures" if args.subcommand == "figure" else args.preset
    return resolve_config(preset, args.config, flags)


def _fail(kind: str, exc: Exception, code: int) -> int:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _max_workers()  # a malformed env var fails fast on every subcommand
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "rerun":
            names = exec_rerun({"manifest": args.manifest}, out_dir)
        else:
            resolved = _resolved_from_args(args)
            names = EXECUTORS[args.subcommand](resolved, out_dir)
    except _USAGE_ERRORS as exc:
        return _fail("config", exc, 2)
    except OSError as exc:
        return _fail("io", exc, 2)
    except _ACCURACY_ERRORS as exc:
        return _fail("accuracy", exc, 3)
    except GofFailure as exc:
        return _fail("gof", exc, 4)
    for name in names:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
