"""In-memory span tracer that patches module bindings from outside the program.

``Tracer`` replaces every public function bound in the ``fso_linklab``
modules, the package itself, the CLI's private thread-pool map, and the
scipy ufuncs ``kve``/``hyp1f1`` where ``malaga`` and ``special_math`` bind
them, with wrappers that record one span per call: id, parent id on the same
thread, name, thread id, start, end and an optional element count. Because
modules call each other through their module globals, calls between layers
pass through the patched bindings. Leaving the ``with`` block restores every
original binding.

``layer_metrics`` folds the spans into the benchmark's per-layer metrics.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from typing import NamedTuple

import numpy as np

import fso_linklab
import fso_linklab.beam
import fso_linklab.cli
import fso_linklab.malaga
import fso_linklab.montecarlo
import fso_linklab.outage
import fso_linklab.special_math

MODULES = (
    fso_linklab,
    fso_linklab.beam,
    fso_linklab.cli,
    fso_linklab.malaga,
    fso_linklab.montecarlo,
    fso_linklab.outage,
    fso_linklab.special_math,
)
# scipy primitives, by the module that binds them
UFUNC_BINDINGS = (
    (fso_linklab.malaga, "kve"),
    (fso_linklab.special_math, "kve"),
    (fso_linklab.special_math, "hyp1f1"),
)
PARALLEL_MAP = "cli._parallel_map"
PARALLEL_TASK = "cli.parallel_map.task"


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    tid: int
    t0: float
    t1: float
    n: int | None


def _size(args, kwargs, result):
    return int(np.size(args[0]))


def _kve_size(args, kwargs, result):
    return int(np.broadcast(args[0], args[1]).size)


# element counts recorded per span name; everything else records calls only
COUNTERS = {
    "scipy.kve": _kve_size,
    "malaga.gk_cdf": _size,
    "malaga.malaga_blockage_cdf": _size,
    "malaga.mixture_weights": lambda a, k, r: len(r.weights),
    "montecarlo.sample_chunk": lambda a, k, r: int(a[1]),
    "cli.write_csv": lambda a, k, r: os.path.getsize(a[0]),
}


def bindings():
    """Every (module, attribute, span name) pair the tracer patches."""
    out = []
    for mod in MODULES:
        for attr, val in sorted(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(val, types.FunctionType)
                    or not val.__module__.startswith("fso_linklab.")):
                continue
            out.append((mod, attr, f"{val.__module__.rsplit('.', 1)[1]}.{val.__name__}"))
    out.append((fso_linklab.cli, "_parallel_map", PARALLEL_MAP))
    for mod, attr in UFUNC_BINDINGS:
        out.append((mod, attr, f"scipy.{attr}"))
    return out


class Tracer:
    """Context manager: patch on entry, restore on exit, spans in ``self.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            if name == PARALLEL_MAP:
                args = (self.wrap(PARALLEL_TASK, args[0]), *args[1:])
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            result = ok = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = counter(args, kwargs, result) if counter and ok else None
                spans.append(Span(sid, parent, name, threading.get_ident(), t0, t1, n))

        return traced

    def __enter__(self):
        for mod, attr, name in bindings():
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children (same thread)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.t1 - s.t0
    return {s.sid: (s.t1 - s.t0) - child[s.sid] for s in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    p = span.parent
    while p >= 0:
        up = by_id[p]
        if up.name == name:
            return True
        p = up.parent
    return False


# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = (
    ("scipy.kve.calls", "count", "lower"),
    ("scipy.kve.elements", "count", "lower"),
    ("scipy.kve.self_s", "s", "lower"),
    ("malaga.gk_cdf.calls", "count", "lower"),
    ("malaga.gk_cdf.elements", "count", "lower"),
    ("malaga.gk_cdf.self_s", "s", "lower"),
    ("malaga.gk_pdf.calls", "count", "lower"),
    ("malaga.gk_pdf.self_s", "s", "lower"),
    ("malaga.gk_mgf.calls", "count", "lower"),
    ("malaga.gk_mgf.self_s", "s", "lower"),
    ("malaga.mixture.self_s", "s", "lower"),
    ("malaga.mixture_weights.calls", "count", "lower"),
    ("malaga.mixture_weights.self_s", "s", "lower"),
    ("malaga.branches_max", "count", "lower"),
    ("special_math.tricomi_u.calls", "count", "lower"),
    ("special_math.tricomi_u.self_s", "s", "lower"),
    ("special_math.bessel_k_log.calls", "count", "lower"),
    ("special_math.bessel_k_log.self_s", "s", "lower"),
    ("scipy.hyp1f1.calls", "count", "lower"),
    ("scipy.hyp1f1.self_s", "s", "lower"),
    ("outage.outage_exact.calls", "count", "lower"),
    ("outage.outage_exact.self_s", "s", "lower"),
    ("outage.required_gamma_n.calls", "count", "lower"),
    ("outage.required_gamma_n.self_s", "s", "lower"),
    ("outage.evals_per_root", "evals/root", "lower"),
    ("montecarlo.sample_chunk.samples", "count", "lower"),
    ("montecarlo.sample_chunk.self_s", "s", "lower"),
    ("montecarlo.summarize.self_s", "s", "lower"),
    ("montecarlo.gof_chisquare.self_s", "s", "lower"),
    ("montecarlo.gof_ks.self_s", "s", "lower"),
    ("montecarlo.gof_ks.cdf_elements", "count", "lower"),
    ("cli.write_csv.calls", "count", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.parallel_map.wall_s", "s", "lower"),
    ("cli.parallel_map.task_s", "s", "lower"),
    ("beam.calls", "count", "lower"),
    ("beam.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
)

# span names folded into one metric group
GROUPS = {
    "malaga.mixture": lambda n: n.startswith("malaga.malaga_"),
    "montecarlo.summarize": lambda n: n in ("montecarlo.summarize",
                                            "montecarlo.summarize_values"),
    "beam": lambda n: n.startswith("beam."),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values from one traced pass (without the run-level ones)."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls = defaultdict(int)
    elements = defaultdict(int)
    self_s = defaultdict(float)
    dur = defaultdict(float)
    for s in spans:
        keys = [s.name] + [g for g, match in GROUPS.items() if match(s.name)]
        for key in keys:
            calls[key] += 1
            self_s[key] += selfs[s.sid]
            dur[key] += s.t1 - s.t0
            if s.n is not None:
                elements[key] += s.n
    roots = calls["outage.required_gamma_n"]
    root_evals = sum(1 for s in spans if s.name == "outage.outage_exact"
                     and by_id.get(s.parent, s).name == "outage.required_gamma_n")
    ks_elements = sum(s.n for s in spans if s.name == "malaga.malaga_blockage_cdf"
                      and _has_ancestor(s, "montecarlo.gof_ks", by_id))
    branches = [s.n for s in spans if s.name == "malaga.mixture_weights" and s.n]
    out = {}
    for metric, _, _ in LAYER_METRICS:
        key, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[key]
        elif stat == "elements":
            out[metric] = elements[key]
        elif stat == "self_s":
            out[metric] = self_s[key]
    out["malaga.branches_max"] = max(branches, default=0)
    out["outage.evals_per_root"] = root_evals / roots if roots else 0.0
    out["montecarlo.sample_chunk.samples"] = elements["montecarlo.sample_chunk"]
    out["montecarlo.gof_ks.cdf_elements"] = ks_elements
    out["cli.write_csv.bytes"] = elements["cli.write_csv"]
    out["cli.parallel_map.wall_s"] = dur[PARALLEL_MAP]
    out["cli.parallel_map.task_s"] = dur[PARALLEL_TASK]
    return {m: out[m] for m, _, _ in LAYER_METRICS if m in out}
