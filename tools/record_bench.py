"""Record a BENCH_*.json trajectory from the benchmark in a checkout.

    python3 tools/record_bench.py --label parent --checkout ../parent --out BENCH_7.json
    python3 tools/record_bench.py --label change --seeds 1 2 3 --out BENCH_7.json
    python3 tools/record_bench.py --label change --workloads paper-figures --smoke --out b.json

For each workload and seed it runs ``bench/run.py --trace 0`` of the
checkout in a fresh process, at the run length BENCHMARK.json declares, and
keeps the result line's end-to-end metrics. The first time a label meets a
workload it adds one ``--trace 1`` run for the per-layer metrics. Every
run is appended to the output file as soon as it ends, and the label's
medians and quartiles are recomputed, so labels can be recorded in
alternating calls (parent seed 1, change seed 1, change seed 2, ...) and
the parent can be a scratch checkout that does not have this script.

Each label also records the source it measured: the checkout's commit,
whether its tracked files differed from that commit, and a sha256 of
``git diff HEAD``, so a change measured before it was committed is not
mistaken for its parent; and the two sizes the ROADMAP tracks, the lines of
``src/**/*.py`` and the names in the package's ``__all__``. A call whose
checkout differs from what the label already holds is refused.

When the file holds both a ``parent`` and a ``change`` label, it also gets
a per-workload comparison over the seeds both labels ran: medians, the
parent's quartile spread and how many seed pairs the change won.

    python3 tools/record_bench.py --paired ../parent --seeds 1 2 3 --out BENCH_7.json

``--paired PARENT`` instead times the job lists of realbeta-sweep and
paper-figures in the parent (A) and the checkout (B) side by side. Each
tree gets a worker process that imports its own ``src/`` and
``bench/workloads.py``, and both workers are pinned to one CPU. The driver
runs each job in A and in B, job by job, in ABBA order over 40 rounds
(2 with ``--smoke``), so a slow phase of the host hits both trees. It writes a
``paired`` block beside ``comparison``: per seed, the per-job and job-list
ratios (sum of per-job medians of B over A) in wall and thread time, each
with a bootstrap 95 % interval over rounds; the same for an A/A control,
the parent against itself; and every job whose output digest differs
between the two trees, with how many of its numeric cells moved (the CSV
cells of a CLI job, the root of an inversion) and the largest relative
move. Per pair it prints the job-list ratios, the moved jobs, and every
job whose thread-time interval excludes 1 ("none" when each holds 1).

    python3 tools/record_bench.py --paired ../parent --cold --seeds 1 2 3 --out BENCH_7.json

``--cold`` times one-shot calls: before every timed job each worker gives
the law module fresh tables of the same budget and empties the gamma-table
cache, in both trees, so no job reuses what an earlier one formed. The
result is filed as a ``paired_cold`` block, beside any ``paired`` one.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "ops_attempted")
PAIRED_WORKLOADS = ("realbeta-sweep", "paper-figures")
# 40 rounds put an A/A job-list interval within a few percent of 1 on a
# 2-CPU host; a smoke run only checks the plumbing
PAIRED_ROUNDS, SMOKE_ROUNDS = 40, 2
BOOTSTRAP_DRAWS = 400


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="name the runs are filed under")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_*.json to create or extend")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="tree whose bench/run.py and src/ are measured")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+",
                    help="default: every workload in the checkout's BENCHMARK.json")
    ap.add_argument("--smoke", action="store_true",
                    help="the benchmark's tiny inputs and shortest run, for a self-test")
    ap.add_argument("--paired", type=Path, metavar="PARENT",
                    help="time PARENT's and the checkout's job lists side by side instead")
    ap.add_argument("--cold", action="store_true",
                    help="with --paired: start every timed job without law tables")
    args = ap.parse_args(argv)
    if args.paired is None and args.label is None:
        ap.error("--label is required unless --paired is given")
    if args.cold and args.paired is None:
        ap.error("--cold needs --paired")
    return args


def run_bench(checkout: Path, workload: str, seed: int, trace: int,
              seconds: float, smoke: bool) -> dict:
    """One bench/run.py process: its result line plus the report's host facts."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    report = checkout / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    host = json.loads(report.read_text())["host"]
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host": host}


def public_names(checkout: Path) -> int | None:
    """Length of __all__ in the package's __init__.py, read without importing it."""
    for init in sorted(checkout.glob("src/*/__init__.py")):
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                return len(node.value.elts)
    return None


def source_state(checkout: Path) -> dict:
    """Commit of a git checkout, whether tracked files differ, the diff's hash,
    and the source's size: lines of src/**/*.py and public names."""
    size = {"src_lines": sum(path.read_bytes().count(b"\n")
                             for path in checkout.glob("src/**/*.py")),
            "public_names": public_names(checkout)}
    if not (checkout / ".git").exists():
        return {"commit": None, "dirty": None, "diff_sha256": None, **size}

    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              check=True).stdout

    diff = git("diff", "HEAD")
    return {"commit": git("rev-parse", "HEAD").decode().strip(), "dirty": bool(diff),
            "diff_sha256": hashlib.sha256(diff).hexdigest(), **size}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def summarize(entry: dict) -> None:
    runs = entry["runs"]
    entry["summary"] = {m: spread([r["metrics"][m] for r in runs]) for m in END_TO_END}
    entry["summary"]["failed"] = sum(r["failed"] for r in runs)
    entry["summary"]["all_correct"] = all(r["correct"] for r in runs)


def compare(parent: dict, change: dict) -> dict:
    """Per metric over the seeds both labels ran: medians, spread, pairs won."""
    out = {}
    for workload in sorted(set(parent) & set(change)):
        p_runs = {r["seed"]: r["metrics"] for r in parent[workload]["runs"]}
        c_runs = {r["seed"]: r["metrics"] for r in change[workload]["runs"]}
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        rows = {}
        for m in END_TO_END:
            p = [p_runs[s][m] for s in seeds]
            c = [c_runs[s][m] for s in seeds]
            ps, cs = spread(p), spread(c)
            # ops_attempted is better higher; the timings and memory lower
            sign = -1.0 if m == "ops_attempted" else 1.0
            rows[m] = {
                "pairs": len(seeds),
                "change_won": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                "parent_won": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                "parent_median": ps["median"], "change_median": cs["median"],
                "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
                "parent_iqr": ps["q3"] - ps["q1"],
            }
        out[workload] = rows
    return out


def empty_law_tables(malaga) -> None:
    """Leave the law module as a new process has it: fresh tables of the same
    budget, and no cached gamma table."""
    malaga._TABLES = malaga._Tables(budget=malaga._TABLES.budget)
    malaga._gamma_table.cache_clear()


def worker(tree: str, workload: str, seed: str, smoke: str, cpu: str, cold: str) -> int:
    """One tree's side of --paired: run the job the driver names, report its times.

    Prints the job names and each job's output digest and record from a
    first, untimed pass, then one line of wall and thread seconds per job
    index read from stdin, until stdin closes. With cold "1" the law tables
    are emptied before each timed job.
    """
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "bench")]
    import workloads
    from fso_linklab import malaga

    reply, sys.stdout = sys.stdout, sys.stderr  # jobs print nothing on the protocol
    jobs = workloads.build(workload, int(seed), smoke == "1").jobs

    def say(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        digests, records = zip(*(j.record(j.run(out)) for j in jobs))
        say({"jobs": [j.name for j in jobs], "digests": digests, "records": records})
        for line in sys.stdin:
            job = jobs[int(line)]
            if cold == "1":
                empty_law_tables(malaga)
            t0, c0 = time.perf_counter(), time.thread_time()
            job.run(out)
            say([time.perf_counter() - t0, time.thread_time() - c0])
    return 0


class Worker:
    """The driver's handle on a worker process."""

    def __init__(self, tree: Path, workload: str, seed: int, smoke: bool, cpu, cold: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), workload,
             str(seed), "1" if smoke else "0", "-" if cpu is None else str(cpu),
             "1" if cold else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self.read()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"paired worker exited {self.proc.wait()}")
        return json.loads(line)

    def time(self, job: int) -> list[float]:
        self.proc.stdin.write(f"{job}\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def numeric_cells(record: dict) -> dict:
    """A job record's numbers by position: each CSV cell of its files, and
    each number among its own values (an inversion's root and inputs)."""
    cells = {}
    for key, value in record.items():
        if key == "files":
            for name, text in value.items():
                for i, line in enumerate(text.splitlines()):
                    if line.startswith("#"):  # the manifest line
                        continue
                    for c, cell in enumerate(line.split(",")):
                        try:
                            cells[name, i, c] = float(cell)
                        except ValueError:  # a header or a label
                            pass
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            cells[key] = float(value)
    return cells


def moves(a: dict, b: dict) -> dict:
    """Numeric cells of two records of one job that differ, and the largest
    relative move |b - a| / max(|a|, |b|): infinite for a cell that only one
    record has, or that is not finite and differs."""
    ca, cb = numeric_cells(a), numeric_cells(b)
    moved = []
    for key in ca.keys() | cb.keys():
        p, q = ca.get(key), cb.get(key)
        if p is None or q is None or not (math.isfinite(p) and math.isfinite(q)):
            if repr(p) != repr(q):  # nan repeats as nan
                moved.append(math.inf)
        elif p != q:
            moved.append(abs(q - p) / max(abs(p), abs(q)))
    return {"cells": len(moved), "max_rel": max(moved, default=0.0)}


def ratios(a: list, b: list, draws: int, rng: random.Random) -> dict:
    """B over A from per-round samples a[job][round], b[job][round].

    The job-list ratio is the sum of B's per-job medians over A's; each
    interval is the 2.5th to 97.5th percentile over bootstrap draws of
    whole rounds, so a round's A and B samples stay paired.
    """
    rounds = len(a[0])

    def at(rows):
        ma = [statistics.median(x[i] for i in rows) for x in a]
        mb = [statistics.median(x[i] for i in rows) for x in b]
        return [q / p for p, q in zip(ma, mb)] + [sum(mb) / sum(ma)], ma, mb

    point, ma, mb = at(range(rounds))
    boot = [at([rng.randrange(rounds) for _ in range(rounds)])[0] for _ in range(draws)]
    ci = [statistics.quantiles([d[k] for d in boot], n=40, method="inclusive")
          for k in range(len(point))]
    cell = [{"ratio": r, "ci95": [c[0], c[-1]]} for r, c in zip(point, ci)]
    return {"list": dict(cell[-1], a_s=sum(ma), b_s=sum(mb)),
            "jobs": [dict(c, a_s=p, b_s=q) for c, p, q in zip(cell, ma, mb)]}


def ratio_text(cell: dict) -> str:
    return f"{cell['ratio']:.3f} [{cell['ci95'][0]:.3f}, {cell['ci95'][1]:.3f}]"


def jobs_off_one(jobs: dict) -> str:
    """The jobs whose 95 % interval excludes 1, with ratio and interval, or "none"."""
    return ", ".join(f"{name} {ratio_text(cell)}" for name, cell in jobs.items()
                     if not cell["ci95"][0] <= 1.0 <= cell["ci95"][1]) or "none"


def paired_run(tree_a: Path, tree_b: Path, workload: str, seed: int, smoke: bool,
               rounds: int, cpu, cold: bool, rng: random.Random) -> dict:
    """ABBA rounds of one workload's jobs in two trees: ratios, digest mismatches
    and how far the mismatched jobs' cells moved."""
    a, b = (Worker(t, workload, seed, smoke, cpu, cold) for t in (tree_a, tree_b))
    try:
        names = a.ready["jobs"]
        if b.ready["jobs"] != names:
            raise RuntimeError(f"{workload} seed {seed}: the trees build different job lists")
        samples = {side: [[] for _ in names] for side in "ab"}
        for r in range(rounds):
            for j in range(len(names)):
                # A B, then B A: the pairs alternate along the run (ABBA)
                pair = ((a, "a"), (b, "b"))
                for w, side in pair if (r * len(names) + j) % 2 == 0 else pair[::-1]:
                    samples[side][j].append(w.time(j))
    finally:
        a.close()
        b.close()
    clocks = {}
    for c, clock in enumerate(("wall", "thread")):
        got = ratios([[s[c] for s in job] for job in samples["a"]],
                     [[s[c] for s in job] for job in samples["b"]], BOOTSTRAP_DRAWS, rng)
        got["jobs"] = dict(zip(names, got["jobs"]))
        clocks[clock] = got
    mismatches = [j for j, (p, q) in enumerate(zip(a.ready["digests"], b.ready["digests"]))
                  if p != q]
    return dict(clocks, digest_mismatches=[names[j] for j in mismatches], moved={
        names[j]: moves(a.ready["records"][j], b.ready["records"][j]) for j in mismatches})


def paired(args, checkout: Path) -> int:
    parent = args.paired.resolve()
    try:
        cpu = min(os.sched_getaffinity(0))
    except AttributeError:  # no CPU pinning on this platform
        cpu = None
    rng = random.Random(0)
    rounds = SMOKE_ROUNDS if args.smoke else PAIRED_ROUNDS
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = "paired_cold" if args.cold else "paired"
    block = doc[key] = {
        "parent": {"source": source_state(parent)},
        "change": {"source": source_state(checkout)},
        "cpu": cpu, "rounds": rounds, "bootstrap_draws": BOOTSTRAP_DRAWS,
        "smoke": args.smoke, "workloads": {}}
    for workload in args.workloads or PAIRED_WORKLOADS:
        for seed in args.seeds:
            entry = block["workloads"].setdefault(workload, {})[str(seed)] = {
                pair: paired_run(parent, tree, workload, seed, args.smoke, rounds, cpu,
                                 args.cold, rng)
                for pair, tree in (("ab", checkout), ("aa", parent))}
            for pair in ("ab", "aa"):
                got = entry[pair]
                print(f"{key} {pair} {workload} seed {seed}: list "
                      + ", ".join(f"{c} {ratio_text(got[c]['list'])}" for c in ("wall", "thread"))
                      + ", digests differ: "
                      + (", ".join(f"{n} ({m['cells']} cells, max {m['max_rel']:.2g})"
                                   for n, m in got["moved"].items()) or "none"),
                      file=sys.stderr)
                print(f"{key} {pair} {workload} seed {seed}: thread-time CI excludes 1: "
                      + jobs_off_one(got["thread"]["jobs"]), file=sys.stderr)
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker(*argv[1:])
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    if args.paired is not None:
        return paired(args, checkout)
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("benchmark", {"command": spec["command"], "run_seconds": seconds,
                                 "smoke": args.smoke})
    labels = doc.setdefault("labels", {})
    label = labels.setdefault(args.label, {"workloads": {}})
    source = source_state(checkout)
    if label.setdefault("source", source) != source:
        raise SystemExit(f"label {args.label!r} was recorded from {label['source']}, "
                         f"but {checkout} is now {source}")

    def save():
        if "parent" in labels and "change" in labels:
            doc["comparison"] = compare(labels["parent"]["workloads"],
                                        labels["change"]["workloads"])
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for seed in args.seeds:
        for workload in workloads:
            entry = label["workloads"].setdefault(workload, {"runs": []})
            run = run_bench(checkout, workload, seed, 0, seconds, args.smoke)
            label["host"] = run.pop("host")
            entry["runs"] = [r for r in entry["runs"] if r["seed"] != seed] + [run]
            entry["runs"].sort(key=lambda r: r["seed"])
            summarize(entry)
            print(f"{args.label} {workload} seed {seed}: "
                  + ", ".join(f"{m} {run['metrics'][m]:.4g}" for m in END_TO_END),
                  file=sys.stderr)
            if "layers" not in entry:
                traced = run_bench(checkout, workload, seed, 1, seconds, args.smoke)
                traced.pop("host")
                entry["layers"] = traced
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
