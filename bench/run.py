"""fso-linklab benchmark: one closed-loop client running a workload's jobs.

    python3 bench/run.py --workload realbeta-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory. With ``--trace 0`` it measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of spawn -> library imported
  and inputs built (``probe.py``);
* ``run_s``: the job list's time to solution, as the sum over jobs of each
  job's median time; jobs run back to back, cycling through the list, for
  ``--seconds`` and at least one full pass;
* ``peak_rss_mb``: the process's maximum resident set after the timed loop;
* ``ops_attempted``: jobs plus oracle-checked values, the base of
  ``failed_frac``.

With ``--trace 1`` it instead runs the timed loop, then one traced pass, and
reports the per-layer metrics of ``spans.py``. Either way every output must
repeat byte for byte on every pass, and a seeded subsample of outputs is
checked against mpmath after the timed region (``oracle.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable table goes to stderr and a full
report (host facts, per-job samples, every check) to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_attempted", "count"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own self-test")
    return ap.parse_args(argv)


def setup_seconds(args) -> list[float]:
    """Spawn-to-ready times of fresh interpreters building this workload.

    The probe prints its ``perf_counter`` when ready; on Linux that clock is
    CLOCK_MONOTONIC, shared by every process, so exit teardown is not timed.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), args.workload,
             str(args.seed), "1" if args.smoke else "0"],
            capture_output=True, text=True, timeout=120)
        word, _, ready = proc.stdout.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-400:]}")
        times.append(float(ready) - t0)
    return times


class Loop:
    """Runs the jobs back to back and keeps what the oracle needs."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.samples = {j.name: [] for j in workload.jobs}
        self.digests: dict[str, str] = {}
        self.records: dict[str, dict] = {}
        self.errors: dict[str, str] = {}

    def run_job(self, job) -> float:
        out_dir = self.work_dir / job.name
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            raw = job.run(out_dir)
        except Exception as exc:  # a failed job is a counted outcome, not a crash
            dt = time.perf_counter() - t0
            self.errors.setdefault(job.name, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return dt
        dt = time.perf_counter() - t0
        digest, record = job.record(raw)
        del raw
        first = self.digests.setdefault(job.name, digest)
        if digest != first:
            self.errors.setdefault(job.name, "output differs from the first pass")
        self.records.setdefault(job.name, record)
        return dt

    def timed(self, seconds: float) -> None:
        """Cycle through the jobs until ``seconds`` have passed and every job ran once."""
        jobs = self.workload.jobs
        start = time.perf_counter()
        i = 0
        while i < len(jobs) or time.perf_counter() - start < seconds:
            job = jobs[i % len(jobs)]
            self.samples[job.name].append(self.run_job(job))
            i += 1

    def run_s(self) -> float:
        return sum(statistics.median(v) for v in self.samples.values())


def traced_pass(loop: Loop):
    """One pass under the tracer; returns (tracer, pass seconds, job windows)."""
    import spans

    windows = []
    with spans.Tracer() as tracer:
        start = time.perf_counter()
        for job in loop.workload.jobs:
            t0 = time.perf_counter()
            loop.run_job(job)
            windows.append((job.name, t0, time.perf_counter()))
        elapsed = time.perf_counter() - start
    return tracer, elapsed, windows


def crosscheck(tracer, windows, workload) -> dict:
    """gk_cdf calls per job; an outage curve should make points x (branches + 1)."""
    calls = {name: sum(1 for s in tracer.spans if s.name == "malaga.gk_cdf" and t0 <= s.t0 <= t1)
             for name, t0, t1 in windows}
    out = {"gk_cdf_calls_by_job": calls}
    if workload.name == "realbeta-sweep" and not workload.smoke:
        branches = max((s.n for s in tracer.spans if s.name == "malaga.mixture_weights"
                        and s.n), default=0)
        curves = {}
        for name, n in calls.items():
            if name.startswith("outage-"):
                curve = name.rsplit("-", 1)[0]
                curves[curve] = curves.get(curve, 0) + n
        expected = 81 * (branches + 1)
        out["outage_curve"] = {"gk_cdf_calls_per_81_point_curve": curves,
                               "expected": expected, "roadmap_baseline": 6075,
                               "matches": all(n == expected == 6075 for n in curves.values())}
    return out


def host_facts() -> dict:
    import numpy
    import scipy

    import fso_linklab.cli as cli

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "FSO_LINKLAB_THREADS": os.environ.get("FSO_LINKLAB_THREADS"),
        "pool_size": cli._max_workers(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fso_linklab" / "__init__.py").is_file():
        print(f"fso_linklab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    try:
        workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "host": host_facts(),
              "inputs": workload.inputs}
    try:
        loop = Loop(workload, work_dir)
        if args.trace == 0:
            setup = setup_seconds(args)
            report["setup_samples_s"] = setup
        loop.timed(args.seconds)
        run_s = loop.run_s()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace == 1:
            tracer, traced_s, windows = traced_pass(loop)
        import oracle

        checks = oracle.Checks()
        try:
            oracle.check(workload, loop.records, checks)
        except Exception as exc:  # an output the oracle cannot read fails a check
            traceback.print_exc(file=sys.stderr)
            checks.add("oracle", False, error=f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(workload.jobs) + len(checks.entries)
    failed = len(loop.errors) + checks.failed
    report.update(job_samples_s=loop.samples, job_errors=loop.errors,
                  checks=checks.entries)
    if args.trace == 0:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb, "ops_attempted": attempted}
        units = dict(END_TO_END)
    else:
        import spans

        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = traced_s - run_s
        metrics["failed_frac"] = failed / attempted
        units = {m: u for m, u, _ in spans.LAYER_METRICS}
        stem = f"{args.workload}-seed{args.seed}"
        tracer.dump(OUT / f"{stem}-spans.jsonl")
        report["traced_pass_s"] = traced_s
        report["untraced_run_s"] = run_s
        report["crosscheck"] = crosscheck(tracer, windows, workload)
        print(f"crosscheck: {json.dumps(report['crosscheck'])}", file=sys.stderr)
    report["metrics"] = metrics

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}", file=sys.stderr)
    for name, err in loop.errors.items():
        print(f"FAILED job {name}: {err}", file=sys.stderr)
    for e in checks.entries:
        if not e["ok"]:
            print(f"FAILED check {json.dumps(e, default=str)}", file=sys.stderr)
    verdict = "correct" if failed == 0 else f"{failed} of {attempted} operations failed"
    print(f"verdict: {verdict}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
