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
mistaken for its parent. A call whose checkout differs from what the label
already holds is refused.

When the file holds both a ``parent`` and a ``change`` label, it also gets
a per-workload comparison over the seeds both labels ran: medians, the
parent's quartile spread and how many seed pairs the change won.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "ops_attempted")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="name the runs are filed under")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_*.json to create or extend")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="tree whose bench/run.py and src/ are measured")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+",
                    help="default: every workload in the checkout's BENCHMARK.json")
    ap.add_argument("--smoke", action="store_true",
                    help="the benchmark's tiny inputs and shortest run, for a self-test")
    return ap.parse_args(argv)


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


def source_state(checkout: Path) -> dict:
    """Commit of a git checkout, whether tracked files differ, and the diff's hash."""
    if not (checkout / ".git").exists():
        return {"commit": None, "dirty": None, "diff_sha256": None}

    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              check=True).stdout

    diff = git("diff", "HEAD")
    return {"commit": git("rev-parse", "HEAD").decode().strip(), "dirty": bool(diff),
            "diff_sha256": hashlib.sha256(diff).hexdigest()}


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


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
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
