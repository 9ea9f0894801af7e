"""tools/record_bench.py: the BENCH_*.json recorder, at the benchmark's smoke size."""
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("record_bench", TOOL)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def test_smoke_run_records_one_workload(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--label", "change", "--out", str(out),
         "--seeds", "5", "--workloads", "paper-figures", "--smoke"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    label = doc["labels"]["change"]
    entry = label["workloads"]["paper-figures"]
    assert [r["seed"] for r in entry["runs"]] == [5]
    assert entry["summary"]["all_correct"] and entry["summary"]["failed"] == 0
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(entry["summary"])
    assert entry["summary"]["setup_s"]["n"] == 1
    assert set(entry["layers"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert label["host"]["cpu_count"] >= 1
    assert set(label["source"]) == {"commit", "dirty", "diff_sha256", "src_lines",
                                    "public_names"}
    assert "comparison" not in doc


def _runs(values):
    return {"w": {"runs": [{"seed": s, "metrics": {
        "run_s": v, "setup_s": v, "peak_rss_mb": v, "ops_attempted": 10}}
        for s, v in values]}}


def test_comparison_counts_pairs_over_shared_seeds():
    parent = _runs([(1, 1.0), (2, 1.2), (3, 0.9), (4, 5.0)])
    change = _runs([(1, 0.5), (2, 1.3), (3, 0.4)])
    row = record_bench.compare(parent, change)["w"]["run_s"]
    assert (row["pairs"], row["change_won"], row["parent_won"]) == (3, 2, 1)
    assert row["parent_median"] == 1.0 and row["change_median"] == 0.5
    assert row["parent_iqr"] == pytest.approx(0.15)
    ops = record_bench.compare(parent, change)["w"]["ops_attempted"]
    assert (ops["change_won"], ops["parent_won"]) == (0, 0)


def test_moves_count_the_numeric_cells_that_differ():
    manifest = '# {"tool": "fso-linklab"}\n'
    a = {"argv": ["figure", "fig4"], "files": {
        "fig4.csv": manifest + "x,F\n1.0,0.25\n2.0,0.5\n3.0,nan\n",
        "fig4_asym.csv": manifest + "x,A\n1.0,inf\n"}}
    b = {"argv": ["figure", "fig4"], "files": {
        "fig4.csv": manifest.replace("fso", "FSO") + "x,F\n1.0,0.25\n2.0,0.5000001\n3.0,nan\n",
        "fig4_asym.csv": manifest + "x,A\n1.0,inf\n"}}
    got = record_bench.moves(a, b)
    assert got["cells"] == 1 and got["max_rel"] == pytest.approx(2e-7)
    assert record_bench.moves(a, a) == {"cells": 0, "max_rel": 0.0}
    # an inversion's record: its root moves, its inputs do not
    root = {"p_b": 0.01, "target": 1e-3, "gamma_n": 400.0}
    got = record_bench.moves(root, dict(root, gamma_n=400.0 * (1.0 + 1e-12)))
    assert got["cells"] == 1 and got["max_rel"] == pytest.approx(1e-12)
    # a cell one side lacks, or an infinite one that became finite, moved without bound
    assert record_bench.moves(root, {"p_b": 0.01, "target": 1e-3})["max_rel"] == math.inf
    lost = {"files": {"fig4_asym.csv": a["files"]["fig4_asym.csv"].replace("inf", "7.0")}}
    assert record_bench.moves({"files": {"fig4_asym.csv": a["files"]["fig4_asym.csv"]}},
                              lost) == {"cells": 1, "max_rel": math.inf}


def _git(repo, *args) -> bytes:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True).stdout


def test_source_state_names_the_commit_and_the_uncommitted_diff(tmp_path):
    assert record_bench.source_state(tmp_path) == {
        "commit": None, "dirty": None, "diff_sha256": None,  # not a git checkout
        "src_lines": 0, "public_names": None}
    # the sizes: lines of src/**/*.py, and __all__ read without an import
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        "import missing_module\n__all__ = [\n    'a', 'b',\n    'c',\n]\n")
    (tmp_path / "src" / "pkg" / "sub" / "mod.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not source\n")
    size = {"src_lines": 7, "public_names": 3}
    _git(tmp_path, "init", "-q")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    _git(tmp_path, "add", "BENCHMARK.json", "src")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    head = _git(tmp_path, "rev-parse", "HEAD").decode().strip()
    clean = record_bench.source_state(tmp_path)
    assert clean == {"commit": head, "dirty": False,
                     "diff_sha256": hashlib.sha256(b"").hexdigest(), **size}

    (tmp_path / "BENCHMARK.json").write_text("{}")
    (tmp_path / "untracked.txt").write_text("not part of the diff")
    dirty = record_bench.source_state(tmp_path)
    diff = _git(tmp_path, "diff", "HEAD")
    assert dirty == {"commit": head, "dirty": True,
                     "diff_sha256": hashlib.sha256(diff).hexdigest(), **size}

    # a label holds the runs of one source; another tree is refused before any run
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"labels": {"change": {"workloads": {}, "source": dirty}}}))
    with pytest.raises(SystemExit, match="was recorded from"):
        record_bench.main(["--label", "change", "--out", str(out),
                           "--checkout", str(tmp_path)])


def test_paired_smoke_run_compares_two_trees(tmp_path):
    # A/A at smoke size: this checkout as both parent and change
    out = tmp_path / "bench.json"
    assert record_bench.main(["--paired", str(ROOT), "--out", str(out), "--smoke",
                              "--seeds", "5"]) == 0
    block = json.loads(out.read_text())["paired"]
    assert (block["rounds"], block["bootstrap_draws"], block["smoke"]) == (2, 400, True)
    assert block["cpu"] in os.sched_getaffinity(0)
    assert block["parent"]["source"] == block["change"]["source"]
    assert set(block["workloads"]) == {"realbeta-sweep", "paper-figures"}
    for seeds in block["workloads"].values():
        assert set(seeds) == {"5"}
        for pair in ("ab", "aa"):
            got = seeds["5"][pair]
            assert got["digest_mismatches"] == [] and got["moved"] == {}
            for clock in ("wall", "thread"):
                jobs = got[clock]["jobs"]
                assert jobs and set(got[clock]["list"]) == {"ratio", "ci95", "a_s", "b_s"}
                for cell in [got[clock]["list"], *jobs.values()]:
                    lo, hi = cell["ci95"]
                    assert lo <= hi and cell["ratio"] > 0.0
