"""Self-test of the benchmark at smoke size.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""
import io
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace), "--smoke"])
    assert rc == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def _bindings_snapshot():
    return {(mod.__name__, attr): vars(mod)[attr]
            for mod in spans.MODULES for attr in vars(mod)}


def _traced_smoke_pass(name):
    wl = workloads.build(name, seed=5, smoke=True)
    loop = run.Loop(wl, HERE / "out" / "test-work")
    try:
        tracer, elapsed, _ = run.traced_pass(loop)
    finally:
        shutil.rmtree(HERE / "out" / "test-work", ignore_errors=True)
    assert not loop.errors
    return tracer, elapsed


def test_tracer_restores_every_binding():
    before = _bindings_snapshot()
    with spans.Tracer():
        import fso_linklab.malaga as malaga
        assert malaga.gk_cdf is not before[("fso_linklab.malaga", "gk_cdf")]
        assert malaga.kve is not before[("fso_linklab.malaga", "kve")]
    _traced_smoke_pass("realbeta-sweep")
    after = _bindings_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_per_thread_fit_in_wall_time(workload):
    tracer, elapsed = _traced_smoke_pass(workload)
    assert tracer.spans
    selfs = spans.self_times(tracer.spans)
    per_thread = defaultdict(float)
    for s in tracer.spans:
        assert selfs[s.sid] >= 0.0
        per_thread[s.tid] += selfs[s.sid]
    assert all(total <= elapsed for total in per_thread.values())


def test_traced_counts_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        tracer, _ = _traced_smoke_pass("realbeta-sweep")
        m = spans.layer_metrics(tracer.spans)
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["malaga.branches_max"] == 74


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first, again, other = (workloads.build(workload, s) for s in (1, 1, 2))
    assert first.inputs == again.inputs != other.inputs
    assert [j.name for j in first.jobs] == [j.name for j in again.jobs]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
