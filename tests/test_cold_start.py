"""Cold start: the package, every CLI subcommand and the large-sample KS
test load only numpy and scipy.special from the scientific stack, and the
CLI builds its parser on the first call, once per process.

scipy.stats and scipy.interpolate cost more to import than the rest of the
package together, and every CLI call starts a fresh interpreter. Each check
runs in its own interpreter so modules loaded by other tests do not count.
"""
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.interpolate")

CLI_RUNS = """
import argparse, json, sys, tempfile

parsers = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: parsers.append(1) or init(self, *a, **k)
import fso_linklab
import fso_linklab.cli as cli
parsers_at_import = len(parsers)
builds = []
build = cli.build_parser
cli.build_parser = lambda: builds.append(1) or build()

ARGV = (
    ["pdf", "--preset", "paper-figures", "--grid-points", "5"],
    ["cdf", "--preset", "paper-figures", "--grid-points", "5"],
    ["mgf", "--preset", "paper-figures", "--grid-points", "5"],
    ["outage", "--preset", "paper-figures", "--db-points", "5"],
    ["figure", "fig2b"],
    ["beam", "--preset", "beam-moderate", "--length-points", "5"],
    ["mc", "--preset", "paper-figures", "--samples", "20000"],
)
with tempfile.TemporaryDirectory() as out:
    codes = [cli.main([*argv, "--out-dir", out]) for argv in ARGV]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules),
                  "parsers_at_import": parsers_at_import, "builds": len(builds)}))
"""

SMALL_KS = """
import json, sys
from fso_linklab import (BlockageConfig, MalagaParams, McConfig,
                         collect_samples, gof_ks, mixture_weights)

ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0))
bl = BlockageConfig(p_b=0.1)
before = sorted(sys.modules)
gof_ks(collect_samples(ex, bl, McConfig(samples=500, seed=2)), ex, bl)
print(json.dumps({"before": before, "modules": sorted(sys.modules)}))
"""

LARGE_KS = """
import json, sys
from fso_linklab import (BlockageConfig, MalagaParams, McConfig,
                         collect_samples, gof_ks, mixture_weights)
from fso_linklab import montecarlo

ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0))
bl = BlockageConfig(p_b=0.1)
paths = []
candidates = montecarlo._ks_candidates
montecarlo._ks_candidates = lambda *args: paths.append("interpolant") or candidates(*args)
gof_ks(collect_samples(ex, bl, McConfig(samples=200_000, seed=2)), ex, bl)
print(json.dumps({"paths": paths, "modules": sorted(sys.modules)}))
"""


def run_fresh(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@functools.cache
def cli_runs():
    return run_fresh(CLI_RUNS)


def test_cli_subcommands_leave_out_scipy_stats():
    result = cli_runs()
    assert result["codes"] == [0] * 7
    modules = set(result["modules"])
    assert "scipy.special" in modules
    assert not modules.intersection(HEAVY), sorted(modules.intersection(HEAVY))


def test_cli_builds_its_parser_once_and_not_at_import():
    result = cli_runs()
    assert result["codes"] == [0] * 7
    assert result["parsers_at_import"] == 0
    assert result["builds"] == 1


def test_exact_small_sample_ks_tail_loads_scipy_stats():
    # positive control: the one path that still needs scipy.stats loads it
    result = run_fresh(SMALL_KS)
    assert "scipy.stats" not in result["before"]
    assert "scipy.stats" in result["modules"]


def test_large_sample_ks_interpolant_loads_neither():
    # the interpolant path of gof_ks is numpy alone
    result = run_fresh(LARGE_KS)
    assert result["paths"] == ["interpolant"]
    assert not set(result["modules"]).intersection(HEAVY)
