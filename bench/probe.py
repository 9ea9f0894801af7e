"""Set-up probe: a fresh interpreter imports the library and builds one
workload's inputs, then prints ``ready`` and its ``perf_counter``. ``run.py``
times it from spawn to that moment.

    python3 bench/probe.py <workload> <seed> <smoke 0|1>
"""
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), smoke=sys.argv[3] == "1")
print("ready", repr(time.perf_counter()), flush=True)
