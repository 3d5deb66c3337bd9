"""Print the set-up seconds of one workload in this fresh interpreter.

Set-up is what every CLI invocation pays before its first call: importing
``omnirelay.cli`` and building the workload's argv, including its rate.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import omnirelay.cli  # noqa: E402,F401
from workloads import build_argv  # noqa: E402

build_argv(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - start))
