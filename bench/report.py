"""Print every benchmark metric of every workload, with unit and sample count.

Runs ``bench/run.py`` once per workload with tracing off and once with
tracing on, each in a fresh process, prints their metric lines, and exits 1
if any run fails or any call fails its correctness check.

Usage: python3 bench/report.py [--seed N] [--seconds S] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)}; default all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")

    ok = True
    for workload in args.workloads or list(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            try:
                correct = json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                correct = False
            if proc.returncode != 0 or not correct:
                print(f"{workload} trace={trace}: FAILED (exit {proc.returncode})")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
