"""omnirelay benchmark: time to result of the ``omnirelay`` CLI.

One process per workload.  A closed loop with one caller in one thread calls
``omnirelay.cli.main(argv)`` in-process with stdout captured and starts the
next call only after the previous one returned, for ``--seconds`` seconds.
Every call is checked (``check.py``); a call fails when its exit code is not
0 or its output fails the check.

``--trace 0`` reports the end-to-end metrics:
  op_s         median seconds of one ``cli.main`` call;
  setup_s      median seconds to import ``omnirelay.cli`` and build the
               workload's argv, each in a fresh interpreter started before a
               call;
  peak_rss_mb  peak resident memory of this process.
op_s and setup_s are wall times scaled to a fixed host speed (see
CALIBRATION_REF_S); the unscaled median of op_s is printed beside it.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``tracer.py`` from the traced call of median duration.

Human-readable metric lines with sample counts go to stdout; the last line
of stdout is the JSON result.  Runs only from a checkout holding ``src/``.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from check import check
from tracer import METRICS as LAYER_METRICS
from tracer import MissingBoundary, Tracer
from workloads import WORKLOADS, build_argv

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PROBE_TIMEOUT_S = 60

# The speed of a shared host drifts by up to 1.7x over minutes, and every
# wall time drifts with it.  op_s and setup_s therefore scale each measured
# interval by CALIBRATION_REF_S over the mean wall time of a fixed calibration
# loop run just before and just after it: they read in seconds at the host
# speed where the loop takes CALIBRATION_REF_S.
CALIBRATION_LOOPS = 240_000
CALIBRATION_REF_S = 0.1


def import_package():
    """Import ``omnirelay`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "omnirelay" / "__init__.py").is_file():
        raise SystemExit(f"no omnirelay sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import omnirelay
    from omnirelay import cli, protocol_sim, rate_analysis

    if Path(omnirelay.__file__).resolve().parent != SRC / "omnirelay":
        raise SystemExit(f"imported omnirelay from {omnirelay.__file__}, not {SRC}")
    return {"cli": cli, "protocol_sim": protocol_sim, "rate_analysis": rate_analysis}


class PayloadTap:
    """Counts value mismatches of ``cli.payload_demo``; the CLI output omits them."""

    def __init__(self, cli):
        if not callable(getattr(cli, "payload_demo", None)):
            raise MissingBoundary("omnirelay.cli.payload_demo is missing")
        self._cli = cli
        self._original = cli.payload_demo
        self.mismatches: int | None = None

    def __call__(self, *args, **kwargs):
        reports = self._original(*args, **kwargs)
        self.mismatches = (self.mismatches or 0) + sum(len(r.mismatches) for r in reports)
        return reports

    def __enter__(self):
        self._cli.payload_demo = self
        return self

    def __exit__(self, *exc):
        self._cli.payload_demo = self._original


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up seconds of the workload, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop calls of one workload, with every output checked."""

    def __init__(self, modules, workload: str, seed: int, tap: PayloadTap):
        self.cli = modules["cli"]
        self.workload = workload
        self.argv = build_argv(workload, seed)
        self.tap = tap
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, tracer=None) -> tuple[float, str]:
        """One call, timed and checked: (seconds, stdout)."""
        self.tap.mismatches = None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(self.argv)
                else:
                    code = tracer.span("cli", self.cli.main, self.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash in the program is a failed call, not a benchmark error
                traceback.print_exc(file=err)
                code = -1
            elapsed = perf_counter() - start
        self.attempted += 1
        reasons = check(self.workload, code, out.getvalue(), err.getvalue(), self.tap.mismatches)
        if reasons:
            self.failures.append(f"call {self.attempted}: " + "; ".join(reasons))
        return elapsed, out.getvalue()


def calibration_seconds() -> float:
    """Wall seconds of a fixed pure-Python loop, independent of the package."""
    start = perf_counter()
    table, total = {}, 0.0
    for i in range(CALIBRATION_LOOPS):
        item = (i, i * 0.5, frozenset((i % 7, i % 11)))
        table[i % 1000] = item
        total += item[1] ** 0.5
    return perf_counter() - start


def untraced(loop: Loop, seconds: float, seed: int) -> dict:
    # Set-up probes alternate with the calls, and calibration loops with
    # both, so that each interval is scaled by the host speed around it.
    setup, durations, raw = [], [], []
    before = calibration_seconds()
    start = perf_counter()
    while not durations or perf_counter() - start < seconds:
        probe = setup_seconds(loop.workload, seed)
        middle = calibration_seconds()
        op = loop.call()[0]
        after = calibration_seconds()
        setup.append(probe * 2 * CALIBRATION_REF_S / (before + middle))
        durations.append(op * 2 * CALIBRATION_REF_S / (middle + after))
        raw.append(op)
        before = after
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_s": (
            statistics.median(durations),
            "s",
            f"median of {len(durations)} calls; unscaled median {statistics.median(raw):.6g} s",
        ),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreters"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "1 process"),
    }


def traced(loop: Loop, modules, seconds: float) -> dict:
    tracer = Tracer(modules)
    plain, calls = [], []
    start = perf_counter()
    while not calls or perf_counter() - start < seconds:
        plain.append(loop.call()[0])
        tracer.reset()
        tracer.install()
        try:
            _, stdout = loop.call(tracer)
        finally:
            tracer.uninstall()
        root = tracer.spans[0]
        op = root[2] - root[1]
        selfs = tracer.self_times()
        misplaced = tracer.nesting_errors()
        if misplaced:
            raise RuntimeError(f"spans do not nest: {misplaced[:5]}")
        if abs(sum(selfs.values()) - op) > 1e-9 * max(1.0, op):
            raise RuntimeError(f"self times sum to {sum(selfs.values())}, root span is {op}")
        counters = tracer.counters()
        counters["cli.output_bytes"] = len(stdout.encode())
        counters["binning.mismatches"] = loop.tap.mismatches or 0
        if calls and counters != calls[0][2]:
            raise RuntimeError("work counters differ between traced calls of one input")
        calls.append((op, selfs, counters))

    op, selfs, counters = sorted(calls, key=lambda c: c[0])[(len(calls) - 1) // 2]
    values = dict.fromkeys(LAYER_METRICS, 0)
    values.update(counters)
    values.update({f"{layer}.self_s": s for layer, s in selfs.items()})
    values["trace.op_s"] = op
    values["trace.overhead_s"] = op - statistics.median(plain)
    k = len(calls)

    def samples(name: str, unit: str) -> str:
        if name == "trace.overhead_s":
            return f"median of {k} traced minus median of {len(plain)} untraced calls"
        if unit == "s":
            return f"traced call of median duration among {k}"
        return f"identical over {k} traced calls"

    return {name: (values[name], unit, samples(name, unit)) for name, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_package()
    with PayloadTap(modules["cli"]) as tap:
        loop = Loop(modules, args.workload, args.seed, tap)
        if args.trace:
            metrics = traced(loop, modules, args.seconds)
        else:
            metrics = untraced(loop, args.seconds, args.seed)

    failed = len(loop.failures)
    for reason in loop.failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({samples})")
    print(f"{args.workload} error_rate = {failed / loop.attempted:.6g} ({failed} of {loop.attempted} calls)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": loop.attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
