"""Tests of the benchmark itself: tracing, counters and the output check.

Run with: python3 -m pytest bench/test_bench.py
(about a minute; every workload runs a few times).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from check import check  # noqa: E402
from tracer import MissingBoundary, Tracer  # noqa: E402
from workloads import WORKLOADS, build_argv  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_and_end_to_end_metrics_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    result = run("line-analyze", 4, trace=0)
    assert result["correct"] and result["attempted"] == 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_counters_and_self_times_sum_to_op(workload):
    first, second = run(workload, 5, trace=1), run(workload, 5, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert layer_sum == pytest.approx(metrics["trace.op_s"], rel=1e-9)
    counters = [
        {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
        for result in (first, second)
    ]
    assert counters[0] == counters[1]
    if WORKLOADS[workload].command == "simulate":
        assert counters[0]["mac_region.instances"] > 0
    else:
        assert counters[0]["mac_region.instances"] == 0
        assert counters[0]["rate_analysis.condition_evals"] > 0


def test_spans_nest_and_missing_names_fail_loudly():
    from omnirelay import cli, protocol_sim, rate_analysis

    modules = {"cli": cli, "protocol_sim": protocol_sim, "rate_analysis": rate_analysis}
    tracer = Tracer(modules)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.span("cli", cli.main, ["simulate", "--preset", "ring", "--n", "4",
                                                 "--power", "10", "--blocks", "6",
                                                 "--payload-sizes", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert {layer for layer, *_ in tracer.spans} == {
        "cli", "topology", "mac_region", "protocol_sim", "binning", "rate_analysis"
    }
    assert tracer.nesting_errors() == []
    assert protocol_sim.multi_block_decodable_subset.__module__ == "omnirelay.mac_region"

    class Stub:
        pass

    stub = Stub()
    stub.run_distance_regulated = cli.run_distance_regulated
    broken = Tracer({**modules, "cli": stub})
    with pytest.raises(MissingBoundary, match="cli.interference_accounting"):
        broken.install()
    assert stub.run_distance_regulated is cli.run_distance_regulated


@pytest.fixture(scope="module")
def ring_output():
    from omnirelay import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(build_argv("ring-long", 2)) == 0
    return json.loads(out.getvalue())


def _check(payload: dict, mismatches=0, code=0):
    return check("ring-long", code, json.dumps(payload), "", mismatches)


def test_check_accepts_added_fields_and_rejects_changed_ones(ring_output):
    assert _check(ring_output) == []

    extended = copy.deepcopy(ring_output)
    extended["format_version"] = 2
    extended["stats"] = {"cache_hits": 1}
    extended["trace"]["decodes"][0]["solver"] = "exact"
    assert _check(extended) == []

    changed = copy.deepcopy(ring_output)
    changed["trace"]["decodes"][0]["decoded"] = []
    assert any(r.startswith("decodes digest") for r in _check(changed))

    incomplete = copy.deepcopy(ring_output)
    incomplete["payload"][0]["complete"] = False
    assert any("incomplete" in r for r in _check(incomplete))

    assert any("mismatches" in r for r in _check(ring_output, mismatches=1))
    assert _check(ring_output, code=1) != []
    assert check("ring-long", 0, "not json", "", 0) != []


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "line-analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
