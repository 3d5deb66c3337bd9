"""The benchmark tracer's contract with the package, checked in the test suite.

``bench/tracer.py`` rebinds every ``(module, name)`` in its ``BOUNDARIES`` to a
timing wrapper and reads attributes of what the wrapped calls return; both
fail only at benchmark time when the package changes under them.  This loads
the tracer (the file is executed in a fresh namespace, nothing is written next
to it), checks each name against the package, and runs its counters on small
CLI calls.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
TRACER_NAMESPACE = runpy.run_path(str(TRACER))
BOUNDARIES = TRACER_NAMESPACE["BOUNDARIES"]


def test_boundary_names_resolve():
    missing = [
        f"omnirelay.{module_name}.{name}"
        for module_name, name, _ in BOUNDARIES
        if not callable(getattr(importlib.import_module(f"omnirelay.{module_name}"), name, None))
    ]
    assert BOUNDARIES and missing == []


def test_region_solves_are_traced_as_mac_region():
    from omnirelay import protocol_sim

    assert protocol_sim.multi_block_decodable_subset.__module__ == "omnirelay.mac_region"


def test_tracer_counters_read_the_package(capsys, monkeypatch):
    from omnirelay import cli, protocol_sim, rate_analysis

    traces = []
    simulate = cli.run_distance_regulated

    def recording(*args):
        traces.append(simulate(*args))
        return traces[-1]

    # Installed under the tracer's wrapper, so both see the same trace.
    monkeypatch.setattr(cli, "run_distance_regulated", recording)
    tracer = TRACER_NAMESPACE["Tracer"](
        {"cli": cli, "protocol_sim": protocol_sim, "rate_analysis": rate_analysis}
    )
    tracer.install()
    try:
        for argv in (
            ["simulate", "--preset", "ring", "--n", "4", "--power", "10", "--blocks", "12",
             "--payload-sizes", "4"],
            ["analyze", "--preset", "regular-line", "--n", "6", "--power", "10"],
        ):
            assert tracer.span("cli", cli.main, argv) == 0
        counters = tracer.counters()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    (trace,) = traces
    assert counters["protocol_sim.knowledge_entries"] == sum(
        len(known) for snapshot in trace.knowledge for known in snapshot
    ) > 0
    assert counters["protocol_sim.decode_records"] == sum(len(row) for row in trace.decodes)
    assert 0 < counters["mac_region.distinct_instances"] <= counters["mac_region.instances"]
    assert counters["binning.calls"] > 0
    assert counters["rate_analysis.condition_evals"] > 0
    assert counters["rate_analysis.condition_entries"] > 0
    assert counters["rate_analysis.verify_checks"] > 0


def traced_counters(argv):
    from omnirelay import cli, protocol_sim, rate_analysis

    tracer = TRACER_NAMESPACE["Tracer"](
        {"cli": cli, "protocol_sim": protocol_sim, "rate_analysis": rate_analysis}
    )
    tracer.install()
    try:
        assert tracer.span("cli", cli.main, argv) == 0
        return tracer.counters()
    finally:
        tracer.uninstall()


def test_analyze_tabulates_the_line_once(capsys):
    # The benchmark's line-analyze shape, with the explicit rate the benchmark
    # passes and with --rate auto, which reuses the CLI's bound.  The
    # bisection reads one rate-independent table instead of re-evaluating
    # ordered_line_conditions per step: one evaluation, the CLI's own.  The
    # topology keeps its power matrix and its table once built, so the
    # matrix is asked for four times (the CLI's bound, the table, the
    # bisection's bound and the verifier) and built on the first request.
    from omnirelay import rate_analysis
    from omnirelay.topology import power_law, regular_line

    report = rate_analysis.ordered_line_conditions(
        regular_line(12, 1.0, power_law(2.0), 10.0, 1.0), 0.1
    )
    for rate in ("0.1", "auto"):
        counters = traced_counters(
            ["analyze", "--preset", "regular-line", "--n", "12", "--power", "10",
             "--rate", rate]
        )
        capsys.readouterr()

        assert counters["rate_analysis.condition_evals"] == 1
        assert counters["rate_analysis.condition_entries"] == len(report.entries)
        assert counters["topology.power_matrix_builds"] == 4


def test_each_analyze_call_builds_its_own_matrix(capsys, monkeypatch):
    # Nothing is kept between CLI calls: two identical calls report the same
    # counters, each builds one matrix of its own, and every request within
    # a call returns that one matrix.
    from omnirelay import rate_analysis

    matrices = []
    build = rate_analysis.build_power_matrix

    def recording(topology):
        matrices.append(build(topology))
        return matrices[-1]

    monkeypatch.setattr(rate_analysis, "build_power_matrix", recording)
    argv = ["analyze", "--preset", "regular-line", "--n", "8", "--power", "10"]
    first = traced_counters(argv)
    first_call = matrices[:]
    matrices.clear()
    second = traced_counters(argv)
    capsys.readouterr()

    assert first == second
    assert len(first_call) == len(matrices) == first["topology.power_matrix_builds"]
    assert {id(m) for m in first_call} == {id(first_call[0])}
    assert {id(m) for m in matrices} == {id(matrices[0])}
    assert matrices[0] is not first_call[0]
