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


def test_analyze_tabulates_the_line_once(capsys):
    # The benchmark's line-analyze shape, with the explicit rate the benchmark
    # passes and with --rate auto, which reuses the CLI's bound.  The
    # bisection reads one rate-independent table instead of re-evaluating
    # ordered_line_conditions, and so power matrices, per step: one
    # evaluation (the CLI's own) and five matrices, for the CLI's bound, its
    # report, the bisection's bound and table, and the verifier.
    from omnirelay import cli, protocol_sim, rate_analysis
    from omnirelay.topology import power_law, regular_line

    report = rate_analysis.ordered_line_conditions(
        regular_line(12, 1.0, power_law(2.0), 10.0, 1.0), 0.1
    )
    for rate in ("0.1", "auto"):
        tracer = TRACER_NAMESPACE["Tracer"](
            {"cli": cli, "protocol_sim": protocol_sim, "rate_analysis": rate_analysis}
        )
        tracer.install()
        try:
            argv = ["analyze", "--preset", "regular-line", "--n", "12", "--power", "10",
                    "--rate", rate]
            assert tracer.span("cli", cli.main, argv) == 0
            counters = tracer.counters()
        finally:
            tracer.uninstall()
        capsys.readouterr()

        assert counters["rate_analysis.condition_evals"] == 1
        assert counters["rate_analysis.condition_entries"] == len(report.entries)
        assert counters["topology.power_matrix_builds"] == 5
