"""The benchmark tracer's name contract, checked without running the benchmark.

``bench/tracer.py`` rebinds every ``(module, name)`` in its ``BOUNDARIES`` to a
timing wrapper and fails only at benchmark time when a name has gone.  This
reads that table (the file is executed in a fresh namespace, nothing is
written next to it) and checks each name against the package.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
BOUNDARIES = runpy.run_path(str(TRACER))["BOUNDARIES"]


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
