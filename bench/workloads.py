"""The benchmark's workloads and how each one's CLI argv is built.

Every workload runs ``omnirelay.cli.main`` on one preset topology at
``--power 10`` (gain ``pl:2``, spacing 1, noise 1, the CLI defaults).  The
common rate is written into the argv explicitly as 0.999 of the all-cast
bound, the value ``--rate auto`` resolves to, so building the argv computes
the bound once; ``setup_s`` includes that cost.  The workload seed is passed
through as ``--seed``.  Why each workload was chosen is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

POWER = 10.0
RATE_SHARE = 0.999


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    n: int
    extra: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("line-solve", "simulate", "regular-line", 12, ("--blocks", "16")),
        Workload("ring-long", "simulate", "ring", 6, ("--blocks", "300", "--payload-sizes", "4")),
        Workload("line-analyze", "analyze", "regular-line", 100, ()),
    )
}


def topology_for(workload: Workload):
    """The workload's topology, built through the package's public presets."""
    import omnirelay

    gain = omnirelay.GainFunction.parse("pl:2")
    preset = {"regular-line": omnirelay.regular_line, "ring": omnirelay.ring}[workload.preset]
    return preset(workload.n, 1.0, gain, POWER, 1.0)


def build_argv(name: str, seed: int) -> list[str]:
    """The full ``omnirelay`` argv of workload ``name`` at ``seed``."""
    import omnirelay

    workload = WORKLOADS[name]
    rate = RATE_SHARE * omnirelay.allcast_rate_bound(topology_for(workload))
    return [
        workload.command,
        "--preset",
        workload.preset,
        "--n",
        str(workload.n),
        "--power",
        repr(POWER),
        "--rate",
        repr(rate),
        *workload.extra,
        "--seed",
        str(seed),
    ]
