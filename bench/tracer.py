"""Per-layer spans and work counters for traced ``cli.main`` calls.

The layers are the package's modules.  A span is recorded around every call
that crosses a module boundary, by rebinding the name the calling module
imported (``protocol_sim.multi_block_decodable_subset``,
``cli.run_distance_regulated``, ``rate_analysis.build_power_matrix``, ...)
to a timing wrapper, in the benchmark process only and only while a
``Tracer`` is installed.  Nothing in ``src/omnirelay`` changes.  A name that
no longer exists raises ``MissingBoundary`` rather than reporting a silent
zero.

A span belongs to the layer of the function it wraps.  The root span is the
whole ``cli.main`` call (layer ``cli``).  A layer's self time is its spans'
durations minus the durations of their direct child spans, so the self times
of all layers add up to the root span, the traced op time.

Counters are read from the arguments and results of the wrapped calls; they
depend only on the inputs, so repeated calls give identical counters.
Observation that costs more than appending a reference is deferred until
the call has returned, outside every span.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

LAYERS = ("cli", "topology", "mac_region", "protocol_sim", "binning", "rate_analysis")

# Pools larger than this are solved by the heuristic path instead of full
# subset enumeration (``mac_region._EXACT_SUBSET_LIMIT`` at the benchmark's
# first commit).
EXACT_SUBSET_LIMIT = 16

# (module whose global is rebound, name, layer of the callee)
BOUNDARIES = (
    ("cli", "run_distance_regulated", "protocol_sim"),
    ("cli", "interference_accounting", "protocol_sim"),
    ("cli", "payload_demo", "protocol_sim"),
    ("cli", "allcast_rate_bound", "rate_analysis"),
    ("cli", "ordered_line_conditions", "rate_analysis"),
    ("cli", "max_achievable_rate", "rate_analysis"),
    ("cli", "verify_regular_line_achievability", "rate_analysis"),
    ("cli", "regular_line", "topology"),
    ("cli", "ring", "topology"),
    ("cli", "distance_ordering_check", "topology"),
    ("cli", "canonical_text", "topology"),
    ("protocol_sim", "multi_block_decodable_subset", "mac_region"),
    ("protocol_sim", "build_power_matrix", "topology"),
    ("protocol_sim", "k_hop_neighbors", "topology"),
    ("protocol_sim", "coverage_check", "topology"),
    ("protocol_sim", "distance_regulated_schedule", "topology"),
    ("protocol_sim", "validate_schedule", "topology"),
    ("protocol_sim", "build_binning", "binning"),
    ("protocol_sim", "decode_from_side_info", "binning"),
    ("rate_analysis", "build_power_matrix", "topology"),
    ("rate_analysis", "distance_ordering_check", "topology"),
    # Not a module boundary: rebound so that the bisection inside
    # max_achievable_rate is counted call by call.
    ("rate_analysis", "ordered_line_conditions", "rate_analysis"),
)

# Per-layer metric names and units, in report order.
METRICS = {
    "mac_region.self_s": "s",
    "mac_region.instances": "count",
    "mac_region.distinct_instances": "count",
    "mac_region.members_mean": "count",
    "mac_region.members_max": "count",
    "mac_region.subset_space": "count",
    "mac_region.decoded_ratio": "ratio",
    "mac_region.beyond_exact_limit": "count",
    "protocol_sim.self_s": "s",
    "protocol_sim.decode_records": "count",
    "protocol_sim.decode_success_ratio": "ratio",
    "protocol_sim.solves_per_record": "ratio",
    "protocol_sim.knowledge_entries": "count",
    "binning.self_s": "s",
    "binning.calls": "count",
    "binning.mismatches": "count",
    "rate_analysis.self_s": "s",
    "rate_analysis.condition_evals": "count",
    "rate_analysis.condition_entries": "count",
    "rate_analysis.verify_checks": "count",
    "topology.self_s": "s",
    "topology.calls": "count",
    "topology.power_matrix_builds": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


class MissingBoundary(RuntimeError):
    """A wrapped name no longer exists in the module that imported it."""


class Tracer:
    """Records the spans and counters of ``cli.main`` calls while installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # spans[i] = [layer, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._solves: list = []
        self._traces: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, name, layer in BOUNDARIES:
            module = self._modules[module_name]
            original = getattr(module, name, None)
            if not callable(original):
                self.uninstall()
                raise MissingBoundary(f"omnirelay.{module_name}.{name} is missing")
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(layer, name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, layer: str, name: str, fn):
        observe = getattr(self, "_on_" + name, None)

        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            record[1] = start
            stack.pop()

    # -- observers (cheap; heavy work happens in counters()) --------------

    def _on_multi_block_decodable_subset(self, args, result) -> None:
        self._solves.append((args[0], len(result.decoded)))

    def _on_run_distance_regulated(self, args, result) -> None:
        self._traces.append(result)

    def _on_build_power_matrix(self, args, result) -> None:
        self.counts["topology.power_matrix_builds"] += 1

    def _on_ordered_line_conditions(self, args, result) -> None:
        self.counts["rate_analysis.condition_evals"] += 1
        self.counts["rate_analysis.condition_entries"] += len(result.entries)

    def _on_verify_regular_line_achievability(self, args, result) -> None:
        self.counts["rate_analysis.verify_checks"] += result.conditions_checked

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer over the recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for index, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[index]
        return out

    def nesting_errors(self) -> list[int]:
        """Indices of spans that do not lie inside their parent span."""
        bad = []
        for index, (_, start, end, parent) in enumerate(self.spans):
            if not start <= end:
                bad.append(index)
            elif parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if not (parent < index and p_start <= start and end <= p_end):
                    bad.append(index)
        return bad

    def counters(self) -> dict[str, float]:
        """Deterministic work counters of the recorded calls."""
        counts = Counter(self.counts)
        for layer, *_ in self.spans:
            if layer in ("binning", "topology"):
                counts[f"{layer}.calls"] += 1
        members = [inst.m for inst, _ in self._solves]
        decoded = sum(d for _, d in self._solves)
        instances = len(members)
        counts["mac_region.instances"] = instances
        counts["mac_region.distinct_instances"] = len(
            {_shifted_key(inst) for inst, _ in self._solves}
        )
        counts["mac_region.members_mean"] = sum(members) / instances if instances else 0.0
        counts["mac_region.members_max"] = max(members, default=0)
        counts["mac_region.subset_space"] = sum(2**m - 1 for m in members)
        counts["mac_region.decoded_ratio"] = decoded / sum(members) if members else 0.0
        counts["mac_region.beyond_exact_limit"] = sum(m > EXACT_SUBSET_LIMIT for m in members)
        records = [rec for trace in self._traces for row in trace.decodes for rec in row]
        counts["protocol_sim.decode_records"] = len(records)
        counts["protocol_sim.decode_success_ratio"] = (
            sum(rec.success for rec in records) / len(records) if records else 0.0
        )
        counts["protocol_sim.solves_per_record"] = instances / len(records) if records else 0.0
        counts["protocol_sim.knowledge_entries"] = sum(
            len(known) for trace in self._traces for snap in trace.knowledge for known in snap
        )
        return dict(counts)


def _shifted_key(inst) -> tuple:
    """Solve identity with round ids shifted to start at 0."""
    base = min(inst.round_ids())
    return (
        inst.rates,
        inst.powers,
        inst.noise,
        tuple(b - base for b in inst.blocks),
        inst.helps,
        tuple((c.block - base, c.power, c.helps) for c in inst.carriers),
        inst.interference,
        tuple((b - base, p) for b, p in inst.block_interference),
        inst.usable,
    )
