"""Command line front end.

Four subcommands: ``analyze`` (rate bound, ordering, achievable rate),
``simulate`` (protocol run under the distance-regulated schedule),
``sweep`` (bound/simulation table over network sizes and gain presets) and
``bin-demo`` (bundle binning walkthrough).  Output is deterministic: floats
are rounded to six decimals, JSON keys are sorted, and every report embeds a
short hash of the canonical topology text.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NoReturn, Sequence

from .binning import build_binning, decode_from_side_info, verify_binning_property
from .errors import (
    CapacityLimitError,
    DecodeError,
    ModelViolationError,
    PreconditionError,
    TopologyFormatError,
)
from .protocol_sim import interference_accounting, payload_demo, run_distance_regulated
from .rate_analysis import (
    allcast_rate_bound,
    max_achievable_rate,
    ordered_line_conditions,
    verify_regular_line_achievability,
)
from .topology import (
    GainFunction,
    Topology,
    arc,
    canonical_text,
    distance_ordering_check,
    general_line,
    load_topology_file,
    regular_line,
    ring,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved inputs of one CLI invocation."""

    command: str
    topology_path: str | None
    preset: str | None
    n: int
    spacing: float
    spacings: tuple[float, ...] | None
    arc_radius: float | None
    gain: str
    power: float
    noise: float
    rate_spec: str
    blocks: int
    seed: int
    hop_radius: float | None
    payload_sizes: tuple[int, ...] | None


def _parse_floats(text: str, label: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"bad {label} list {text!r}") from exc


def _parse_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"bad {label} list {text!r}") from exc


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    hop_radius = getattr(args, "hop_radius", None)
    if hop_radius is not None and not (math.isfinite(hop_radius) and hop_radius >= 0):
        raise ValueError("hop radius must be finite and nonnegative")
    return ExperimentConfig(
        command=args.command,
        topology_path=getattr(args, "topology", None),
        preset=getattr(args, "preset", None),
        n=getattr(args, "n", 0),
        spacing=getattr(args, "d0", 1.0),
        spacings=(
            _parse_floats(args.spacings, "spacing")
            if getattr(args, "spacings", None)
            else None
        ),
        arc_radius=getattr(args, "arc_radius", None),
        gain=getattr(args, "gain", "pl:2"),
        power=getattr(args, "power", 1.0),
        noise=getattr(args, "noise", 1.0),
        rate_spec=str(getattr(args, "rate", "auto")),
        blocks=getattr(args, "blocks", 8),
        seed=getattr(args, "seed", 0),
        hop_radius=hop_radius,
        payload_sizes=(
            _parse_ints(args.payload_sizes, "payload size")
            if getattr(args, "payload_sizes", None)
            else None
        ),
    )


def _build_topology(cfg: ExperimentConfig) -> tuple[Topology, tuple[frozenset[int], ...] | None]:
    if cfg.topology_path:
        return load_topology_file(cfg.topology_path)
    gain = GainFunction.parse(cfg.gain)
    if cfg.preset == "regular-line":
        return regular_line(cfg.n, cfg.spacing, gain, cfg.power, cfg.noise), None
    if cfg.preset == "line":
        if not cfg.spacings:
            raise ValueError("the line preset needs --spacings")
        coords = [0.0]
        for gap in cfg.spacings:
            coords.append(coords[-1] + gap)
        return general_line(coords, gain, cfg.power, cfg.noise), None
    if cfg.preset == "ring":
        return ring(cfg.n, cfg.spacing, gain, cfg.power, cfg.noise), None
    if cfg.preset == "arc":
        if cfg.arc_radius is None:
            raise ValueError("the arc preset needs --arc-radius")
        return arc(cfg.n, cfg.spacing, cfg.arc_radius, gain, cfg.power, cfg.noise), None
    raise ValueError("give either --topology FILE or a --preset")


def _default_one_hop(
    topology: Topology, radius: float | None
) -> tuple[frozenset[int], ...]:
    """Nearest-neighbor one-hop sets; an explicit radius overrides the default."""
    n = topology.n
    if radius is None:
        radius = max(
            min(topology.distances[i][j] for j in range(n) if j != i) for i in range(n)
        )
    cutoff = radius * (1.0 + 1e-9)
    return tuple(
        frozenset(j for j in range(n) if j != i and topology.distances[i][j] <= cutoff)
        for i in range(n)
    )


def _topology_hash(topology: Topology, one_hop=None) -> str:
    digest = hashlib.sha256(canonical_text(topology, one_hop).encode()).hexdigest()
    return digest[:12]


def _resolve_rate(spec: str, bound: float) -> float:
    if spec == "auto":
        return 0.999 * bound
    value = float(spec)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("rate must be finite and nonnegative")
    return value


def _rounded(value):
    """Recursively round floats for stable, readable output."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _emit(payload: dict, rows: list[dict], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(_rounded(payload), sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(_rounded(row))
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    topology, one_hop = _build_topology(cfg)
    bound = allcast_rate_bound(topology)
    ordering = distance_ordering_check(topology)
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "command": "analyze",
        "nodes": topology.n,
        "power": topology.power,
        "noise": topology.noise,
        "topology_hash": _topology_hash(topology, one_hop),
        "rate_bound": bound,
        "ordering": list(ordering) if ordering else None,
    }
    rows = [
        {"key": "nodes", "value": topology.n},
        {"key": "rate_bound", "value": bound},
    ]
    if ordering is not None:
        rate = _resolve_rate(cfg.rate_spec, bound)
        report = ordered_line_conditions(topology, rate)
        best = max_achievable_rate(topology)
        binding = report.binding_entry()
        payload.update(
            {
                "rate": rate,
                "achievable": report.achievable,
                "binding_margin": report.binding_margin,
                "binding_receiver": binding.receiver,
                "binding_kind": binding.kind,
                "max_rate": best,
            }
        )
        rows.append({"key": "rate", "value": rate})
        rows.append({"key": "achievable", "value": report.achievable})
        rows.append({"key": "max_rate", "value": best})
        try:
            check = verify_regular_line_achievability(topology, samples=20, seed=cfg.seed)
            payload["regular_line_verified"] = check.verified
            rows.append({"key": "regular_line_verified", "value": check.verified})
        except PreconditionError:
            payload["regular_line_verified"] = None
    _emit(payload, rows, args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    topology, one_hop = _build_topology(cfg)
    if one_hop is None:
        one_hop = _default_one_hop(topology, cfg.hop_radius)
    bound = allcast_rate_bound(topology)
    rate = _resolve_rate(cfg.rate_spec, bound)
    trace = run_distance_regulated(topology, one_hop, rate, cfg.blocks)
    noise_reports = interference_accounting(trace)
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "command": "simulate",
        "topology_hash": _topology_hash(topology, one_hop),
        "rate_bound": bound,
        "interference": [
            {"node": r.node, "undecoded": list(r.undecoded), "power": r.power}
            for r in noise_reports
        ],
        "trace": trace.to_dict(),
    }
    rows = [
        {
            "block": rec.block,
            "node": rec.node,
            "success": rec.success,
            "sum_rate_ok": rec.sum_rate_ok,
            "targets": len(rec.targets),
            "decoded": len(rec.decoded),
            "missing": len(rec.missing),
        }
        for row in trace.decodes
        for rec in row
    ]
    if cfg.payload_sizes is not None:
        sizes = cfg.payload_sizes
        if len(sizes) == 1:
            sizes = sizes * topology.n
        reports = payload_demo(trace, sizes, seed=cfg.seed)
        payload["payload"] = [
            {
                "node": r.node,
                "recovered": r.recovered,
                "known": r.known,
                "complete": r.complete,
            }
            for r in reports
        ]
    _emit(payload, rows, args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.topology_path:
        raise ValueError("sweep builds preset topologies; --topology is not supported")
    sizes = _parse_ints(args.sweep_n, "sweep size") if args.sweep_n else (cfg.n,)
    gains = (
        tuple(x.strip() for x in args.sweep_gain.split(",") if x.strip())
        if args.sweep_gain
        else (cfg.gain,)
    )
    results = []
    for gain_label in gains:
        for n in sizes:
            sub = replace(cfg, n=n, gain=gain_label)
            topology, _ = _build_topology(sub)
            one_hop = _default_one_hop(topology, cfg.hop_radius)
            bound = allcast_rate_bound(topology)
            rate = _resolve_rate(cfg.rate_spec, bound)
            trace = run_distance_regulated(topology, one_hop, rate, cfg.blocks)
            completion = [c for c in trace.completion_block if c is not None]
            results.append(
                {
                    "gain": gain_label,
                    "nodes": n,
                    "rate_bound": bound,
                    "rate": rate,
                    "all_success": trace.all_success(),
                    "max_completion": max(completion) if completion else None,
                    "topology_hash": _topology_hash(topology, one_hop),
                }
            )
    payload = {
        "format_version": FORMAT_VERSION,
        "command": "sweep",
        "preset": cfg.preset,
        "blocks": cfg.blocks,
        "results": results,
    }
    _emit(payload, results, args)
    return 0


def _cmd_bin_demo(args: argparse.Namespace) -> int:
    sizes = _parse_ints(args.sizes, "alphabet size")
    values = _parse_ints(args.values, "message value")
    if len(values) != len(sizes):
        raise ValueError("need exactly one value per alphabet size")
    assignment = build_binning(sizes)
    bin_index = assignment.bin_of(values)
    recoveries = []
    for target in range(len(sizes)):
        known = {j: values[j] for j in range(len(sizes)) if j != target}
        recovered = decode_from_side_info(assignment, bin_index, known, target)
        recoveries.append({"target_slot": target, "recovered": recovered})
    payload = {
        "format_version": FORMAT_VERSION,
        "command": "bin-demo",
        "sizes": list(sizes),
        "values": list(values),
        "bin_count": assignment.bin_count,
        "bin_index": bin_index,
        "single_slot_decodable": verify_binning_property(assignment),
        "recoveries": recoveries,
    }
    _emit(payload, recoveries, args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_topology_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--topology", help="topology description file")
    sub.add_argument(
        "--preset", choices=["regular-line", "line", "ring", "arc"], help="built-in layout"
    )
    sub.add_argument("--n", type=int, default=4, help="node count for presets")
    sub.add_argument("--d0", type=float, default=1.0, help="node spacing for presets")
    sub.add_argument("--spacings", help="comma list of gaps for the line preset")
    sub.add_argument("--arc-radius", type=float, help="circle radius for the arc preset")
    sub.add_argument("--gain", default="pl:2", help="gain preset: pl:<a>, exp:<g>, const")
    sub.add_argument("--power", type=float, default=1.0, help="per-node transmit power")
    sub.add_argument("--noise", type=float, default=1.0, help="receiver noise power")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ``ValueError`` (``E_VALUE``)."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omnirelay",
        description="All-cast relay protocol analysis and simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="rate bound and line conditions")
    _add_topology_flags(analyze)
    analyze.add_argument("--rate", default="auto", help="rate to test, or 'auto'")

    simulate = subs.add_parser("simulate", help="run the distance-regulated protocol")
    _add_topology_flags(simulate)
    simulate.add_argument("--rate", default="auto", help="common rate, or 'auto'")
    simulate.add_argument("--blocks", type=int, default=8)
    simulate.add_argument("--hop-radius", type=float, help="one-hop neighbor cutoff")
    simulate.add_argument("--payload-sizes", help="comma list enabling the payload demo")

    sweep = subs.add_parser("sweep", help="bound and simulation table over presets")
    _add_topology_flags(sweep)
    sweep.add_argument("--rate", default="auto")
    sweep.add_argument("--blocks", type=int, default=8)
    sweep.add_argument("--hop-radius", type=float)
    sweep.add_argument("--sweep-n", help="comma list of node counts")
    sweep.add_argument("--sweep-gain", help="comma list of gain presets")

    demo = subs.add_parser("bin-demo", help="bundle binning walkthrough")
    demo.add_argument("--sizes", required=True, help="comma list of alphabet sizes")
    demo.add_argument("--values", required=True, help="comma list of message values")
    demo.add_argument("--out")
    demo.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "bin-demo": _cmd_bin_demo,
}

_ERROR_CODES = [
    (TopologyFormatError, "E_TOPOLOGY"),
    (ModelViolationError, "E_MODEL"),
    (CapacityLimitError, "E_LIMIT"),
    (PreconditionError, "E_PRECONDITION"),
    (DecodeError, "E_DECODE"),
    (OSError, "E_IO"),
    (ValueError, "E_VALUE"),
]


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except tuple(t for t, _ in _ERROR_CODES) as exc:
        for exc_type, code in _ERROR_CODES:
            if isinstance(exc, exc_type):
                print(f"{code}: {exc}", file=sys.stderr)
                break
        return 1


if __name__ == "__main__":
    sys.exit(main())
