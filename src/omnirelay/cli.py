"""Command line front end.

Four subcommands: ``analyze`` (rate bound, ordering, achievable rate),
``simulate`` (protocol run under the distance-regulated schedule),
``sweep`` (bound/simulation table over network sizes and gain presets) and
``bin-demo`` (bundle binning walkthrough).  Output is deterministic: floats
are rounded to six decimals and JSON keys are sorted.  The JSON reports of
``analyze``, ``simulate`` and ``sweep`` embed a short hash of the canonical
topology text; ``bin-demo`` has no topology to hash.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import math
import os
import re
import sys
from dataclasses import fields, is_dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .binning import build_binning, decode_from_side_info, verify_binning_property
from .errors import (
    CapacityLimitError,
    DecodeError,
    ModelViolationError,
    PreconditionError,
    TopologyFormatError,
)
from .protocol_sim import (
    _Periodic,
    check_payload_sizes,
    interference_accounting,
    payload_demo,
    run_distance_regulated,
)
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


def _parse_list(text: str, kind, label: str) -> tuple:
    """The comma-separated items of ``text`` converted by ``kind``; blank items are skipped."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"bad {label} list {text!r}") from exc


def _spacings(args: argparse.Namespace) -> tuple[float, ...] | None:
    """The ``--spacings`` gaps, parsed for every preset so a bad list is always reported."""
    if not args.spacings:
        return None
    gaps = _parse_list(args.spacings, float, "spacing")
    if not all(math.isfinite(gap) for gap in gaps):
        raise ValueError("spacings must be finite")
    if not all(gap > 0 for gap in gaps):
        raise ValueError("spacings must be positive")
    return gaps


def _run_prelude(args: argparse.Namespace) -> tuple[float, ...] | None:
    """The first checks of ``simulate`` and ``sweep``: ``--hop-radius``, then ``--spacings``."""
    radius = args.hop_radius
    if radius is not None and not (math.isfinite(radius) and radius >= 0):
        raise ValueError("hop radius must be finite and nonnegative")
    return _spacings(args)


def _build_topology(
    args: argparse.Namespace, n: int, gain_label: str, spacings: tuple[float, ...] | None
) -> tuple[Topology, tuple[frozenset[int], ...] | None]:
    if args.topology:
        return load_topology_file(args.topology)
    gain = GainFunction.parse(gain_label)
    if args.preset == "regular-line":
        return regular_line(n, args.d0, gain, args.power, args.noise), None
    if args.preset == "line":
        if not spacings:
            raise ValueError("the line preset needs --spacings")
        coords = [0.0]
        for gap in spacings:
            coords.append(coords[-1] + gap)
        return general_line(coords, gain, args.power, args.noise), None
    if args.preset == "ring":
        return ring(n, args.d0, gain, args.power, args.noise), None
    if args.preset == "arc":
        if args.arc_radius is None:
            raise ValueError("the arc preset needs --arc-radius")
        return arc(n, args.d0, args.arc_radius, gain, args.power, args.noise), None
    raise ValueError("give either --topology FILE or a --preset")


def _default_one_hop(
    topology: Topology, radius: float | None
) -> tuple[frozenset[int], ...]:
    """Nearest-neighbor one-hop sets; an explicit radius overrides the default.

    The default radius is the largest distance from a node to its nearest
    other node, so every node has a neighbor.
    """
    dist = topology.distances
    apart = ~np.eye(topology.n, dtype=bool)
    if radius is None:
        radius = float(np.where(apart, dist, np.inf).min(axis=1).max())
    cutoff = radius * (1.0 + 1e-9)
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in (dist <= cutoff) & apart)


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


def _csv_cell(value):
    """A CSV row value: floats rounded to six decimals, inf/nan as their ``str``."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return round(value, 6)
    return value


_JSON_CONTAINERS = (dict, list, tuple, _Periodic)
_INT_ONLY = frozenset({int})
_SEQUENCES = frozenset({list, tuple})
_BOOL_ONLY = frozenset({bool})
_STR_ONLY = frozenset({str})
_DICT_ONLY = frozenset({dict})
_FROZENSET_ONLY = frozenset({frozenset})


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return encode_basestring_ascii(str(value))
        value = round(value, 6)
        if math.isinf(value):  # numpy's round overflows near the float maximum
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _list_template(templates: list[str], indent: str) -> str:
    """The template of a list of items with these templates whose own line ends in ``indent``."""
    if not templates:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(templates) + indent + "]"


def _column(values: Sequence, indent: str):
    """``values`` as a column of items whose own lines end in ``indent``.

    Returns ``(shapes, args, template)``: each item's shape and ``%``
    arguments, in order, and a function giving the ``%`` template of a
    shape; or None unless every item is one kind of value.  The kinds are
    exact ints; bools; strs; floats; lists (or tuples) of exact ints; lists
    of such lists; plain dicts with the same ``str`` keys in the same order
    whose fields are each a column; and records of one dataclass type,
    written as the dicts of their fields, a ``frozenset`` field as its
    sorted list.  ``%d`` writes an exact int as its repr, and ``%s`` takes
    every other scalar as :func:`_json_scalar` encodes it.  An item's
    arguments are an iterable, to be made a tuple.
    """
    kinds = set(map(type, values))
    if kinds == _INT_ONLY:
        return repeat(None, len(values)), zip(values), lambda shape: "%d"
    if kinds == _BOOL_ONLY or kinds == _STR_ONLY or all(issubclass(kind, float) for kind in kinds):
        return repeat(None, len(values)), zip(map(_json_scalar, values)), lambda shape: "%s"
    inner = indent + "  "
    if kinds <= _SEQUENCES:
        items = list(chain.from_iterable(values))
        item_kinds = set(map(type, items))
        if item_kinds <= _INT_ONLY:
            return map(len, values), values, lambda length: _list_template(["%d"] * length, indent)
        if item_kinds <= _SEQUENCES and set(map(type, chain.from_iterable(items))) <= _INT_ONLY:
            return (
                map(tuple, map(map, repeat(len), values)),
                map(chain.from_iterable, values),
                lambda lengths: _list_template(
                    [_list_template(["%d"] * length, inner) for length in lengths], indent
                ),
            )
        return None
    if kinds == _DICT_ONLY:
        orders = set(map(tuple, values))
        if len(orders) != 1:
            return None
        (order,) = orders
        if set(map(type, order)) != _STR_ONLY:
            return None
        keyed = sorted(zip(order, zip(*map(dict.values, values))))
    elif len(kinds) == 1 and is_dataclass(kind := next(iter(kinds))):
        keyed = sorted((field.name, _record_field(values, field.name)) for field in fields(kind))
    else:
        return None
    if not keyed:
        return None
    heads = []
    columns = []
    for key, field in keyed:
        column = _column(field, inner)
        if column is None:
            return None
        heads.append(encode_basestring_ascii(key).replace("%", "%%") + ": ")  # a key's % is text
        columns.append(column)
    shapes, args, templates = zip(*columns)
    sep = "," + inner

    def template(shape) -> str:
        parts = [head + make(part) for head, make, part in zip(heads, templates, shape)]
        return "{" + inner + sep.join(parts) + indent + "}"

    return zip(*shapes), map(chain.from_iterable, zip(*args)), template


def _record_field(records: Sequence, name: str) -> list:
    """Field ``name`` of each record; a column of frozensets as their sorted lists."""
    field = list(map(attrgetter(name), records))
    if set(map(type, field)) == _FROZENSET_ONLY:
        return list(map(sorted, field))
    return field


def _write_column(column, out: list[str], sep: str) -> None:
    """Append each item of a :func:`_column` result as one piece after
    ``sep``, from a template made once per item shape."""
    shapes, args, template = column
    templates: dict = {}
    for shape, item in zip(shapes, args):
        form = templates.get(shape)
        if form is None:
            form = templates[shape] = sep + template(shape)
        out.append(form % tuple(item))


_SLOT = re.compile("%[%ds]")


def _filled(form: str, args: tuple, moving: list[bool]) -> str:
    """``form`` with the argument of every slot written in except the
    ``moving`` ones, each of which stays a ``%d`` slot."""
    slots = iter(zip(args, moving))

    def fill(match: re.Match) -> str:
        token = match.group()
        if token == "%%":
            return token
        arg, moves = next(slots)
        return "%d" if moves else (token % arg).replace("%", "%%")

    return _SLOT.sub(fill, form)


def _write_periodic(value: _Periodic, out: list[str], indent: str) -> bool:
    """Append the JSON text of a periodic sequence with shifted items, whose
    own line ends in ``indent``; False, with nothing appended, unless it
    has some and every item can be written as below.

    The prefix is written as a column (:func:`_write_column`).  Each item of
    the steady period gets one template, with every slot that its first
    shifted copy keeps written in; every other slot must be an int that
    moves up by exactly one there, and stays a ``%d`` slot.  A shift moves
    such a slot by ``s`` in copy ``s``, so each shifted item is one ``%``
    of its template with the ints ``base + s``.
    """
    if not value.shifts:
        return False
    inner = indent + "  "
    prefix, p = value.prefix, value.period
    steady = prefix[len(prefix) - p :]
    column = _column(prefix, inner)
    probe = _column(steady + tuple([value.move(item, 1) for item in steady]), inner)
    if column is None or probe is None:
        return False
    shapes, args, template = probe
    shapes, args = list(shapes), list(map(tuple, args))
    sep = "," + inner
    forms = []
    for k in range(p):
        if shapes[p + k] != shapes[k]:
            return False
        moving = []
        for a, b in zip(args[k], args[p + k]):
            if type(a) is int and type(b) is int and b == a + 1:
                moving.append(True)
            elif type(a) is type(b) and a == b:
                moving.append(False)
            else:
                return False
        bases = [a for a, moves in zip(args[k], moving) if moves]
        forms.append((_filled(sep + template(shapes[k]), args[k], moving), bases))
    # Copy s reads its ints off one list of every distinct base plus s.
    distinct = sorted(set(chain.from_iterable(bases for _, bases in forms)))
    place = {base: k for k, base in enumerate(distinct)}
    forms = [
        (form, itemgetter(*map(place.__getitem__, bases)) if bases else lambda ints: ())
        for form, bases in forms
    ]
    start = len(out)
    _write_column(column, out, sep)
    for s in range(1, value.shifts + 1):
        ints = [base + s for base in distinct]
        for form, get in forms:
            out.append(form % get(ints))
    # Each item was written after a separator; the first opens the list.
    out[start] = "[" + out[start][1:]
    out.append(indent + "]")
    return True


def _write_json(value, out: list[str], indent: str) -> None:
    """Append the JSON text of container ``value``, whose own line ends in ``indent``.

    A list that :func:`_column` takes is written one ``%`` per item, from a
    template made once per item shape; any other list item by item, where a
    record is not a value it can write.  A periodic sequence is written by
    :func:`_write_periodic`, or else as the tuple of its items.
    """
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        lead = "{" + inner
        for key in sorted(value):  # a key that is not a str fails to encode: TypeError
            item = value[key]
            if isinstance(item, _JSON_CONTAINERS):
                out.append(lead + encode_basestring_ascii(key) + ": ")
                _write_json(item, out, inner)
            else:
                out.append(lead + encode_basestring_ascii(key) + ": " + _json_scalar(item))
            lead = sep
        out.append(indent + "}")
        return
    if isinstance(value, _Periodic):
        if _write_periodic(value, out, indent):
            return
        value = tuple(value)
    if not value:
        out.append("[]")
        return
    column = _column(value, inner)
    if column is not None:
        start = len(out)
        _write_column(column, out, sep)
        # Each item was written after a separator; the first opens the list.
        out[start] = "[" + out[start][1:]
        out.append(indent + "]")
        return
    lead = "[" + inner
    for item in value:
        if isinstance(item, _JSON_CONTAINERS):
            out.append(lead)
            _write_json(item, out, inner)
        else:
            out.append(lead + _json_scalar(item))
        lead = sep
    out.append(indent + "]")


def _json_pieces(payload) -> list[str]:
    """The pieces of ``payload``'s JSON text, in order; see :func:`_json_text`."""
    out: list[str] = []
    if isinstance(payload, _JSON_CONTAINERS):
        _write_json(payload, out, "\n")
    else:
        out.append(_json_scalar(payload))
    out.append("\n")
    return out


def _json_text(payload) -> str:
    """``payload`` as JSON text: sorted keys, two-space indent, a trailing newline.

    Floats are rounded to six decimals and written with ``repr``; inf and nan
    become the strings ``"inf"``, ``"-inf"`` and ``"nan"``; strings are
    ASCII-escaped; keys must be ``str``.  A list of dataclass records of one
    type is written as the list of their field dicts, a ``frozenset`` field
    as its sorted list (see :func:`_column`).  A trace's periodic record
    sequence (``SimulationTrace.summary``) is written as the list of its
    records: its prefix as a column, and each shifted record as one ``%``
    of a template made once per record of the steady row, without building
    the shifted records (see :func:`_write_periodic`).  These are the bytes
    the standard library encoder gives at ``indent=2, sort_keys=True`` on a
    rounded copy (records as those dicts), written in one pass without the
    copy: that encoder runs in pure Python whenever an indent is set.
    """
    return "".join(_json_pieces(payload))


# Each command's CSV columns, in order.
_CSV_FIELDS = {
    "analyze": ("key", "value"),
    "simulate": ("block", "node", "success", "sum_rate_ok", "targets", "decoded", "missing"),
    "sweep": (
        "gain", "nodes", "rate_bound", "rate", "all_success", "max_completion", "topology_hash"
    ),
    "bin-demo": ("target_slot", "recovered"),
}
# Rows per piece of CSV text.
_CSV_CHUNK = 4096


def _csv_pieces(rows: Iterable[dict], fields: Sequence[str]) -> Iterator[str]:
    """The CSV text of ``rows``, dicts keyed by ``fields``, in pieces of up
    to ``_CSV_CHUNK`` rows: a header of ``fields`` and then the rows, or
    nothing if there are none.  ``rows`` is read as the pieces are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for count, row in enumerate(rows):
        if not count:
            writer.writerow(fields)
        writer.writerow([_csv_cell(row[field]) for field in fields])
        if count % _CSV_CHUNK == _CSV_CHUNK - 1:
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue()


def _emit(payload: dict, rows: Iterable[dict], args: argparse.Namespace) -> int:
    """Write ``payload`` as JSON, or ``rows`` as CSV, to ``--out`` or stdout.

    The JSON pieces are written as they are, without joining them first;
    the CSV pieces as they are made, with the command's columns
    (``_CSV_FIELDS``) as the header.  Returns the exit status: 0, or 1 when
    the reader of stdout closed it early (``| head``), which ends the run
    without a message.
    """
    if args.format == "json":
        pieces = _json_pieces(payload)
    else:
        pieces = _csv_pieces(rows, _CSV_FIELDS[args.command])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        return 0
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        if not _stdout_to_devnull():
            raise
        return 1
    return 0


def _stdout_to_devnull() -> bool:
    """Point stdout's descriptor at devnull; False when it has no descriptor.

    After a broken pipe the unwritten text stays buffered, and the flush at
    shutdown would fail again and print "Exception ignored" on stderr.  This
    is the remedy in the SIGPIPE note of the ``signal`` module's docs.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return False
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return True


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# Each handler returns ``(payload, rows)``: the JSON report without its
# ``format_version`` and ``command`` keys, which ``main`` adds, and the CSV
# rows, a list (an iterable read as it is written for ``simulate``).


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    topology, one_hop = _build_topology(args, args.n, args.gain, _spacings(args))
    bound = allcast_rate_bound(topology)
    ordering = distance_ordering_check(topology)
    rate = _resolve_rate(args.rate, bound)
    payload: dict = {
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
            check = verify_regular_line_achievability(topology)
            payload["regular_line_verified"] = check.verified
            rows.append({"key": "regular_line_verified", "value": check.verified})
        except PreconditionError:
            payload["regular_line_verified"] = None
    return payload, rows


def _run(args: argparse.Namespace, n: int, gain_label: str, spacings: tuple[float, ...] | None):
    """One protocol run of ``simulate`` or ``sweep``.

    Builds the topology, takes its one-hop sets (a topology file's, else
    :func:`_default_one_hop`'s at ``--hop-radius``), and runs the
    distance-regulated schedule at ``--rate`` for ``--blocks`` blocks.
    Returns the topology, the one-hop sets, the all-cast bound and the trace.
    """
    topology, one_hop = _build_topology(args, n, gain_label, spacings)
    if one_hop is None:
        one_hop = _default_one_hop(topology, args.hop_radius)
    bound = allcast_rate_bound(topology)
    rate = _resolve_rate(args.rate, bound)
    return topology, one_hop, bound, run_distance_regulated(topology, one_hop, rate, args.blocks)


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, Iterable[dict]]:
    spacings = _run_prelude(args)
    payload_sizes = (
        _parse_list(args.payload_sizes, int, "payload size") if args.payload_sizes else None
    )
    topology, one_hop, bound, trace = _run(args, args.n, args.gain, spacings)
    # Bad payload sizes exit the same way in both formats; only JSON prints
    # the replay, so only JSON runs it.
    if payload_sizes is not None:
        if len(payload_sizes) == 1:
            payload_sizes *= topology.n
        payload_sizes = check_payload_sizes(payload_sizes, topology.n)
    if args.format == "csv":
        # Read row by row as the CSV is written: a shifted row is built
        # only when its turn comes.
        rows = (
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
        )
        return {}, rows
    payload: dict = {
        "topology_hash": _topology_hash(topology, one_hop),
        "rate_bound": bound,
        "interference": [
            {"node": r.node, "undecoded": list(r.undecoded), "power": r.power}
            for r in interference_accounting(trace)
        ],
        "trace": trace.summary(),
    }
    if payload_sizes is not None:
        payload["payload"] = [
            {"node": r.node, "recovered": r.recovered, "known": r.known, "complete": r.complete}
            for r in payload_demo(trace, payload_sizes, seed=args.seed)
        ]
    return payload, []


def _cmd_sweep(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    spacings = _run_prelude(args)
    if args.topology:
        raise ValueError("sweep builds preset topologies; --topology is not supported")
    sizes = _parse_list(args.sweep_n, int, "sweep size") if args.sweep_n else (args.n,)
    if args.sweep_n and args.preset == "line":
        raise ValueError(
            "the line preset takes its size from --spacings; --sweep-n is not supported"
        )
    gains = _parse_list(args.sweep_gain, str.strip, "gain") if args.sweep_gain else (args.gain,)
    results = []
    for gain_label in gains:
        for n in sizes:
            topology, one_hop, bound, trace = _run(args, n, gain_label, spacings)
            completion = [c for c in trace.completion_block if c is not None]
            results.append(
                {
                    "gain": gain_label,
                    "nodes": topology.n,
                    "rate_bound": bound,
                    "rate": trace.rate,
                    "all_success": trace.all_success(),
                    "max_completion": max(completion) if completion else None,
                    "topology_hash": _topology_hash(topology, one_hop),
                }
            )
    return {"preset": args.preset, "blocks": args.blocks, "results": results}, results


def _cmd_bin_demo(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    sizes = _parse_list(args.sizes, int, "alphabet size")
    values = _parse_list(args.values, int, "message value")
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
        "sizes": list(sizes),
        "values": list(values),
        "bin_count": assignment.bin_count,
        "bin_index": bin_index,
        "single_slot_decodable": verify_binning_property(assignment),
        "recoveries": recoveries,
    }
    return payload, recoveries


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
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of simulate's payload replay; analyze and sweep accept it and ignore it",
    )


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ``ValueError`` (``E_VALUE``)."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Sharing it keeps no state between calls: ``parse_args`` reads the parser
    and returns a new namespace each time.
    """
    parser = _Parser(
        prog="omnirelay",
        description="All-cast relay protocol analysis and simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="rate bound and line conditions")
    _add_topology_flags(analyze)
    analyze.add_argument("--rate", default="auto", help="rate to test, or 'auto'")

    simulate = subs.add_parser("simulate", help="run the distance-regulated protocol")
    sweep = subs.add_parser("sweep", help="bound and simulation table over presets")
    for sub in (simulate, sweep):
        _add_topology_flags(sub)
        sub.add_argument("--rate", default="auto", help="common rate, or 'auto'")
        sub.add_argument("--blocks", type=int, default=8)
        sub.add_argument("--hop-radius", type=float, help="one-hop neighbor cutoff")
    simulate.add_argument("--payload-sizes", help="comma list enabling the payload demo")
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
        payload, rows = _HANDLERS[args.command](args)
        payload.update(format_version=FORMAT_VERSION, command=args.command)
        return _emit(payload, rows, args)
    except tuple(t for t, _ in _ERROR_CODES) as exc:
        for exc_type, code in _ERROR_CODES:
            if isinstance(exc, exc_type):
                print(f"{code}: {exc}", file=sys.stderr)
                break
        return 1


if __name__ == "__main__":
    sys.exit(main())
