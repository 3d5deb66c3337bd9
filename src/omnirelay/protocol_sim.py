"""Block-synchronous simulation of the relay protocol.

Every node sends one fresh message per block, bundled with repeats of older
messages it relays according to its encode sets.  Every receiver keeps the
raw signals of all past blocks and, per block, jointly decodes whatever its
decode sets make due, using the multi-block region from
:mod:`omnirelay.mac_region`.  The simulator tracks knowledge sets, per-block
decode outcomes, completion latency, and can replay a concrete payload
through the deterministic binning layer to confirm end-to-end consistency.

A receiver's knowledge of each scheduled source is always a prefix of that
source's blocks: it grows only by whole due sets, and the decode of a source
is attempted oldest-missing-first.  So one counter per scheduled source is
the simulator's only knowledge state; a decode reads those counters, so its
cost depends on its decode window (the blocks from the oldest attempted
message to the current one), not on the block index.  A trace derives its
per-block knowledge snapshots from its decode records on first read.

Modeling choices worth knowing about: a receiver attempts the oldest
missing message of every scheduled source each block, even ones that are
not yet due, so fresh neighbour traffic is treated as decodable signal
rather than noise; success is judged on the due messages only, and while
opportunistic extras show up in the per-block decode records, the
knowledge state advances by the schedule.  Transmissions that mix in
content the receiver cannot place are accounted as interference rather
than partially exploited, and a node whose block decode fails keeps its
knowledge unchanged that block and retries later with more received
blocks in hand.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .binning import build_binning, decode_from_side_info
from .errors import PreconditionError
from .mac_region import (
    HelperCarrier,
    MultiBlockInstance,
    MultiBlockResult,
    multi_block_decodable_subset,
)
from .topology import (
    PowerMatrix,
    Schedule,
    Topology,
    build_power_matrix,
    coverage_check,
    distance_regulated_schedule,
    k_hop_neighbors,
    validate_schedule,
)

Message = tuple[int, int]


@dataclass(frozen=True)
class Transmission:
    """One node's signal in one block: its fresh message plus relayed repeats.

    ``skipped`` lists scheduled repeats the sender had to drop because it
    never decoded them.
    """

    sender: int
    block: int
    bundle: frozenset[Message]
    skipped: tuple[Message, ...] = ()


@dataclass(frozen=True)
class DecodeRecord:
    """Outcome of one receiver's joint decode at the end of one block."""

    node: int
    block: int
    targets: tuple[Message, ...]
    decoded: tuple[Message, ...]
    missing: tuple[Message, ...]
    success: bool
    sum_rate_ok: bool


@dataclass(frozen=True)
class InterferenceReport:
    """Sources a node never decodes and the noise floor they add at it."""

    node: int
    undecoded: tuple[int, ...]
    power: float


@dataclass(frozen=True)
class PayloadReport:
    """Per-receiver outcome of replaying concrete payload values.

    ``known`` counts messages the trace says the node decoded; ``recovered``
    counts those whose values the bin-index bookkeeping actually reproduced.
    """

    node: int
    recovered: int
    known: int
    complete: bool
    mismatches: tuple[Message, ...] = ()


@dataclass(frozen=True)
class SimulationTrace:
    """Complete record of a protocol run."""

    topology: Topology
    schedule: Schedule
    rate: float
    blocks: int
    transmissions: tuple[tuple[Transmission, ...], ...]
    decodes: tuple[tuple[DecodeRecord, ...], ...]
    completion_block: tuple[int | None, ...]
    warnings: tuple[str, ...] = ()

    @cached_property
    def knowledge(self) -> tuple[tuple[frozenset[Message], ...], ...]:
        """Every node's decoded messages after blocks 0, 1, ..., ``blocks``."""
        return tuple(_knowledge_states(self))

    def all_success(self) -> bool:
        return all(rec.success for row in self.decodes for rec in row)

    def first_failure(self) -> DecodeRecord | None:
        for row in self.decodes:
            for rec in row:
                if not rec.success:
                    return rec
        return None

    def to_dict(self) -> dict:
        """JSON-ready summary with deterministic ordering."""
        return {
            "nodes": self.topology.n,
            "rate": self.rate,
            "blocks": self.blocks,
            "all_success": self.all_success(),
            "completion_block": list(self.completion_block),
            "warnings": list(self.warnings),
            "decodes": [
                {
                    "node": rec.node,
                    "block": rec.block,
                    "targets": [list(m) for m in rec.targets],
                    "decoded": [list(m) for m in rec.decoded],
                    "missing": [list(m) for m in rec.missing],
                    "success": rec.success,
                    "sum_rate_ok": rec.sum_rate_ok,
                }
                for row in self.decodes
                for rec in row
            ],
            "transmissions": [
                {
                    "sender": tx.sender,
                    "block": tx.block,
                    "bundle": sorted([list(m) for m in tx.bundle]),
                    "skipped": [list(m) for m in tx.skipped],
                }
                for row in self.transmissions
                for tx in row
            ],
        }


def _knowledge_states(trace: SimulationTrace) -> Iterator[tuple[frozenset[Message], ...]]:
    """Each node's known set after every block, replayed from the decode records."""
    know: list[frozenset[Message]] = [frozenset()] * trace.topology.n
    yield tuple(know)
    for row in trace.decodes:
        for rec in row:
            if rec.success and rec.targets:
                know[rec.node] = know[rec.node].union(rec.targets)
        yield tuple(know)


def _build_transmission(
    sender: int, block: int, upto: dict[int, int], schedule: Schedule
) -> Transmission:
    bundle = {(sender, block)}
    skipped = []
    for k, members in enumerate(schedule.encode_sets[sender], start=1):
        src_block = block - k
        if src_block < 1:
            continue
        for j in sorted(members):
            msg = (j, src_block)
            if src_block <= upto.get(j, 0):
                bundle.add(msg)
            else:
                skipped.append(msg)
    return Transmission(sender, block, frozenset(bundle), tuple(sorted(skipped)))


def _decode_closure(
    node: int,
    block: int,
    upto: dict[int, int],
    transmissions: Sequence[Sequence[Transmission]],
    lag: dict[int, int],
    static_interference: float,
    powers: PowerMatrix,
    rate: float,
    noise: float,
    solved: dict[MultiBlockInstance, MultiBlockResult],
) -> DecodeRecord:
    """Joint decode at ``node`` after block ``block``.

    ``upto[j]`` is the last block of scheduled source ``j`` the node knows:
    its knowledge of ``j`` is always the prefix ``(j, 1) .. (j, upto[j])``.
    The peel advances a copy of these counters.

    ``solved`` memoizes region solves for the current run, keyed by the
    instance.  A solve depends on round ids only through their differences,
    so the instance holds them shifted to start at 0, and the same pool a
    block later is a hit.
    """
    due_missing = [
        (j, beta) for j in sorted(lag) for beta in range(upto[j] + 1, block - lag[j] + 2)
    ]
    done = dict(upto)
    decoded_total: list[Message] = []
    sum_rate_ok: bool | None = None

    while True:
        # Attempt the oldest missing message of every scheduled source, due
        # or not; messages beyond their decode deadline are opportunistic
        # extras and only the due ones count toward success.
        frontier = {j: done[j] + 1 for j in lag if done[j] < block}
        if not frontier:
            break

        members = sorted(frontier)
        index = {j: idx for idx, j in enumerate(members)}
        targets = {(j, frontier[j]): index[j] for j in members}
        first_round = min(frontier.values())

        helps: list[frozenset[int]] = [frozenset() for _ in members]
        usable = [True] * len(members)
        carriers: list[tuple[int, float, frozenset[int]]] = []
        round_noise: dict[int, float] = {}
        for beta in range(first_round, block + 1):
            for sender in sorted(lag):
                if sender == node:
                    continue
                tx = transmissions[beta - 1][sender]
                unknown = {m for m in tx.bundle if m[1] > done.get(m[0], 0) and m[0] != node}
                if not unknown:
                    continue
                p = powers.pair(sender, node)
                if sender in frontier and beta > frontier[sender]:
                    # Interference from a pool sender's fresher blocks is
                    # already charged by the instance's cross-round noise.
                    continue
                if sender in frontier and beta == frontier[sender]:
                    extras = unknown - {(sender, beta)}
                    if all(m in targets for m in extras):
                        helps[index[sender]] = frozenset(targets[m] for m in extras)
                    else:
                        usable[index[sender]] = False
                        round_noise[beta] = round_noise.get(beta, 0.0) + p
                elif all(m in targets for m in unknown):
                    carriers.append((beta, p, frozenset(targets[m] for m in unknown)))
                else:
                    round_noise[beta] = round_noise.get(beta, 0.0) + p

        instance = MultiBlockInstance(
            rates=tuple(rate for _ in members),
            powers=tuple(powers.pair(j, node) for j in members),
            noise=noise,
            blocks=tuple(frontier[j] - first_round for j in members),
            helps=tuple(helps),
            carriers=tuple(HelperCarrier(b - first_round, p, h) for b, p, h in carriers),
            interference=static_interference,
            block_interference=tuple((b - first_round, p) for b, p in round_noise.items()),
            usable=tuple(usable),
        )
        result = solved.get(instance)
        if result is None:
            result = solved[instance] = multi_block_decodable_subset(instance)
        if sum_rate_ok is None:
            sum_rate_ok = result.sum_rate_ok
        if not result.decoded:
            break
        for idx in result.decoded:
            j = members[idx]
            done[j] = frontier[j]
            decoded_total.append((j, frontier[j]))

    missing = tuple((j, beta) for j, beta in due_missing if beta > done[j])
    return DecodeRecord(
        node=node,
        block=block,
        targets=tuple(due_missing),
        decoded=tuple(sorted(decoded_total)),
        missing=missing,
        success=not missing,
        sum_rate_ok=True if sum_rate_ok is None else sum_rate_ok,
    )


def run_schedule(
    topology: Topology,
    schedule: Schedule,
    rate: float,
    blocks: int,
    warnings: Iterable[str] = (),
) -> SimulationTrace:
    """Simulate ``blocks`` rounds of the protocol under an explicit schedule."""
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and nonnegative")
    if blocks < 0:
        raise ValueError("block count must be nonnegative")
    n = topology.n
    if schedule.n != n:
        raise PreconditionError("schedule and topology disagree on the node count")
    violations = validate_schedule(schedule)
    if violations:
        first = violations[0]
        raise PreconditionError(
            f"schedule breaks {len(violations)} rule(s); first: node {first.node} "
            f"lag {first.hop}: {first.message}"
        )
    powers = build_power_matrix(topology)
    lag = [schedule.decode_lag(i) for i in range(n)]
    static = [
        sum(powers.pair(j, i) for j in range(n) if j != i and j not in lag[i])
        for i in range(n)
    ]

    # Node i knows (j, beta) iff beta <= upto[i][j]; see _decode_closure.
    upto = [dict.fromkeys(lag[i], 0) for i in range(n)]
    tx_rows: list[tuple[Transmission, ...]] = []
    decode_rows: list[tuple[DecodeRecord, ...]] = []
    completion: list[int | None] = [None] * n
    solved: dict[MultiBlockInstance, MultiBlockResult] = {}

    for b in range(1, blocks + 1):
        tx_rows.append(
            tuple(_build_transmission(l, b, upto[l], schedule) for l in range(n))
        )
        records = []
        for i in range(n):
            rec = _decode_closure(
                i, b, upto[i], tx_rows, lag[i], static[i], powers, rate, topology.noise, solved
            )
            records.append(rec)
            if rec.success:
                # Extras stay in the decode record only; the knowledge state
                # advances by the schedule so latency reflects the due lags.
                for j, beta in rec.targets:
                    upto[i][j] = beta
        decode_rows.append(tuple(records))
        for i in range(n):
            if completion[i] is None and all(
                upto[i].get(j, 0) >= 1 for j in range(n) if j != i
            ):
                completion[i] = b

    return SimulationTrace(
        topology=topology,
        schedule=schedule,
        rate=rate,
        blocks=blocks,
        transmissions=tuple(tx_rows),
        decodes=tuple(decode_rows),
        completion_block=tuple(completion),
        warnings=tuple(warnings),
    )


def run_distance_regulated(
    topology: Topology,
    one_hop: Sequence[Iterable[int]],
    rate: float,
    blocks: int,
) -> SimulationTrace:
    """Simulate the schedule that decodes and relays the k-hop layers at lag k."""
    neighbors = k_hop_neighbors(one_hop)
    if neighbors.n != topology.n:
        raise PreconditionError("one-hop sets and topology disagree on the node count")
    warnings = []
    for i, covered in enumerate(coverage_check(neighbors)):
        if not covered:
            missing = sorted(set(range(topology.n)) - {i} - set(neighbors.reachable(i)))
            warnings.append(f"node {i} never reaches nodes {missing}")
    schedule = distance_regulated_schedule(neighbors)
    return run_schedule(topology, schedule, rate, blocks, warnings=warnings)


def interference_accounting(trace: SimulationTrace) -> tuple[InterferenceReport, ...]:
    """Per node: which sources stay forever undecoded and how much power they add."""
    topology = trace.topology
    powers = build_power_matrix(topology)
    out = []
    for i in range(topology.n):
        scheduled = set(trace.schedule.decode_lag(i))
        undecoded = tuple(j for j in range(topology.n) if j != i and j not in scheduled)
        out.append(
            InterferenceReport(i, undecoded, sum(powers.pair(j, i) for j in undecoded))
        )
    return tuple(out)


def payload_demo(
    trace: SimulationTrace, sizes: Sequence[int], seed: int = 0
) -> tuple[PayloadReport, ...]:
    """Replay the trace with concrete message values through the binning layer.

    Every message gets a seeded random value; each transmission is reduced to
    the bin index of its bundle.  A receiver works only with bin indices of
    transmissions whose bundles it fully decoded (plus its own messages) and
    extracts values one unknown slot at a time.  The report compares what the
    values recover against what the trace claims the node knows.
    """
    n = trace.topology.n
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != n:
        raise PreconditionError("need one alphabet size per node")
    for s in sizes:
        if s < 1:
            raise PreconditionError("alphabet sizes must be >= 1")
    if trace.blocks == 0:
        return ()

    rng = random.Random(seed)
    truth: dict[Message, int] = {}
    for beta in range(1, trace.blocks + 1):
        for j in range(n):
            truth[(j, beta)] = rng.randrange(sizes[j])

    prepared = []
    for row in trace.transmissions:
        for tx in row:
            slots = sorted(tx.bundle)
            assignment = build_binning([sizes[src] for src, _ in slots])
            bin_index = assignment.bin_of([truth[m] for m in slots])
            prepared.append((tx, slots, assignment, bin_index))

    for final in _knowledge_states(trace):
        pass
    reports = []
    for i in range(n):
        known_msgs = final[i]
        own = {(i, beta) for beta in range(1, trace.blocks + 1)}
        values: dict[Message, int] = {m: truth[m] for m in own}
        placeable = known_msgs | own
        held = [
            entry
            for entry in prepared
            if entry[0].sender != i and entry[0].bundle <= placeable
        ]
        mismatches = []
        progress = True
        while progress:
            progress = False
            for tx, slots, assignment, bin_index in held:
                unknown = [idx for idx, m in enumerate(slots) if m not in values]
                if len(unknown) != 1:
                    continue
                target = unknown[0]
                side = {idx: values[m] for idx, m in enumerate(slots) if idx != target}
                value = decode_from_side_info(assignment, bin_index, side, target)
                msg = slots[target]
                values[msg] = value
                if value != truth[msg]:
                    mismatches.append(msg)
                progress = True
        recovered = sum(1 for m in known_msgs if m in values)
        reports.append(
            PayloadReport(
                node=i,
                recovered=recovered,
                known=len(known_msgs),
                complete=recovered == len(known_msgs),
                mismatches=tuple(sorted(mismatches)),
            )
        )
    return tuple(reports)
