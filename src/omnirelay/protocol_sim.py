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
the simulator's only knowledge state.  A decode reads each sender's bundles
in its decode window (the blocks from the oldest attempted message to the
current one) against those counters, so its cost depends on the window,
not on the block index.  A trace derives its per-block knowledge snapshots
from its decode records on first read.

A run that reaches the protocol's periodic steady state stops decoding.
Once a block moves every counter up by exactly one and nothing in it
depends on the block index any more (a repeat cut off before block 1, a
sender's foreign content starting inside a decode window, a skipped repeat
left to read), every later block is that block with each message index
moved up by one, so its transmissions and decode records are emitted by
shifting (``run_schedule`` states the rule and proves it).

Within a block only one receiver per symmetry orbit decodes.  A run holds
its schedule as two n x n lag matrices, decode and encode
(``_lag_matrices``), and first finds the relabelings of node ids that map
its powers and both matrices onto themselves (``_symmetries``).  Every
receiver other than the smallest of its orbit takes that representative's
decode record of the block with the ids relabeled (``run_schedule`` proves
it exact).  On a regular line this halves the decodes; on a ring given as
exactly circulant distances every receiver lies in one orbit, so a block
costs one decode.

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
import operator
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .binning import BinAssignment, build_binning, decode_from_side_info, whole_sizes
from .errors import PreconditionError
from .mac_region import (
    HelperCarrier,
    MultiBlockInstance,
    MultiBlockResult,
    multi_block_decodable_subset,
)
from .topology import (
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

    @cached_property
    def repeats(self) -> tuple[Message, ...]:
        """The bundle without the sender's fresh message, parsed on first read."""
        fresh = (self.sender, self.block)
        return tuple([m for m in self.bundle if m != fresh])


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
        know: list[frozenset[Message]] = [frozenset()] * self.topology.n
        states = [tuple(know)]
        for row in self.decodes:
            for rec in row:
                if rec.success and rec.targets:
                    know[rec.node] = know[rec.node].union(rec.targets)
            states.append(tuple(know))
        return tuple(states)

    def all_success(self) -> bool:
        return all(rec.success for row in self.decodes for rec in row)

    def first_failure(self) -> DecodeRecord | None:
        for row in self.decodes:
            for rec in row:
                if not rec.success:
                    return rec
        return None

    def summary(self) -> dict:
        """The fields of :meth:`to_dict`, with ``decodes`` and ``transmissions``
        as lists of the records themselves, flattened in block order."""
        return {
            "nodes": self.topology.n,
            "rate": self.rate,
            "blocks": self.blocks,
            "all_success": self.all_success(),
            "completion_block": list(self.completion_block),
            "warnings": list(self.warnings),
            "decodes": list(chain.from_iterable(self.decodes)),
            "transmissions": list(chain.from_iterable(self.transmissions)),
        }

    def to_dict(self) -> dict:
        """JSON-ready summary with deterministic ordering.

        Each record is a dict of its fields; a message is a ``[source,
        block]`` list, and a bundle lists its messages sorted.
        """
        summary = self.summary()
        summary["decodes"] = [
            {
                "node": rec.node,
                "block": rec.block,
                "targets": [list(m) for m in rec.targets],
                "decoded": [list(m) for m in rec.decoded],
                "missing": [list(m) for m in rec.missing],
                "success": rec.success,
                "sum_rate_ok": rec.sum_rate_ok,
            }
            for rec in summary["decodes"]
        ]
        summary["transmissions"] = [
            {
                "sender": tx.sender,
                "block": tx.block,
                "bundle": [list(m) for m in sorted(tx.bundle)],
                "skipped": [list(m) for m in tx.skipped],
            }
            for tx in summary["transmissions"]
        ]
        return summary


def _build_transmission(
    sender: int, block: int, upto: dict[int, int], schedule: Schedule
) -> Transmission:
    bundle = {(sender, block)}
    skipped = []
    for k, members in enumerate(schedule.encode_sets[sender], start=1):
        src_block = block - k
        if src_block < 1:
            continue
        for j in members:
            msg = (j, src_block)
            if src_block <= upto.get(j, 0):
                bundle.add(msg)
            else:
                skipped.append(msg)
    return Transmission(sender, block, frozenset(bundle), tuple(sorted(skipped)))


class _Run:
    """What every decode of one run shares: the transmissions so far, and
    the solve memo (see ``_decode_closure``).

    ``last_skip`` is the latest block with a transmission that skipped a
    repeat (0 if none yet); rows arrive in block order, so it only grows.
    """

    def __init__(self, rate: float, noise: float):
        self.rate = rate
        self.noise = noise
        self.transmissions: list[tuple[Transmission, ...]] = []
        self.last_skip = 0
        self.solved: dict[tuple, MultiBlockResult] = {}

    def add_row(self, row: tuple[Transmission, ...]) -> None:
        self.transmissions.append(row)
        for tx in row:
            if tx.skipped:
                self.last_skip = tx.block


def _lag_matrices(schedule: Schedule) -> np.ndarray:
    """A valid schedule's rows as one ``(2, n, n)`` int array: ``[0, i, j]``
    and ``[1, i, j]`` are the lags at which node i decodes and repeats source
    j, 0 if never.  ``validate_schedule`` admits a source to at most one
    decode and one encode set of a row, so the array is exact."""
    cells = [
        (part, i, j, k)
        for part, rows in enumerate((schedule.decode_sets, schedule.encode_sets))
        for i, row in enumerate(rows)
        for k, members in enumerate(row, start=1)
        for j in members
    ]
    part, i, j, k = np.array(cells, dtype=np.int64).reshape(-1, 4).T
    lags = np.zeros((2, schedule.n, schedule.n), dtype=np.int64)
    lags[part, i, j] = k
    return lags


class _Receiver:
    """One node's view of the schedule, fixed for a run, read off the lag
    matrices ``decode, encode = lags`` of ``_lag_matrices``.

    ``lag`` maps each scheduled source (nonzero in ``decode[node]``) to its
    decode lag; ``sources`` lists them in id order, with ``power`` their
    received powers.  They are also the senders whose transmissions the node
    reads (a valid schedule never has a node decode itself), in that order.
    The node's foreign sources are the other nodes it never schedules.  A
    sender's foreign block is one past the smallest lag at which its
    ``encode`` row repeats a foreign source; ``floor`` is the latest foreign
    block over the senders (0 if none has one), which the steady-state rule
    of ``run_schedule`` waits for.  ``static_interference`` adds the foreign
    sources' powers to the node's noise in id order.  Only orbit
    representatives decode and build solve keys (see ``run_schedule``);
    every other receiver takes its representative's record, decoded under
    the representative's sum.  So mirror receivers whose id-order sums
    differ in their last bits no longer miss each other's solves.
    """

    def __init__(self, node: int, lags: np.ndarray, powers: np.ndarray):
        decode, encode = lags
        senders = np.flatnonzero(decode[node])
        foreign = np.flatnonzero(decode[node] == 0)
        foreign = foreign[foreign != node]
        column = powers[:, node].tolist()
        self.node = node
        self.sources = tuple(senders.tolist())
        self.lag = dict(zip(self.sources, decode[node, senders].tolist()))
        self.power = {j: column[j] for j in self.sources}
        self.static_interference = _static_interference(node, self.lag, column)[1]
        repeats = encode[np.ix_(senders, foreign)]
        first = np.where(repeats > 0, repeats, np.inf).min(axis=1, initial=np.inf)
        self.floor = int(first[first < np.inf].max(initial=-1)) + 1


def _static_interference(
    node: int, lag: dict[int, int], column: list[float]
) -> tuple[tuple[int, ...], float]:
    """The nodes other than ``node`` outside its decode lags ``lag``, in id
    order, and their total received power from ``column``.

    The powers add left to right from the int 0, as sum() did before Python
    3.12; from 3.12 on sum() compensates float rounding, so printed powers
    would depend on the Python version.
    """
    undecoded = tuple(j for j in range(len(column)) if j != node and j not in lag)
    return undecoded, reduce(operator.add, (column[j] for j in undecoded), 0)


def _symmetries(powers: np.ndarray, lags: np.ndarray) -> list[tuple[int, ...]]:
    """The relabelings of node ids that leave a run unchanged, as tuples
    ``sigma`` with ``sigma[j]`` the new id of node j, identity first.

    The candidates are the 2n dihedral maps ``j -> (+-j + k) mod n``,
    rotations first.  One passes when it maps the power matrix and both lag
    matrices of ``lags`` (``_lag_matrices``) onto themselves bitwise, each
    by ``m[sigma[i], sigma[j]] == m[i, j]``.  The maps that pass form a group.
    """
    n = len(powers)
    found: list[tuple[int, ...]] = []
    for sign in (1, -1):
        for k in range(n):
            sigma = tuple((sign * j + k) % n for j in range(n))
            perm = np.array(sigma)
            if (
                sigma not in found
                and (powers[perm[0], perm] == powers[0]).all()
                and (powers[np.ix_(perm, perm)] == powers).all()
                and (lags[:, perm[:, None], perm] == lags).all()
            ):
                found.append(sigma)
    return found


def _read_bundle(tx: Transmission, done: dict[int, int], node: int) -> list[int] | None:
    """The sources whose oldest missing message, by the counters ``done``,
    one transmission repeats, read from its ``repeats``; None if it repeats
    any other message the node does not know (a newer one, or one of a
    source the node never schedules)."""
    sources = []
    for j, beta in tx.repeats:
        if j == node:
            continue
        d = done.get(j)
        if d is None or beta > d + 1:
            return None
        if beta == d + 1:
            sources.append(j)
    return sources


def _decode_closure(rx: _Receiver, block: int, upto: dict[int, int], run: _Run) -> DecodeRecord:
    """Joint decode at node ``rx.node`` after block ``block``.

    ``upto[j]`` is the last block of scheduled source ``j`` the node knows:
    its knowledge of ``j`` is always the prefix ``(j, 1) .. (j, upto[j])``.
    The peel advances a copy of these counters, ``done``; each round
    attempts the pool of the oldest missing message of every scheduled
    source.

    A sender's transmission in a block of the window is one of: unknown
    content outside the pool (round noise, and an unusable member if it is
    the sender's own pool block), a pool block that repeats other pool
    members (its helps), a pure relay of pool members (a carrier), or
    nothing new.  Each round reads these transmissions block by block, in
    sender order within a block, from their bundles against the round's
    counters (``_read_bundle``), so a repeat the sender skipped or a message
    it sent that the node cannot place is seen as it was sent.

    Members are listed, and senders read, in id order, and a round's noise
    adds its senders' powers left to right in that order.  Targets, missing
    and decoded messages are kept in id order too.

    ``run.solved`` memoizes region solves for the run, keyed by a tuple of
    every instance field that varies within a run (the node's static
    interference too; only rate and noise are fixed), with round ids
    shifted to start at 0, so the same pool a block later is a hit.  As the
    key holds every field, a hit is correct whatever receiver built it.
    The instance is built and validated only on a miss.  ``run_schedule``
    calls this for orbit representatives only.
    """
    node, lag, sources = rx.node, rx.lag, rx.sources
    due_missing = [
        (j, beta) for j in sources for beta in range(upto[j] + 1, block - lag[j] + 2)
    ]
    done = dict(upto)
    # Attempt the oldest missing message of every scheduled source, due or
    # not; messages beyond their decode deadline are opportunistic extras and
    # only the due ones count toward success.
    frontier = {j: done[j] + 1 for j in sources if done[j] < block}
    decoded_total: list[Message] = []
    sum_rate_ok: bool | None = None

    while frontier:
        members = [j for j in sources if j in frontier]
        index = {j: idx for idx, j in enumerate(members)}
        first_round = min(frontier.values())

        helps = [frozenset()] * len(members)
        usable = [True] * len(members)
        carriers: list[tuple[int, float, frozenset[int]]] = []
        round_noise: dict[int, float] = {}
        for beta in range(first_round, block + 1):
            row = run.transmissions[beta - 1]
            for sender in sources:
                own = frontier.get(sender)
                # Interference from a pool sender's fresher blocks is already
                # charged by the instance's cross-round noise.
                if own is not None and beta > own:
                    continue
                p = rx.power[sender]
                js = _read_bundle(row[sender], done, node)
                if js is None:
                    round_noise[beta - first_round] = round_noise.get(beta - first_round, 0.0) + p
                    if beta == own:
                        usable[index[sender]] = False
                elif beta == own:
                    helps[index[sender]] = frozenset([index[j] for j in js])
                elif js:
                    carriers.append((beta - first_round, p, frozenset([index[j] for j in js])))

        member_powers = tuple([rx.power[j] for j in members])
        blocks = tuple([frontier[j] - first_round for j in members])
        shifted_carriers = tuple(carriers)
        block_noise = tuple(sorted(round_noise.items()))
        key = (
            member_powers,
            blocks,
            tuple(helps),
            tuple(usable),
            shifted_carriers,
            block_noise,
            rx.static_interference,
        )
        result = run.solved.get(key)
        if result is None:
            instance = MultiBlockInstance(
                rates=(run.rate,) * len(members),
                powers=member_powers,
                noise=run.noise,
                blocks=blocks,
                helps=tuple(helps),
                carriers=tuple(HelperCarrier(*c) for c in shifted_carriers),
                interference=rx.static_interference,
                block_interference=block_noise,
                usable=tuple(usable),
            )
            result = run.solved[key] = multi_block_decodable_subset(instance)
        if sum_rate_ok is None:
            sum_rate_ok = result.sum_rate_ok
        if not result.decoded:
            break
        for idx in result.decoded:
            j = members[idx]
            beta = done[j] = frontier[j]
            decoded_total.append((j, beta))
            if beta < block:
                frontier[j] = beta + 1
            else:
                del frontier[j]

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


def _relabeled(rec: DecodeRecord, node: int, sigma: tuple[int, ...]) -> DecodeRecord:
    """The decode record of ``node``: ``rec``, its orbit representative's of
    the same block, with every source ``j`` moved to ``sigma[j]`` and the
    messages re-sorted into id order."""

    def moved(messages: tuple[Message, ...]) -> tuple[Message, ...]:
        return tuple(sorted([(sigma[j], beta) for j, beta in messages]))

    return DecodeRecord(
        node,
        rec.block,
        moved(rec.targets),
        moved(rec.decoded),
        moved(rec.missing),
        rec.success,
        rec.sum_rate_ok,
    )


def _shifted_rows(
    row: tuple[Transmission, ...],
    records: list[DecodeRecord],
    block: int,
    last: int,
) -> tuple[list[tuple[Transmission, ...]], list[tuple[DecodeRecord, ...]]]:
    """Blocks ``block + 1`` to ``last``: the transmissions ``row`` and the
    successful decode ``records`` of ``block``, moved up one block each time.

    Every message of the block is ``(j, block - d)`` with ``d < span``; it is
    keyed ``j * span + d``, so each later block looks its messages up in one
    table of its own ``(j, beta)`` pairs.
    """
    messages = [m for tx in row for m in tx.bundle]
    messages += [m for rec in records for m in rec.targets + rec.decoded]
    span = 1 + max(block - beta for _, beta in messages)

    def keys(msgs: Iterable[Message]) -> tuple[int, ...]:
        return tuple([j * span + block - beta for j, beta in msgs])

    bundles = [(tx.sender, keys(tx.bundle)) for tx in row]
    decodes = [
        (rec.node, keys(rec.targets), keys(rec.decoded), rec.sum_rate_ok) for rec in records
    ]
    n = len(row)
    tx_rows, decode_rows = [], []
    for b in range(block + 1, last + 1):
        at = [(j, b - d) for j in range(n) for d in range(span)].__getitem__
        tx_rows.append(
            tuple(Transmission(l, b, frozenset(map(at, bundle))) for l, bundle in bundles)
        )
        decode_rows.append(
            tuple(
                DecodeRecord(
                    i, b, tuple(map(at, targets)), tuple(map(at, decoded)), (), True, ok
                )
                for i, targets, decoded, ok in decodes
            )
        )
    return tx_rows, decode_rows


def _is_steady(
    before: list[tuple[int, ...]],
    after: list[tuple[int, ...]],
    floors: list[int],
    last_skip: int,
) -> bool:
    """Conditions 1 and 3, and the decode-window part of condition 2, of
    ``run_schedule``'s steady state for one block.

    ``before`` and ``after`` hold every receiver's counters before and after
    the block, ``floors`` each receiver's ``_Receiver.floor``, and
    ``last_skip`` is ``_Run.last_skip`` with the block's own transmissions
    added.
    """
    for was, now in zip(before, after):
        for v, w in zip(now, was):
            if v != w + 1:
                return False
    # A receiver's decode window of the block started at min(was) + 1.
    return all(
        not was or min(was) >= max(floor - 1, last_skip) for was, floor in zip(before, floors)
    )


def run_schedule(
    topology: Topology,
    schedule: Schedule,
    rate: float,
    blocks: int,
    warnings: Iterable[str] = (),
) -> SimulationTrace:
    """Simulate ``blocks`` rounds of the protocol under an explicit schedule.

    Blocks are decoded one by one until the run reaches its steady state.
    That holds after block ``b`` when:

    1. the relative state repeats: every counter ``upto[i][j]`` moved up by
       exactly one in block ``b``;
    2. no absolute-block effect is left: ``b`` is at least every sender's
       encode-set start (a lag-k repeat exists from block k + 1 on), and each
       receiver's decode window of block ``b`` (from the oldest message it
       missed before the block, ``min(upto[i]) + 1``, to ``b``) starts at or
       after every sender's foreign block (``_Receiver.floor``);
    3. no skipped repeat is left to read: every block that skipped one,
       ``b`` included, is older than every such decode window.

    Then every later block ``b + s`` is block ``b`` with every message index,
    and the block of every transmission and decode record, moved up by
    ``s``; those rows are emitted by shifting, without decoding.

    Proof, by induction on ``s``.  Block ``b + 1`` is built from the
    counters after ``b``, which are those after ``b - 1`` plus one (1).  A
    transmission repeats ``(j, b + 1 - k)`` iff ``b + 1 - k`` is at least 1,
    which holds for every scheduled repeat as ``b`` is past the encode-set
    start (2), and at most the sender's counter of ``j``.  So it repeats
    exactly block ``b``'s messages moved up by one and, like block ``b``,
    which lies in its own decode windows (3), skips none.  A decode reads
    the counters and the block only through their differences (due ranges,
    the pool's rounds), and its solve keys hold rounds shifted to start at
    0; what is left is the role of each bundle it reads, which
    ``_read_bundle`` takes from the bundle's messages against the counters.
    No block of block ``b``'s or block ``b + 1``'s windows skipped a repeat
    (3, and row ``b + 1`` skips none), so a bundle at block ``beta`` there
    holds its fresh message plus every scheduled repeat ``(j, beta - k)``
    with ``beta - k`` at least 1.  Moved up by one block, such a bundle
    gains only repeats ``(j, 1)`` that were cut off before block 1.  A
    receiver never reads its own messages, and for a source ``j`` it
    schedules, ``(j, 1)`` is known and so nothing to decode, as every
    counter is at least 1 after block ``b`` (1).  A
    sender that repeats a source the receiver never schedules does so in
    every block from its foreign block on, which is at or before the
    window in both blocks (2), so all its bundles there are noise in both.
    Every role is thus a function of the relative state, and the records of
    block ``b + 1`` are block ``b``'s moved up by one.  They succeed, as
    every counter advanced in block ``b``, and each counter ends one higher
    again: conditions 1 to 3 hold after ``b + 1``, with every decode window
    one block later.

    The completion blocks need no such step: a node that schedules every
    other node completes once each of its counters is at least 1 (no other
    node ever does), and every counter is at least 1 after block ``b``.

    Within a block only orbit representatives decode.  ``_symmetries`` gives
    the relabelings ``sigma`` of node ids that map the power matrix and the
    decode and encode lag matrices onto themselves bitwise: node ``sigma[r]``
    hears ``sigma[j]`` at ``r``'s power of ``j``, and decodes and repeats it
    at ``r``'s lags.  Receiver ``i``'s representative ``r`` is the
    smallest node that one of them takes to ``i``, through the first such
    ``sigma``; a representative is its own, through the identity.  Receiver
    ``i`` takes ``r``'s record of the block with every message ``(j,
    beta)`` moved to ``(sigma[j], beta)`` and re-sorted into id order
    (``_relabeled``), and its counters advance from that record.

    Proof, by induction on the block, that this is receiver ``i``'s own
    decode with its pool listed in ``r``'s order mapped through ``sigma``.
    Before block 1 every counter is 0, so ``sigma`` maps the counters onto
    themselves: ``upto[sigma[r]][sigma[j]] == upto[r][j]``.  If it does
    before block ``b``, it maps each transmission of block ``b`` onto that
    of the mapped sender, since a bundle is a function of the sender's
    encode sets and counters.  Receiver ``i`` then reads, through mapped
    lags and bitwise equal powers, the mapped bundles of ``r``'s window
    against mapped counters, so each peel round builds ``r``'s instance
    bitwise, decodes ``r``'s members mapped and leaves ``r``'s round state
    mapped; the static interference is ``r``'s sum, which equals ``i``'s in
    exact arithmetic (``interference_accounting`` still prints each node's
    own id-order sum).  So ``i``'s record is ``r``'s mapped, and ``sigma``
    maps the counters after block ``b`` onto themselves.  Receivers are
    handled in id order and ``r`` is at most ``i``, so ``r``'s record of
    the block exists when ``i`` needs it.  In id order instead of ``r``'s
    mapped order, only an exact tie, which the solver breaks by member
    position, could decode differently.
    """
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
    run = _Run(rate, topology.noise)
    lags = _lag_matrices(schedule)
    receivers = [_Receiver(i, lags, powers) for i in range(n)]
    # Each receiver's orbit representative is the smallest node a symmetry
    # takes to it, through the first such symmetry; only representatives
    # decode, and the others relabel their representative's record.
    symmetries = _symmetries(powers, lags)
    orbits = []
    for i in range(n):
        rep, k = min((sigma.index(i), k) for k, sigma in enumerate(symmetries))
        orbits.append((rep, symmetries[k]))
    encode_start = int(lags[1].max(initial=0)) + 1
    floors = [rx.floor for rx in receivers]
    covers = [len(rx.sources) == n - 1 for rx in receivers]

    # Node i knows (j, beta) iff beta <= upto[i][j]; see _decode_closure.
    upto = [dict.fromkeys(rx.lag, 0) for rx in receivers]
    decode_rows: list[tuple[DecodeRecord, ...]] = []
    completion: list[int | None] = [None] * n
    before = [tuple(counters.values()) for counters in upto]

    for b in range(1, blocks + 1):
        row = tuple(_build_transmission(l, b, upto[l], schedule) for l in range(n))
        run.add_row(row)
        records = []
        for i, (rep, sigma) in enumerate(orbits):
            if rep == i:
                rec = _decode_closure(receivers[i], b, upto[i], run)
            else:
                rec = _relabeled(records[rep], i, sigma)
            records.append(rec)
            if rec.success:
                # Extras stay in the decode record only; the knowledge state
                # advances by the schedule so latency reflects the due lags.
                for j, beta in rec.targets:
                    upto[i][j] = beta
        decode_rows.append(tuple(records))
        for i in range(n):
            if completion[i] is None and covers[i] and min(upto[i].values()) >= 1:
                completion[i] = b
        after = [tuple(counters.values()) for counters in upto]
        if b >= encode_start and _is_steady(before, after, floors, run.last_skip):
            shifted_tx, shifted_decodes = _shifted_rows(row, records, b, blocks)
            run.transmissions += shifted_tx
            decode_rows += shifted_decodes
            break
        before = after

    return SimulationTrace(
        topology=topology,
        schedule=schedule,
        rate=rate,
        blocks=blocks,
        transmissions=tuple(run.transmissions),
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
    layers = k_hop_neighbors(one_hop)
    if len(layers) != topology.n:
        raise PreconditionError("one-hop sets and topology disagree on the node count")
    warnings = []
    for i, covered in enumerate(coverage_check(layers)):
        if not covered:
            missing = sorted(set(range(topology.n)) - {i}.union(*layers[i]))
            warnings.append(f"node {i} never reaches nodes {missing}")
    schedule = distance_regulated_schedule(layers)
    return run_schedule(topology, schedule, rate, blocks, warnings=warnings)


def interference_accounting(trace: SimulationTrace) -> tuple[InterferenceReport, ...]:
    """Per node: which sources stay forever undecoded and how much power they add."""
    powers = build_power_matrix(trace.topology)
    reports = []
    for i in range(trace.topology.n):
        lag = trace.schedule.decode_lag(i)
        reports.append(InterferenceReport(i, *_static_interference(i, lag, powers[:, i].tolist())))
    return tuple(reports)


def check_payload_sizes(sizes: Sequence[int], n: int) -> tuple[int, ...]:
    """The per-node alphabet sizes of a payload replay over ``n`` nodes, checked.

    Each size must be a finite integer value of at least 1.
    """
    sizes = whole_sizes(sizes, PreconditionError)
    if len(sizes) != n:
        raise PreconditionError("need one alphabet size per node")
    for s in sizes:
        if s < 1:
            raise PreconditionError("alphabet sizes must be >= 1")
    return sizes


def payload_demo(
    trace: SimulationTrace, sizes: Sequence[int], seed: int = 0
) -> tuple[PayloadReport, ...]:
    """Replay the trace with concrete message values through the binning layer.

    Every message gets a seeded random value; each transmission is reduced to
    the bin index of its bundle.  A receiver works only with bin indices of
    transmissions whose bundles it fully decoded (plus its own messages) and
    extracts values one unknown slot at a time.  The report compares what the
    values recover against what the trace claims the node knows.

    One pass over the bundles in block order recovers all it can.  Each
    bundle holds its sender's fresh message, which no earlier bundle holds,
    so that message is still unknown when its bundle is reached: a bundle
    recovers its own fresh message or nothing.  A bundle left with two or
    more unknown values misses its fresh message and a repeat, the fresh
    message of an earlier bundle that recovered nothing; neither can be
    recovered by any other bundle, so a second pass would find it as the
    first did.  Each bundle is therefore prepared once, with its fresh
    message as the one target slot, and a node decodes it when it knows
    that message and has a value for every other slot.

    A node's values change only through the bundles it decodes, in block
    order, so the replay is bundle-major: each bundle is offered to every
    node as soon as it is prepared.  Decoding is a pure function of the
    bundle and the side values, so a bundle is decoded once for each
    distinct tuple of side values among the nodes that decode it.  The
    reports, mismatches included, are those of a node-by-node replay.  One
    thing can differ: when two nodes would raise on two different bundles,
    the error raised is that of the earlier bundle, not that of the lower
    node.  The modular-sum map never raises on correct side information.
    """
    n = trace.topology.n
    sizes = check_payload_sizes(sizes, n)
    if trace.blocks == 0:
        return ()

    rng = random.Random(seed)
    truth: dict[Message, int] = {}
    for beta in range(1, trace.blocks + 1):
        for j in range(n):
            truth[(j, beta)] = rng.randrange(sizes[j])

    final: list[set[Message]] = [set() for _ in range(n)]
    for row in trace.decodes:
        for rec in row:
            if rec.success:
                final[rec.node].update(rec.targets)
    values: list[dict[Message, int]] = [
        {(i, beta): truth[i, beta] for beta in range(1, trace.blocks + 1)} for i in range(n)
    ]
    mismatches: list[list[Message]] = [[] for _ in range(n)]
    # Bundles share few distinct alphabet-size lists, so each gets one bin map.
    assignments: dict[tuple[int, ...], BinAssignment] = {}
    for row in trace.transmissions:
        for tx in row:
            slots = sorted(tx.bundle)
            slot_sizes = tuple(sizes[src] for src, _ in slots)
            assignment = assignments.get(slot_sizes)
            if assignment is None:
                assignment = assignments[slot_sizes] = build_binning(slot_sizes)
            bin_index = assignment.bin_of([truth[m] for m in slots])
            fresh = (tx.sender, tx.block)
            target = slots.index(fresh)
            side_slots = tuple(idx for idx in range(len(slots)) if idx != target)
            side_msgs = tuple(slots[idx] for idx in side_slots)
            # Nodes that hold the same side values share one decode.
            decoded: dict[tuple[int, ...], int] = {}
            for i in range(n):
                # The whole bundle is known to the node when its fresh message
                # is and every repeat already has a value, since values hold
                # only the node's own messages and fresh messages it knows.
                if i == tx.sender or fresh not in final[i]:
                    continue
                try:
                    side = tuple(map(values[i].__getitem__, side_msgs))
                except KeyError:  # a repeat is still unknown: the bundle recovers nothing
                    continue
                value = decoded.get(side)
                if value is None:
                    value = decoded[side] = decode_from_side_info(
                        assignment, bin_index, dict(zip(side_slots, side)), target
                    )
                values[i][fresh] = value
                if value != truth[fresh]:
                    mismatches[i].append(fresh)
    reports = []
    for i in range(n):
        known_msgs = final[i]
        recovered = len(known_msgs.intersection(values[i]))
        reports.append(
            PayloadReport(
                node=i,
                recovered=recovered,
                known=len(known_msgs),
                complete=recovered == len(known_msgs),
                mismatches=tuple(sorted(mismatches[i])),
            )
        )
    return tuple(reports)
