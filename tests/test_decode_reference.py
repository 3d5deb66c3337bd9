"""The counter-based decode against the set-based decode it replaced.

``reference_decode_closure`` and ``reference_build_transmission`` are the
simulator's joint decode and relay bundling from when a receiver's knowledge
was a plain set of messages that every decode scanned from block 1.
``reference_run`` drives them with ``run_schedule``'s block loop over such
sets and stores a knowledge snapshot per block.  The simulator now keeps one
counter per scheduled source instead, reads each bundle against those
counters, and derives its snapshots from the decode records, and once a run
reaches its steady state it emits the remaining blocks by shifting the last
decoded one.  It also decodes only one receiver per symmetry orbit and
gives the others that representative's record relabeled, where the
reference decodes every receiver and takes the order in which each lists
its pool as a parameter.  These tests check that both give the same
transmissions, decode records, knowledge snapshots and completion blocks
(the reference in id order), and the same solved region instances (the
reference with each receiver in its orbit representative's order,
``orbit_orders``, so that the receivers of one orbit share solves), and
that the invariant the counters rest on holds: a receiver's knowledge of
each source is a prefix of its blocks.

The grid holds distance-regulated lines, rings and an arc, also run long
enough to reach the steady state; a line whose one-hop sets split it in
two, so that every node has its own static interference; and hand-built
schedules under which a sender repeats a source the receiver never
schedules, also from a block later than the receiver's decode window
starts, relays a pool member on its own, or sends a bundle that skips one
repeat and carries another, one of them mirrored so that a receiver reads
round noise and carriers in reverse id order.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import replace
from functools import lru_cache, reduce
from typing import AbstractSet, Sequence

import pytest

from omnirelay import cli, protocol_sim
from omnirelay.mac_region import (
    HelperCarrier,
    MultiBlockInstance,
    MultiBlockResult,
    multi_block_decodable_subset,
)
from omnirelay.protocol_sim import (
    DecodeRecord,
    Message,
    Transmission,
    run_distance_regulated,
    run_schedule,
)
from omnirelay.rate_analysis import allcast_rate_bound
from omnirelay.topology import (
    GainFunction,
    Schedule,
    arc,
    build_power_matrix,
    distance_regulated_schedule,
    k_hop_neighbors,
    power_law,
    regular_line,
    ring,
    topology_from_distances,
    validate_schedule,
)


def reference_build_transmission(
    sender: int, block: int, known: AbstractSet[Message], schedule: Schedule
) -> Transmission:
    bundle = {(sender, block)}
    skipped = []
    for k, members in enumerate(schedule.encode_sets[sender], start=1):
        src_block = block - k
        if src_block < 1:
            continue
        for j in sorted(members):
            msg = (j, src_block)
            if msg in known:
                bundle.add(msg)
            else:
                skipped.append(msg)
    return Transmission(sender, block, frozenset(bundle), tuple(sorted(skipped)))


def reference_decode_closure(
    node: int,
    block: int,
    know: set[Message],
    transmissions: Sequence[Sequence[Transmission]],
    lag: dict[int, int],
    static_interference: float,
    powers: list[list[float]],
    rate: float,
    noise: float,
    solved: dict[tuple, MultiBlockResult],
    order: Sequence[int],
) -> DecodeRecord:
    """Joint decode at ``node`` after block ``block``.

    ``solved`` memoizes region solves for the current run.  A solve depends
    on round ids only through their differences, so its key holds them
    shifted to start at 0, and the same pool a block later is a hit.
    ``order`` lists the scheduled sources in the order in which pool members
    are listed and senders read.
    """
    due_missing = sorted(
        (j, beta)
        for j, k in lag.items()
        for beta in range(1, block - k + 2)
        if (j, beta) not in know
    )
    work = set(know)
    decoded_total: list[Message] = []
    sum_rate_ok: bool | None = None

    while True:
        # Attempt the oldest missing message of every scheduled source, due
        # or not; messages beyond their decode deadline are opportunistic
        # extras and only the due ones count toward success.
        frontier: dict[int, int] = {}
        for j in lag:
            beta = 1
            while (j, beta) in work:
                beta += 1
            if beta <= block:
                frontier[j] = beta
        if not frontier:
            break

        members = [j for j in order if j in frontier]
        index = {j: idx for idx, j in enumerate(members)}
        targets = {(j, frontier[j]): index[j] for j in members}
        first_round = min(frontier.values())

        helps: list[frozenset[int]] = [frozenset() for _ in members]
        usable = [True] * len(members)
        carriers: list[tuple[int, float, frozenset[int]]] = []
        round_noise: dict[int, float] = {}
        for beta in range(first_round, block + 1):
            for sender in order:
                if sender == node:
                    continue
                tx = transmissions[beta - 1][sender]
                unknown = {m for m in tx.bundle if m not in work and m[0] != node}
                if not unknown:
                    continue
                p = powers[sender][node]
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

        member_powers = tuple(powers[j][node] for j in members)
        blocks = tuple(frontier[j] for j in members)
        block_noise = tuple(sorted(round_noise.items()))
        # Every instance field, with round ids relative to the first round.
        key = (
            rate,
            noise,
            static_interference,
            member_powers,
            tuple(b - first_round for b in blocks),
            tuple(helps),
            tuple(usable),
            tuple((b - first_round, p, h) for b, p, h in carriers),
            tuple((b - first_round, p) for b, p in block_noise),
        )
        result = solved.get(key)
        if result is None:
            instance = MultiBlockInstance(
                rates=tuple(rate for _ in members),
                powers=member_powers,
                noise=noise,
                blocks=blocks,
                helps=tuple(helps),
                carriers=tuple(HelperCarrier(*c) for c in carriers),
                interference=static_interference,
                block_interference=block_noise,
                usable=tuple(usable),
            )
            result = solved[key] = multi_block_decodable_subset(instance)
        if sum_rate_ok is None:
            sum_rate_ok = result.sum_rate_ok
        if not result.decoded:
            break
        for idx in result.decoded:
            msg = (members[idx], frontier[members[idx]])
            work.add(msg)
            decoded_total.append(msg)

    missing = tuple(m for m in due_missing if m not in work)
    return DecodeRecord(
        node=node,
        block=block,
        targets=tuple(due_missing),
        decoded=tuple(sorted(decoded_total)),
        missing=missing,
        success=not missing,
        sum_rate_ok=True if sum_rate_ok is None else sum_rate_ok,
    )


def reference_run(topology, schedule, rate, blocks, orders=None):
    """``run_schedule``'s block loop over plain knowledge sets.

    ``orders[i]`` is node i's member and sender order; id order by default.
    """
    n = topology.n
    powers = build_power_matrix(topology).tolist()
    lag = [schedule.decode_lag(i) for i in range(n)]
    if orders is None:
        orders = [sorted(lag[i]) for i in range(n)]
    static = [
        reduce(
            operator.add, (powers[j][i] for j in range(n) if j != i and j not in lag[i]), 0
        )
        for i in range(n)
    ]
    know: list[set[Message]] = [set() for _ in range(n)]
    tx_rows: list[tuple[Transmission, ...]] = []
    decode_rows = []
    snapshots = [tuple(frozenset(s) for s in know)]
    solved: dict[tuple, MultiBlockResult] = {}
    for b in range(1, blocks + 1):
        tx_rows.append(
            tuple(reference_build_transmission(l, b, know[l], schedule) for l in range(n))
        )
        records = []
        updated = []
        for i in range(n):
            rec = reference_decode_closure(
                i,
                b,
                know[i],
                tx_rows,
                lag[i],
                static[i],
                powers,
                rate,
                topology.noise,
                solved,
                orders[i],
            )
            records.append(rec)
            updated.append(know[i] | set(rec.targets) if rec.success else set(know[i]))
        know = updated
        decode_rows.append(tuple(records))
        snapshots.append(tuple(frozenset(s) for s in know))
    return tuple(tx_rows), tuple(decode_rows), tuple(snapshots)


def reference_symmetries(powers, schedule):
    """The maps ``sigma``, ``j -> (+-j + k) mod n`` with rotations first, as
    tuples, that keep every received power and map every decode and encode
    set of each node i, by its rows, onto the set of node ``sigma[i]`` at
    the same lag.  Empty sets are ignored, trailing or not."""
    n = len(powers)
    p = powers.tolist()

    def nonempty(row):
        return {k: s for k, s in enumerate(row) if s}

    rows = [
        (nonempty(schedule.decode_sets[i]), nonempty(schedule.encode_sets[i])) for i in range(n)
    ]
    symmetries = []
    for sign in (1, -1):
        for k in range(n):
            sigma = tuple((sign * j + k) % n for j in range(n))
            keeps_powers = all(
                p[sigma[i]][sigma[j]] == p[i][j] for i in range(n) for j in range(n)
            )
            keeps_schedule = all(
                rows[sigma[i]]
                == tuple(
                    {lag: {sigma[j] for j in s} for lag, s in part.items()} for part in rows[i]
                )
                for i in range(n)
            )
            if keeps_powers and keeps_schedule and sigma not in symmetries:
                symmetries.append(sigma)
    return symmetries


def reference_floor(node, schedule):
    """The latest foreign block over the senders ``node`` schedules, 0 if
    none has one: a sender's foreign block is one past the first lag at
    which its encode rows repeat a source the node never schedules."""
    lag = schedule.decode_lag(node)
    return max(
        (
            next(
                (
                    k + 1
                    for k, members in enumerate(schedule.encode_sets[l], start=1)
                    if any(j != node and j not in lag for j in members)
                ),
                0,
            )
            for l in sorted(lag)
        ),
        default=0,
    )


def orbit_orders(topology, schedule):
    """Each node's member and sender order in a run: the id-sorted sources
    of the smallest node that a symmetry maps to it, mapped through the
    first such symmetry.

    The symmetries are ``reference_symmetries``.  They are read off the
    powers, not the distances: on the cos/sin rings of 3, 4, 5 and 8 nodes,
    chords that differ in their last bit give equal powers, and the run
    shares those solves.
    """
    n = topology.n
    symmetries = reference_symmetries(build_power_matrix(topology), schedule)
    orders = []
    for node in range(n):
        rep, first = min((sigma.index(node), k) for k, sigma in enumerate(symmetries))
        orders.append([symmetries[first][j] for j in sorted(schedule.decode_lag(rep))])
    return orders


def path_one_hop(n):
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


def ring_one_hop(n):
    return [frozenset({(i - 1) % n, (i + 1) % n}) for i in range(n)]


def split_one_hop(n, cut):
    """Path neighbours, with the link between ``cut - 1`` and ``cut`` removed."""
    return [
        frozenset(x for x in (i - 1, i + 1) if 0 <= x < n and (x < cut) == (i < cut))
        for i in range(n)
    ]


def late_schedule(n):
    """A line's distance-regulated schedule, except that node 2 decodes its
    far sources later: node 4 at lag 3 instead of 2 and, on 6 nodes, node 0
    at lag 3 and node 5 at lag 5.

    Nodes 1 and 3 still relay their neighbours at lag 1, so at node 2 their
    older blocks are pure relays of pool members (carriers, several per pool
    on 6 nodes), and their fresh blocks repeat messages beyond a source's
    pool block (unusable members, charged as round noise).
    """
    regulated = distance_regulated_schedule(k_hop_neighbors(path_one_hop(n)))
    rows = [list(row) for row in regulated.decode_sets]
    rows[2] = LATE_ROWS[n]
    return Schedule(rows, rows)


LATE_ROWS = {5: [{1, 3}, {0}, {4}], 6: [{1, 3}, (), {0, 4}, (), {5}]}


def mirrored_late_schedule(n):
    """The 6-node late schedule with node 3 given node 2's rows mirrored,
    ``j -> 5 - j``: the schedule keeps the line's reflection, so node 3
    decodes in node 2's order reversed, and its round noise and carriers
    add up in that order.
    """
    rows = [list(row) for row in late_schedule(n).decode_sets]
    rows[3] = [{n - 1 - j for j in s} for s in rows[2]]
    return Schedule(rows, rows)


def foreign_schedule():
    """A 5-node line on which node 2 never schedules node 0, while node 1,
    which node 2 does schedule, relays node 0 at lag 1: node 1's bundles
    carry foreign content at node 2.  Nodes 0 and 4 decode node 2 directly
    at lag 2, as nobody relays it.
    """
    return Schedule(
        [[{1}, {2}], [{0, 2}], [{1, 3}, (), {4}], [{2, 4}], [{3}, {2}]],
        [[{1}], [{0}], [{1}], [{4}], [{3}]],
    )


def late_foreign_schedule():
    """A 3-node line on which node 0 schedules only node 1, at lag 4, while
    node 1 relays node 2 at lag 3: from block 4 on, node 1's bundles carry
    content that node 0 never schedules.  Node 0's decode window of block 5,
    the first block whose transmissions repeat everything they schedule,
    still starts at block 2, before that content arrives.
    """
    return Schedule(
        [[(), (), (), {1}], [(), {2}, {0}], [{1}]],
        [[(), (), (), {1}], [(), (), {2}], [{1}]],
    )


def partial_schedule():
    """A 4-node line on which node 1 decodes nodes 0 and 2 at lag 1 and
    relays node 2 at lag 1 but node 0 only at lag 2.  Node 2 relays node 3,
    which node 1 never schedules, so from block 2 on node 2's bundles are
    noise at node 1 and its decodes fail.  Node 1's bundle of block 3,
    built on its success in block 1 alone, skips ``(2, 2)`` but repeats
    ``(0, 1)``, which node 2 decodes at lag 3.
    """
    return Schedule(
        [[{1}, {2}], [{0, 2}], [{1, 3}, (), {0}], [{2}]],
        [[()], [{2}, {0}], [{3}], [()]],
    )


GAIN = power_law(2.0)
SHARES = (0.9, 1.001, 1.3)
LONG_SHARES = (0.5, 0.9, 1.3)
CASES = (
    [("line", n, share) for n in range(2, 9) for share in SHARES]
    + [("ring", n, share) for n in range(3, 8) for share in SHARES]
    + [("arc", 6, share) for share in SHARES]
    # Split into {0, 1, 2} and {3, ..., 6}: every node has its own static
    # interference from the half it never schedules.
    + [("split", 7, share) for share in (0.3, 0.6, 0.9, 1.2)]
    + [("late", n, share) for n in (5, 6) for share in (0.3, 0.9, 1.2)]
    + [("mirrored-late", 6, share) for share in (0.3, 0.9, 1.2)]
    + [("foreign", 5, share) for share in (0.3, 0.9, 1.2)]
    + [("late-foreign", 3, share) for share in (0.3, 0.9)]
    + [("partial", 4, share) for share in (0.3, 0.9)]
    # Long runs: most below the bound reach the steady state and emit their
    # remaining blocks by shifting; past it the windows keep growing.
    + [("long-ring", n, share) for n in range(3, 10) for share in LONG_SHARES]
    + [("long-line", n, share) for n in range(2, 10) for share in LONG_SHARES]
    + [("long-arc", 6, share) for share in LONG_SHARES]
    + [("long-split", 7, 0.3)]
)
HAND_BUILT = {
    "late": late_schedule,
    "mirrored-late": mirrored_late_schedule,
    "foreign": lambda n: foreign_schedule(),
    "late-foreign": lambda n: late_foreign_schedule(),
    "partial": lambda n: partial_schedule(),
}
BLOCKS = {
    "split": 14,
    "late": 14,
    "mirrored-late": 14,
    "foreign": 12,
    "late-foreign": 14,
    "partial": 12,
}


def build_case(kind, n, share):
    """Topology, one-hop sets (None for a hand-built schedule), schedule,
    rate and block count of one grid case."""
    one_hop = None
    long_run = kind.startswith("long-")
    kind = kind.removeprefix("long-")
    if kind in HAND_BUILT:
        topology, schedule = regular_line(n, 1.0, GAIN, 10.0, 1.0), HAND_BUILT[kind](n)
    else:
        if kind == "line":
            topology, one_hop = regular_line(n, 1.0, GAIN, 10.0, 1.0), path_one_hop(n)
        elif kind == "ring":
            topology, one_hop = ring(n, 1.0, GAIN, 10.0, 1.0), ring_one_hop(n)
        elif kind == "split":
            topology, one_hop = regular_line(n, 1.0, GAIN, 10.0, 1.0), split_one_hop(n, 3)
        else:
            topology, one_hop = arc(n, 1.0, 4.0, GAIN, 10.0, 1.0), path_one_hop(n)
        schedule = distance_regulated_schedule(k_hop_neighbors(one_hop))
    # Long enough for every lag to come due and, past the bound, for the
    # failed decodes' windows to grow well beyond one block.
    blocks = 4 * n + 8 if long_run else BLOCKS.get(kind, 2 * n + 6)
    return topology, one_hop, schedule, share * allcast_rate_bound(topology), blocks


def simulate(kind, n, share):
    topology, one_hop, schedule, rate, blocks = build_case(kind, n, share)
    if one_hop is None:
        return run_schedule(topology, schedule, rate, blocks)
    return run_distance_regulated(topology, one_hop, rate, blocks)


simulated = lru_cache(maxsize=None)(simulate)


def recorded_solves(monkeypatch, module):
    """Every instance later solved through ``module``'s solver name, with
    its round ids shifted to start at 0."""
    calls = []
    solve = module.multi_block_decodable_subset

    def recording(instance):
        base = min(instance.round_ids())
        calls.append(
            replace(
                instance,
                blocks=tuple(b - base for b in instance.blocks),
                carriers=tuple(
                    HelperCarrier(c.block - base, c.power, c.helps) for c in instance.carriers
                ),
                block_interference=tuple((b - base, p) for b, p in instance.block_interference),
            )
        )
        return solve(instance)

    monkeypatch.setattr(module, "multi_block_decodable_subset", recording)
    return calls


def decode_every_receiver(monkeypatch):
    """Leave a run only the identity symmetry, so every receiver decodes
    instead of relabeling its orbit representative's record."""

    def identity_only(powers, lags):
        return [tuple(range(len(powers)))]

    monkeypatch.setattr(protocol_sim, "_symmetries", identity_only)


@pytest.mark.parametrize("kind, n, share", CASES)
def test_counter_decode_matches_the_set_reference(monkeypatch, kind, n, share):
    topology, _, schedule, rate, blocks = build_case(kind, n, share)
    solves = recorded_solves(monkeypatch, protocol_sim)
    reference_solves = recorded_solves(monkeypatch, sys.modules[__name__])
    trace = simulate(kind, n, share)
    # Records do not depend on the member order: the trace is the id-order
    # reference's.
    transmissions, decodes, knowledge = reference_run(topology, schedule, rate, blocks)
    assert trace.transmissions == transmissions
    assert trace.decodes == decodes
    assert trace.knowledge == knowledge
    assert trace.completion_block == reference_completion(knowledge)
    # Both memoize per run on every instance field, so with the members of
    # every reference receiver listed in its orbit's order, where a receiver
    # other than its orbit's representative only hits the memo, they also
    # solve the same instances in the same order: a wrong sender role shows
    # here even where the verdicts happen to agree.
    reference_solves.clear()
    reference_run(topology, schedule, rate, blocks, orbit_orders(topology, schedule))
    assert solves == reference_solves
    # Relabeling off: every receiver decodes, into the same records.
    decode_every_receiver(monkeypatch)
    assert simulate(kind, n, share).to_dict() == trace.to_dict()


def reference_completion(knowledge):
    """Per node, the first block after which it knows every other node's
    first message, read from the knowledge snapshots."""
    n = len(knowledge[0])
    return tuple(
        next(
            (
                b
                for b, snapshot in enumerate(knowledge)
                if b and all((j, 1) in snapshot[i] for j in range(n) if j != i)
            ),
            None,
        )
        for i in range(n)
    )


def test_the_long_runs_reach_the_steady_state(monkeypatch):
    # The long cases below the bound stop decoding once the run repeats
    # itself (decoding stops before the last block), so the grid above
    # checks the shifted blocks too.
    decoded = []
    decode = protocol_sim._decode_closure

    def counting(rx, block, upto, run):
        decoded.append(block)
        return decode(rx, block, upto, run)

    monkeypatch.setattr(protocol_sim, "_decode_closure", counting)
    fast_forwarded = set()
    for kind, n, share in CASES:
        if kind.startswith("long-"):
            decoded.clear()
            trace = simulate(kind, n, share)
            if max(decoded) < trace.blocks:
                fast_forwarded.add((kind, share))
    below_the_bound = {
        (kind, share) for kind in ("long-ring", "long-line", "long-arc") for share in (0.5, 0.9)
    }
    assert below_the_bound <= fast_forwarded
    assert ("long-split", 0.3) in fast_forwarded
    assert not {share for _, share in fast_forwarded} & {1.3}


def test_runs_of_any_length_match_the_set_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        kind=st.sampled_from(("line", "ring", "arc")),
        n=st.integers(2, 7),
        gain=st.sampled_from(("pl:2", "pl:4", "exp:0.5")),
        share=st.floats(0.05, 1.5),
        blocks=st.integers(0, 36),
    )
    def check(kind, n, gain, share, blocks):
        hypothesis.assume(kind != "ring" or n >= 3)
        g = GainFunction.parse(gain)
        if kind == "line":
            topology, one_hop = regular_line(n, 1.0, g, 10.0, 1.0), path_one_hop(n)
        elif kind == "ring":
            topology, one_hop = ring(n, 1.0, g, 10.0, 1.0), ring_one_hop(n)
        else:
            topology, one_hop = arc(n, 1.0, 4.0, g, 10.0, 1.0), path_one_hop(n)
        schedule = distance_regulated_schedule(k_hop_neighbors(one_hop))
        rate = share * allcast_rate_bound(topology)
        trace = run_distance_regulated(topology, one_hop, rate, blocks)
        transmissions, decodes, knowledge = reference_run(topology, schedule, rate, blocks)
        assert trace.transmissions == transmissions
        assert trace.decodes == decodes
        assert trace.knowledge == knowledge
        assert trace.completion_block == reference_completion(knowledge)

    check()


@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
def test_relabeled_split_lines_match_decoding_every_receiver(monkeypatch, n):
    # Mirrored halves: each node has static interference from the half it
    # never schedules, and mirror receivers' id-order sums of it can differ
    # in the last bit.  The representative's sum stands for its orbit.
    topology, one_hop = regular_line(n, 1.0, GAIN, 10.0, 1.0), split_one_hop(n, n // 2)
    bound = allcast_rate_bound(topology)
    for share in (0.1, 0.3, 0.5, 0.9):
        trace = run_distance_regulated(topology, one_hop, share * bound, 2 * n + 6)
        with monkeypatch.context() as patch:
            decode_every_receiver(patch)
            other = run_distance_regulated(topology, one_hop, share * bound, 2 * n + 6)
        assert other.to_dict() == trace.to_dict()


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --preset regular-line --n 16 --power 10 --blocks 20",
        "simulate --topology circ20.txt --blocks 14",
    ],
)
def test_relabeled_cli_runs_match_decoding_every_receiver(monkeypatch, capsys, tmp_path, argv):
    # A 16-node line and a ring of 20 given as exactly circulant dist rows,
    # whose receivers all lie in one orbit.
    m = 20
    chords = [2.0 * (m / (2.0 * math.pi)) * math.sin(math.pi * min(k, m - k) / m) for k in range(m)]
    rows = [f"nodes {m}", "gain pl 2.0", "power 10.0", "noise 1.0"]
    rows += [f"dist {i + 1} {j + 1} {chords[j - i]!r}" for i in range(m) for j in range(i + 1, m)]
    (tmp_path / "circ20.txt").write_text("\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    traces = []
    run = cli.run_distance_regulated

    def keeping(*args):
        traces.append(run(*args))
        return traces[-1]

    monkeypatch.setattr(cli, "run_distance_regulated", keeping)
    assert cli.main(argv.split()) == 0
    decode_every_receiver(monkeypatch)
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert len(traces) == 2 and traces[1].to_dict() == traces[0].to_dict()


def test_knowledge_is_derived_on_first_read():
    kind, n, share = "ring", 5, 1.001
    topology, one_hop, schedule, rate, blocks = build_case(kind, n, share)
    trace = run_distance_regulated(topology, one_hop, rate, blocks)
    assert "knowledge" not in vars(trace)
    assert trace.knowledge == reference_run(topology, schedule, rate, blocks)[2]


def ragged_schedule(schedule, late_decode=(), late_encode=()):
    """``schedule``'s rows made ragged, keeping its symmetries: each decode
    row gets an empty lag 2, so its deeper sets come one lag later, and each
    encode row repeats all its node decodes at once, one lag past the
    node's last decode set.  The nodes in ``late_decode`` get a second empty
    lag 2 but repeat at the same lag, and those in ``late_encode`` repeat
    one lag later.  Node i of n pads its decode row with ``i % 3`` trailing
    empty sets and its encode row with ``(n - 1 - i) % 3``, so nodes that a
    symmetry maps onto each other differ in their trailing empty sets."""
    n = schedule.n
    decode, encode = [], []
    for i, row in enumerate(schedule.decode_sets):
        wait = [()] * (len(row) + 1 + (i in late_encode))
        row = list(row[:1]) + [()] * (1 + (i in late_decode)) + list(row[1:])
        decode.append(row + [()] * (i % 3))
        encode.append(wait + [set().union(*row)] + [()] * ((n - 1 - i) % 3))
    return Schedule(decode, encode)


def circulant_ring(n):
    """A ring of n given by exactly circulant chord distances."""
    chord = [2.0 * (n / (2.0 * math.pi)) * math.sin(math.pi * min(k, n - k) / n) for k in range(n)]
    return topology_from_distances(
        [[chord[(j - i) % n] for j in range(n)] for i in range(n)], GAIN, 10.0, 1.0
    )


def schedule_cases():
    """Every distinct schedule of the grid with its topology's powers, keyed
    by kind and n, and ragged hand-built rows on a regular line of 6 and a
    circulant ring of 8, also with node 0's deeper decode sets or its
    repeats one lag later than the others'."""
    cases = {}
    for kind, n, _ in CASES:
        key = (kind.removeprefix("long-"), n)
        if key not in cases:
            topology, _, schedule, _, _ = build_case(kind, n, 1.0)
            cases[key] = (build_power_matrix(topology), schedule)
    for kind, topology, one_hop in (
        ("line", regular_line(6, 1.0, GAIN, 10.0, 1.0), path_one_hop(6)),
        ("ring", circulant_ring(8), ring_one_hop(8)),
    ):
        regulated = distance_regulated_schedule(k_hop_neighbors(one_hop))
        for name, late in (
            ("ragged", ((), ())),
            ("late-decode", ((0,), ())),
            ("late-encode", ((), (0,))),
        ):
            schedule = ragged_schedule(regulated, *late)
            assert validate_schedule(schedule) == []
            cases[(f"{name}-{kind}", topology.n)] = (build_power_matrix(topology), schedule)
    return cases


def test_symmetries_match_the_row_mapping_reference():
    # The lag-matrix compare finds the maps the row mapping finds, in the
    # same order, on every grid schedule and on rows with empty interior
    # lags, trailing empty sets and encode rows longer than decode rows.
    found = {}
    for key, (powers, schedule) in schedule_cases().items():
        found[key] = protocol_sim._symmetries(powers, protocol_sim._lag_matrices(schedule))
        assert found[key] == reference_symmetries(powers, schedule), key
    # Ragged rows keep the ring's and the line's groups; delaying node 0's
    # decodes or its repeats leaves only the maps that fix node 0.
    assert len(found["ragged-ring", 8]) == 16
    assert found["ragged-line", 6] == [tuple(range(6)), tuple(range(6))[::-1]]
    for late in ("late-decode", "late-encode"):
        assert found[f"{late}-ring", 8] == [tuple(range(8)), tuple(-j % 8 for j in range(8))]
        assert found[f"{late}-line", 6] == [tuple(range(6))]
    assert len(found["ring", 4]) == 8 and len(found["mirrored-late", 6]) == 2


def test_floors_match_the_encode_row_reference():
    # Each receiver's decode lags and floor, read off the lag matrices, are
    # those of its schedule's rows; the foreign, late-foreign and partial
    # schedules give some receivers a floor above 0.
    positive = set()
    for (kind, n), (powers, schedule) in schedule_cases().items():
        lags = protocol_sim._lag_matrices(schedule)
        for node in range(n):
            rx = protocol_sim._Receiver(node, lags, powers)
            assert rx.lag == schedule.decode_lag(node)
            assert rx.sources == tuple(sorted(rx.lag))
            assert rx.floor == reference_floor(node, schedule), (kind, n, node)
            if rx.floor:
                positive.add(kind)
    assert positive == {"foreign", "late-foreign", "partial"}


def test_the_reference_grid_covers_failures_and_successes():
    outcomes = {(share, simulated(kind, n, share).all_success()) for kind, n, share in CASES}
    assert {(0.9, True), (1.3, False)} <= outcomes


def test_the_reference_grid_covers_every_sender_role(monkeypatch):
    # Pool members whose bundle repeats a message the receiver cannot place
    # (usable False), pure relays of pool members (carriers, several in one
    # pool on the 6-node late schedule) and round noise occur only under the
    # hand-built schedules; no distance-regulated case of the grid reaches
    # them.  Skipped repeats occur on failing runs, and under the partial
    # schedule a decode reads a bundle that skipped one repeat and carries
    # another.
    seen = set()
    partial_reads = set()
    solve = protocol_sim.multi_block_decodable_subset
    read = protocol_sim._read_bundle

    def recording(instance):
        if not all(instance.usable):
            seen.add("unusable")
        if instance.carriers:
            seen.add("carrier")
        if len(instance.carriers) > 1:
            seen.add("carriers")
        if instance.block_interference:
            seen.add("round noise")
        return solve(instance)

    def reading(tx, done, node):
        if tx.skipped and len(tx.bundle) > 1:
            partial_reads.add((tx.sender, tx.block, node))
        return read(tx, done, node)

    monkeypatch.setattr(protocol_sim, "multi_block_decodable_subset", recording)
    monkeypatch.setattr(protocol_sim, "_read_bundle", reading)
    for kind, n in (("late", 5), ("late", 6), ("foreign", 5), ("partial", 4)):
        topology, _, schedule, rate, blocks = build_case(kind, n, 0.3)
        run_schedule(topology, schedule, rate, blocks)
    assert seen == {"unusable", "carrier", "carriers", "round noise"}
    # Node 2 reads node 1's bundle of block 3, which skipped (2, 2) but
    # repeats (0, 1).
    assert (1, 3, 2) in partial_reads
    partial = simulated("partial", 4, 0.3).transmissions[2][1]
    assert partial.skipped == ((2, 2),) and (0, 1) in partial.bundle
    assert any(
        tx.skipped
        for kind, n, share in CASES
        for row in simulated(kind, n, share).transmissions
        for tx in row
    )
    # Foreign content: a scheduled sender's bundle holds a source that the
    # receiver never schedules.
    trace = simulated("foreign", 5, 0.3)
    assert any(
        sender in trace.schedule.decode_lag(i) and j != i and j not in trace.schedule.decode_lag(i)
        for row in trace.transmissions
        for sender, tx in enumerate(row)
        for i in range(5)
        for j, _ in tx.bundle
    )
    topology, _, schedule, _, _ = build_case("split", 7, 0.3)
    power = build_power_matrix(topology)
    statics = {
        reduce(
            operator.add,
            (float(power[j, i]) for j in range(7) if j != i and j not in schedule.decode_lag(i)),
            0,
        )
        for i in range(7)
    }
    assert len(statics) == 7


@pytest.mark.parametrize("kind, n, share", CASES)
def test_knowledge_is_a_prefix_of_each_scheduled_source(kind, n, share):
    trace = simulated(kind, n, share)
    for snapshot in trace.knowledge:
        for i, known in enumerate(snapshot):
            scheduled = trace.schedule.decode_lag(i)
            last: dict[int, int] = {}
            for j, beta in known:
                assert j in scheduled
                last[j] = max(last.get(j, 0), beta)
            assert known == {(j, beta) for j, top in last.items() for beta in range(1, top + 1)}
