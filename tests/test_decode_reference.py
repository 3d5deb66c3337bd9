"""The counter-based decode against the set-based decode it replaced.

``reference_decode_closure`` and ``reference_build_transmission`` are the
simulator's joint decode and relay bundling from when a receiver's knowledge
was a plain set of messages that every decode scanned from block 1.
``reference_run`` drives them with ``run_schedule``'s block loop over such
sets and stores a knowledge snapshot per block.  The simulator now keeps one
counter per scheduled source instead and derives its snapshots from the
decode records; these tests check that both give the same transmissions,
decode records and knowledge snapshots, and that the invariant the counters
rest on holds: a receiver's knowledge of each source is a prefix of its
blocks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Sequence

import pytest

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
)
from omnirelay.rate_analysis import allcast_rate_bound
from omnirelay.topology import (
    PowerMatrix,
    Schedule,
    arc,
    build_power_matrix,
    distance_regulated_schedule,
    k_hop_neighbors,
    power_law,
    regular_line,
    ring,
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
    powers: PowerMatrix,
    rate: float,
    noise: float,
    solved: dict[tuple, MultiBlockResult],
) -> DecodeRecord:
    """Joint decode at ``node`` after block ``block``.

    ``solved`` memoizes region solves for the current run.  A solve depends
    on round ids only through their differences, so its key holds them
    shifted to start at 0, and the same pool a block later is a hit.
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
                unknown = {m for m in tx.bundle if m not in work and m[0] != node}
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

        member_powers = tuple(powers.pair(j, node) for j in members)
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


def reference_run(topology, one_hop, rate, blocks):
    """``run_schedule``'s block loop over plain knowledge sets."""
    n = topology.n
    schedule = distance_regulated_schedule(k_hop_neighbors(one_hop))
    powers = build_power_matrix(topology)
    lag = [schedule.decode_lag(i) for i in range(n)]
    static = [
        sum(powers.pair(j, i) for j in range(n) if j != i and j not in lag[i])
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
                i, b, know[i], tx_rows, lag[i], static[i], powers, rate, topology.noise, solved
            )
            records.append(rec)
            updated.append(know[i] | set(rec.targets) if rec.success else set(know[i]))
        know = updated
        decode_rows.append(tuple(records))
        snapshots.append(tuple(frozenset(s) for s in know))
    return tuple(tx_rows), tuple(decode_rows), tuple(snapshots)


def path_one_hop(n):
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


def ring_one_hop(n):
    return [frozenset({(i - 1) % n, (i + 1) % n}) for i in range(n)]


GAIN = power_law(2.0)
SHARES = (0.9, 1.001, 1.3)
CASES = (
    [("line", n, share) for n in range(2, 9) for share in SHARES]
    + [("ring", n, share) for n in range(3, 8) for share in SHARES]
    + [("arc", 6, share) for share in SHARES]
)


def build_case(kind, n, share):
    if kind == "line":
        topology, one_hop = regular_line(n, 1.0, GAIN, 10.0, 1.0), path_one_hop(n)
    elif kind == "ring":
        topology, one_hop = ring(n, 1.0, GAIN, 10.0, 1.0), ring_one_hop(n)
    else:
        topology, one_hop = arc(n, 1.0, 4.0, GAIN, 10.0, 1.0), path_one_hop(n)
    # Long enough for every lag to come due and, past the bound, for the
    # failed decodes' windows to grow well beyond one block.
    return topology, one_hop, share * allcast_rate_bound(topology), 2 * n + 6


@lru_cache(maxsize=None)
def simulated(kind, n, share):
    return run_distance_regulated(*build_case(kind, n, share))


@pytest.mark.parametrize("kind, n, share", CASES)
def test_counter_decode_matches_the_set_reference(kind, n, share):
    topology, one_hop, rate, blocks = build_case(kind, n, share)
    trace = simulated(kind, n, share)
    transmissions, decodes, knowledge = reference_run(topology, one_hop, rate, blocks)
    assert trace.transmissions == transmissions
    assert trace.decodes == decodes
    assert trace.knowledge == knowledge


def test_knowledge_is_derived_on_first_read():
    kind, n, share = "ring", 5, 1.001
    topology, one_hop, rate, blocks = build_case(kind, n, share)
    trace = run_distance_regulated(topology, one_hop, rate, blocks)
    assert "knowledge" not in vars(trace)
    assert trace.knowledge == reference_run(topology, one_hop, rate, blocks)[2]


def test_the_reference_grid_covers_failures_and_successes():
    outcomes = {(share, simulated(kind, n, share).all_success()) for kind, n, share in CASES}
    assert {(0.9, True), (1.3, False)} <= outcomes


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
