"""Block-by-block protocol runs: traces, decode records and payload replay."""

import json
import math
import random
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from omnirelay import cli, protocol_sim
from omnirelay.binning import build_binning, decode_from_side_info
from omnirelay.errors import PreconditionError
from omnirelay.protocol_sim import (
    PayloadReport,
    check_payload_sizes,
    interference_accounting,
    payload_demo,
    run_distance_regulated,
    run_schedule,
)
from omnirelay.rate_analysis import allcast_rate_bound
from omnirelay.topology import (
    Schedule,
    arc,
    build_power_matrix,
    distance_regulated_schedule,
    general_line,
    k_hop_neighbors,
    parse_topology_text,
    power_law,
    regular_line,
    ring,
    topology_from_distances,
)
from test_decode_reference import CASES, simulated


def adjacency(n):
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


def line(n, power=10.0, spacing=1.0):
    return regular_line(n, spacing, power_law(2.0), power, 1.0)


# ---------------------------------------------------------------------------
# completion anchors
# ---------------------------------------------------------------------------


def test_two_node_exchange_completes_immediately():
    t = line(2)
    rate = 0.999 * allcast_rate_bound(t)
    trace = run_distance_regulated(t, adjacency(2), rate, 4)
    assert trace.all_success()
    assert trace.completion_block == (1, 1)
    assert trace.first_failure() is None


def test_three_node_line_near_the_ceiling():
    t = line(3)
    bound = allcast_rate_bound(t)
    trace = run_distance_regulated(t, adjacency(3), 0.999 * bound, 6)
    assert trace.all_success()
    assert trace.completion_block == (2, 1, 2)


def test_three_node_line_past_the_ceiling():
    t = line(3)
    bound = allcast_rate_bound(t)
    trace = run_distance_regulated(t, adjacency(3), 1.001 * bound, 6)
    assert not trace.all_success()
    failure = trace.first_failure()
    # An endpoint's two-message joint decode is the first to break, and the
    # plain sum-rate diagnostic already flags it.
    assert (failure.node, failure.block) == (0, 2)
    assert not failure.sum_rate_ok
    assert failure.missing == ((1, 2), (2, 1))
    # The middle node only needs lag-1 messages and still finishes.
    assert trace.completion_block == (None, 1, None)


def test_ring_finishes_in_two_blocks():
    t = ring(5, 1.0, power_law(2.0), 10.0, 1.0)
    one_hop = [frozenset({(i - 1) % 5, (i + 1) % 5}) for i in range(5)]
    rate = 0.999 * allcast_rate_bound(t)
    trace = run_distance_regulated(t, one_hop, rate, 6)
    assert trace.all_success()
    assert trace.completion_block == (2, 2, 2, 2, 2)


def test_zero_rate_completion_equals_the_hop_horizon():
    trace = run_distance_regulated(line(5, power=1.0), adjacency(5), 0.0, 8)
    assert trace.all_success()
    assert trace.completion_block == (4, 3, 2, 3, 4)


def test_completion_requires_enough_blocks():
    trace = run_distance_regulated(line(5, power=1.0), adjacency(5), 0.0, 2)
    assert trace.completion_block == (None, None, 2, None, None)


# ---------------------------------------------------------------------------
# trace structure
# ---------------------------------------------------------------------------


def run_small():
    t = line(4)
    rate = 0.8 * allcast_rate_bound(t)
    return run_distance_regulated(t, adjacency(4), rate, 6)


def test_knowledge_grows_monotonically():
    trace = run_small()
    for b in range(trace.blocks):
        for i in range(4):
            assert trace.knowledge[b][i] <= trace.knowledge[b + 1][i]


def test_nothing_known_from_the_future():
    trace = run_small()
    for b in range(trace.blocks + 1):
        for i in range(4):
            assert all(beta <= b for _, beta in trace.knowledge[b][i])
    for row in trace.transmissions:
        for tx in row:
            assert all(beta <= tx.block for _, beta in tx.bundle)


def test_bundles_carry_fresh_plus_known_repeats():
    trace = run_small()
    sched = trace.schedule
    for row in trace.transmissions:
        for tx in row:
            i, b = tx.sender, tx.block
            assert (i, b) in tx.bundle
            expected = {(i, b)}
            know = trace.knowledge[b - 1][i]
            for k, members in enumerate(sched.encode_sets[i], start=1):
                # Lag-k decodes finish at block beta + k - 1, so the block
                # b repeat of that set covers beta = b - k.
                for j in members:
                    beta = b - k
                    if beta >= 1 and (j, beta) in know:
                        expected.add((j, beta))
            assert tx.bundle == frozenset(expected)
            assert not tx.skipped  # every repeat was decoded in time here


def test_skipped_repeats_are_reported():
    t = line(3)
    bound = allcast_rate_bound(t)
    trace = run_distance_regulated(t, adjacency(3), 1.001 * bound, 4)
    # Node 0 never decodes (2, 1), so its lag-2 repeat of source 2 is dropped.
    skipped = [tx.skipped for row in trace.transmissions for tx in row if tx.sender == 0]
    assert any((2, 1) in s for s in skipped)


def test_decode_targets_follow_the_lag_table():
    trace = run_small()
    for row in trace.decodes:
        for rec in row:
            lag = trace.schedule.decode_lag(rec.node)
            expected = sorted(
                (j, rec.block - k + 1) for j, k in lag.items() if rec.block - k + 1 >= 1
            )
            assert sorted(rec.targets) == expected


def test_success_commits_targets_only():
    # At a generous rate an endpoint decodes the far message a block early;
    # the record shows the extra while the knowledge state waits for the lag.
    t = line(3)
    trace = run_distance_regulated(t, adjacency(3), 0.3, 3)
    first = trace.decodes[0][0]
    assert first.targets == ((1, 1),)
    assert (2, 1) in first.decoded
    assert trace.knowledge[1][0] == frozenset({(1, 1)})
    second = trace.decodes[1][0]
    assert (2, 1) in second.targets
    assert trace.knowledge[2][0] >= {(1, 1), (1, 2), (2, 1)}


def test_failed_decode_leaves_knowledge_unchanged():
    t = line(3)
    bound = allcast_rate_bound(t)
    trace = run_distance_regulated(t, adjacency(3), 1.001 * bound, 4)
    for row in trace.decodes:
        for rec in row:
            if not rec.success:
                assert trace.knowledge[rec.block][rec.node] == trace.knowledge[rec.block - 1][rec.node]
                assert set(rec.missing) <= set(rec.targets)
                assert set(rec.decoded).isdisjoint(rec.missing)


def test_records_cover_every_node_and_block():
    trace = run_small()
    assert len(trace.transmissions) == trace.blocks
    assert len(trace.decodes) == trace.blocks
    assert len(trace.knowledge) == trace.blocks + 1
    for b, (txs, recs) in enumerate(zip(trace.transmissions, trace.decodes), start=1):
        assert [tx.sender for tx in txs] == list(range(4))
        assert [tx.block for tx in txs] == [b] * 4
        assert [rec.node for rec in recs] == list(range(4))


def test_trace_dict_is_json_stable():
    a = json.dumps(run_small().to_dict(), sort_keys=True)
    b = json.dumps(run_small().to_dict(), sort_keys=True)
    assert a == b
    payload = json.loads(a)
    assert payload["all_success"] is True
    assert payload["nodes"] == 4


def test_an_instance_is_built_only_on_a_memo_miss(monkeypatch):
    # No timing: the ring-long benchmark shape without the CLI.  The decodes
    # look the solve memo up about 5,000 times; a region instance is built
    # and validated only for a key the memo does not hold yet, so the
    # instances built, the solver calls and the distinct instances (the
    # memo's keys) are one and the same count.
    from omnirelay import protocol_sim

    built, solved = [], []
    build = protocol_sim.MultiBlockInstance
    solve = protocol_sim.multi_block_decodable_subset

    def building(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def solving(instance):
        solved.append(instance)
        return solve(instance)

    monkeypatch.setattr(protocol_sim, "MultiBlockInstance", building)
    monkeypatch.setattr(protocol_sim, "multi_block_decodable_subset", solving)
    t = ring(6, 1.0, power_law(2.0), 10.0, 1.0)
    one_hop = [frozenset({(i - 1) % 6, (i + 1) % 6}) for i in range(6)]
    trace = run_distance_regulated(t, one_hop, 0.999 * allcast_rate_bound(t), 300)

    assert trace.all_success()
    assert 0 < len(built) == len(solved) == len(set(solved))
    assert [id(inst) for inst in built] == [id(inst) for inst in solved]


def decoded_blocks(monkeypatch):
    """The block of every later joint decode, in call order."""
    from omnirelay import protocol_sim

    blocks = []
    decode = protocol_sim._decode_closure

    def counting(rx, block, upto, run):
        blocks.append(block)
        return decode(rx, block, upto, run)

    monkeypatch.setattr(protocol_sim, "_decode_closure", counting)
    return blocks


def test_a_periodic_run_stops_decoding_at_its_steady_state(monkeypatch):
    # No timing: the ring-long benchmark shape without the CLI.  Once the
    # relay pipelines are full, every block is the previous one with each
    # message index moved up by one, so the run decodes a few blocks and
    # shifts the rest instead of making 1,800 decodes.
    decoded = decoded_blocks(monkeypatch)
    t = ring(6, 1.0, power_law(2.0), 10.0, 1.0)
    one_hop = [frozenset({(i - 1) % 6, (i + 1) % 6}) for i in range(6)]
    trace = run_distance_regulated(t, one_hop, 0.999 * allcast_rate_bound(t), 300)

    assert trace.all_success()
    assert len(trace.transmissions) == len(trace.decodes) == 300
    last = decoded[-1]
    assert decoded == [b for b in range(1, last + 1) for _ in range(6)]
    assert last <= 8
    assert trace.completion_block == (3,) * 6
    # The shifted blocks hold what decoding them would have given.
    tx = trace.transmissions[-1][0]
    assert (tx.block, sorted(tx.bundle), tx.skipped) == (
        300, [(0, 300), (1, 299), (2, 298), (3, 297), (4, 298), (5, 299)], ()
    )
    rec = trace.decodes[-1][0]
    assert (rec.block, rec.targets, rec.missing, rec.success) == (
        300, ((1, 300), (2, 299), (3, 298), (4, 299), (5, 300)), (), True
    )
    assert rec.decoded == (
        (1, 300), (2, 299), (2, 300), (3, 298), (3, 299), (3, 300), (4, 299), (4, 300), (5, 300)
    )


def test_runs_that_never_repeat_decode_every_block(monkeypatch):
    # Past the bound a failed decode's window keeps growing and senders skip
    # the repeats they never decoded, so no block is a shift of the last.
    # Only the 4 orbit representatives of the mirrored line decode.
    decoded = decoded_blocks(monkeypatch)
    t = line(7)
    trace = run_distance_regulated(t, adjacency(7), 1.2 * allcast_rate_bound(t), 30)

    assert not trace.all_success()
    assert any(tx.skipped for tx in trace.transmissions[-1])
    assert decoded == [b for b in range(1, 31) for _ in range(4)]


def periodic_run(name):
    """A run of the periodic-trace property: its topology, one-hop sets,
    rate share and block count."""
    if name == "circulant-ring-20":
        circulant, hops = parse_topology_text(dist_file(chord_rows(20), ring_adjacency(20)))
        return circulant, hops, 0.999, 24
    return {
        "ring-6": (ring(6, 1.0, power_law(2.0), 10.0, 1.0), ring_adjacency(6), 0.999, 300),
        "line-12": (line(12), adjacency(12), 0.999, 16),
        "line-16": (line(16), adjacency(16), 0.999, 20),
        "line-7-over-bound": (line(7), adjacency(7), 1.2, 30),
    }[name]


@pytest.mark.parametrize(
    "name", ["ring-6", "line-12", "line-16", "circulant-ring-20", "line-7-over-bound"]
)
def test_a_periodic_trace_equals_a_run_that_decodes_every_block(monkeypatch, name):
    # The trace holds the rows through its steady block plus a count of
    # shifted rows; a run whose steady test always fails decodes and holds
    # every row.  Both must read the same through every sequence operation.
    topology, one_hop, share, blocks = periodic_run(name)
    rate = share * allcast_rate_bound(topology)
    trace = run_distance_regulated(topology, one_hop, rate, blocks)
    monkeypatch.setattr(protocol_sim, "_is_steady", lambda *args: False)
    full = run_distance_regulated(topology, one_hop, rate, blocks)

    assert full.decodes.shifts == full.transmissions.shifts == 0
    shifted = trace.decodes.shifts
    assert trace.transmissions.shifts == shifted
    assert (shifted > 0) == (name != "line-7-over-bound")
    assert len(trace.decodes.prefix) == blocks - shifted
    # Schedules compare by identity, and each run builds its own.
    assert trace == replace(full, schedule=trace.schedule)
    assert trace.to_dict() == full.to_dict()
    rng = random.Random(name)
    for mine, theirs in ((trace.transmissions, full.transmissions),
                         (trace.decodes, full.decodes)):
        reference = tuple(theirs)
        assert len(mine) == len(reference) == blocks
        assert mine == reference and reference == mine and mine == theirs
        assert not mine != reference
        assert tuple(mine) == reference and list(reversed(mine)) == list(reference[::-1])
        for b in range(-blocks, blocks):
            assert mine[b] == reference[b]
        for b in (-blocks - 1, blocks):
            with pytest.raises(IndexError):
                mine[b]
        for _ in range(200):
            cut = slice(*(rng.choice([None, rng.randint(-blocks - 2, blocks + 2)]) for _ in "ab"),
                        rng.choice([None, 1, 2, 7, -1, -3]))
            part = mine[cut]
            assert type(part) is tuple and part == reference[cut]
        assert hash(mine) == hash(reference)
        assert mine != reference[:-1] and mine != list(reference)
    # A tuple of rows given back is held with no shifted rows and reads equal.
    for field in ("decodes", "transmissions"):
        copied = replace(trace, **{field: tuple(getattr(trace, field))})
        assert copied == trace and getattr(copied, field).shifts == 0
    assert trace.all_success() == full.all_success() == (share < 1)
    assert trace.first_failure() == full.first_failure()
    assert (trace.first_failure() is None) == (share < 1)
    assert trace.knowledge == full.knowledge
    sizes = [2 + i % 3 for i in range(topology.n)]
    assert payload_demo(trace, sizes, seed=3) == payload_demo(full, sizes, seed=3)


def test_the_cli_prints_a_periodic_run_as_a_run_that_decodes_every_block(monkeypatch, capsys):
    # The CSV rows stream from the shifted rows, and the JSON writer and
    # the payload replay read the steady row: the bytes must be those of a
    # run that decodes and holds every row.
    argv = "simulate --preset ring --n 6 --power 10 --blocks 300".split()
    printed = []
    for steady in (True, False):
        if not steady:
            monkeypatch.setattr(protocol_sim, "_is_steady", lambda *args: False)
        for extra in (["--format", "csv"], ["--payload-sizes", "4,2,3,4,2,3"]):
            assert cli.main(argv + extra) == 0
            printed.append(capsys.readouterr().out)
    assert printed[:2] == printed[2:]
    assert printed[0].count("\n") == 1 + 6 * 300


def test_the_steady_state_waits_for_each_decode_window():
    # Counters before and after one block for two receivers; receiver 0's
    # decode window of the block started at block 3, receiver 1's at 4.
    from omnirelay.protocol_sim import _is_steady

    before, after = [(3, 2), (3, 3)], [(4, 3), (4, 4)]
    assert _is_steady(before, after, [0, 0], 0)
    assert _is_steady(before, after, [0, 0], 2)
    assert _is_steady(before, after, [3, 4], 0)
    # A counter that did not move up by exactly one.
    assert not _is_steady(before, [(4, 3), (4, 3)], [0, 0], 0)
    # A skipped repeat inside a window is still to be read from its bundle.
    assert not _is_steady(before, after, [0, 0], 3)
    # Foreign content from block 4 on covers only part of receiver 0's window.
    assert not _is_steady(before, after, [4, 0], 0)


# ---------------------------------------------------------------------------
# interference accounting
# ---------------------------------------------------------------------------


def test_full_schedules_leave_no_interference():
    trace = run_small()
    for report in interference_accounting(trace):
        assert report.undecoded == ()
        assert report.power == 0.0


def test_truncated_decode_sets_show_up_as_interference():
    t = line(4)
    rows = [[{1}], [{0, 2}], [{1, 3}], [{2}]]
    schedule = Schedule.from_rows(rows, rows)
    trace = run_schedule(t, schedule, 0.05, 4)
    reports = interference_accounting(trace)
    assert reports[0].undecoded == (2, 3)
    assert reports[0].power == pytest.approx(2.5 + 10.0 / 9.0)
    assert reports[1].undecoded == (3,)
    assert reports[2].undecoded == (0,)


def test_unreached_nodes_produce_warnings():
    t = line(4)
    split = [frozenset({1}), frozenset({0}), frozenset({3}), frozenset({2})]
    trace = run_distance_regulated(t, split, 0.1, 3)
    assert trace.warnings == (
        "node 0 never reaches nodes [2, 3]",
        "node 1 never reaches nodes [2, 3]",
        "node 2 never reaches nodes [0, 1]",
        "node 3 never reaches nodes [0, 1]",
    )
    assert trace.completion_block == (None,) * 4


# ---------------------------------------------------------------------------
# payload replay
# ---------------------------------------------------------------------------


def test_payload_replay_recovers_everything_on_success():
    t = line(3)
    rate = 0.999 * allcast_rate_bound(t)
    trace = run_distance_regulated(t, adjacency(3), rate, 6)
    for report in payload_demo(trace, (4, 4, 4), seed=5):
        assert report.complete
        assert report.recovered == report.known
        assert report.mismatches == ()


def test_payload_counts_track_the_trace():
    trace = run_distance_regulated(line(2), adjacency(2), 0.5, 3)
    reports = payload_demo(trace, (2, 2), seed=1)
    # Each node learns the peer's message in all three blocks.
    assert [r.known for r in reports] == [3, 3]
    assert all(r.complete for r in reports)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_payload_replay_seed_stability(seed):
    trace = run_distance_regulated(line(3), adjacency(3), 0.2, 4)
    assert payload_demo(trace, (3, 4, 5), seed=seed) == payload_demo(
        trace, (3, 4, 5), seed=seed
    )


def test_payload_demo_empty_and_invalid():
    trace = run_distance_regulated(line(3), adjacency(3), 0.1, 0)
    assert payload_demo(trace, (2, 2, 2)) == ()
    live = run_distance_regulated(line(3), adjacency(3), 0.1, 2)
    with pytest.raises(PreconditionError):
        payload_demo(live, (2, 2))
    with pytest.raises(PreconditionError):
        payload_demo(live, (2, 0, 2))


@pytest.mark.parametrize(
    "sizes", [(2.7, 2, 2), (True, 2, 2), ("3", 2, 2), (2, math.inf, 2), (2, 2, math.nan)]
)
def test_payload_sizes_must_be_integer_values(sizes):
    with pytest.raises(PreconditionError, match="alphabet size .* is not an integer"):
        check_payload_sizes(sizes, 3)


def test_integer_valued_payload_sizes_are_taken_as_ints():
    sizes = check_payload_sizes((np.int64(2), 3.0, np.float64(4.0)), 3)
    assert sizes == (2, 3, 4)
    assert all(type(s) is int for s in sizes)


def ring6_trace(share, blocks):
    topology = ring(6, 1.0, power_law(2.0), 10.0, 1.0)
    one_hop = [frozenset({(i - 1) % 6, (i + 1) % 6}) for i in range(6)]
    return run_distance_regulated(topology, one_hop, share * allcast_rate_bound(topology), blocks)


def test_a_replay_decodes_each_block_and_size_tuple_in_one_call(monkeypatch):
    trace = ring6_trace(0.999, 40)
    assert trace.all_success()
    sizes = (2, 3, 4, 5, 2, 3)
    calls = []

    def spy(assignment, bin_index, known, target):
        calls.append((assignment.sizes, len(bin_index)))
        return decode_from_side_info(assignment, bin_index, known, target)

    monkeypatch.setattr(protocol_sim, "decode_from_side_info", spy)
    reports = payload_demo(trace, sizes, seed=2)
    assert all(r.complete and not r.mismatches for r in reports)
    known = [set() for _ in range(6)]
    for rec in (rec for row in trace.decodes for rec in row if rec.success):
        known[rec.node].update(rec.targets)
    # A bundle's size tuple: its fresh message's alphabet, then its repeats'
    # in increasing order.  Every node holds the true values, so each
    # bundle whose fresh message some other node knows is recovered.
    groups = {
        (tx.block, (sizes[tx.sender], *sorted(sizes[src] for src, _ in tx.repeats)))
        for row in trace.transmissions for tx in row
        if any((tx.sender, tx.block) in known[i] for i in range(6) if i != tx.sender)
    }
    # One call per block and size tuple with a recovery, one row per recovery.
    assert sorted(slot_sizes for slot_sizes, _ in calls) == sorted(t for _, t in groups)
    assert sum(rows for _, rows in calls) == sum(r.recovered for r in reports)
    assert len(calls) < sum(map(len, trace.transmissions))


def reference_replay(trace, sizes, seed, decode=decode_from_side_info):
    """The multi-pass replay: every node sweeps all bundles in block order
    until a sweep recovers no value, decoding any bundle it fully knows that
    has one slot left without a value."""
    n = trace.topology.n
    rng = random.Random(seed)
    truth = {(j, beta): rng.randrange(sizes[j])
             for beta in range(1, trace.blocks + 1) for j in range(n)}
    reports = []
    for i in range(n):
        known = {m for row in trace.decodes for rec in row
                 if rec.node == i and rec.success for m in rec.targets}
        values = {m: v for m, v in truth.items() if m[0] == i}
        placeable = known | set(values)
        mismatches = []
        changed = True
        while changed:
            changed = False
            for tx in (tx for row in trace.transmissions for tx in row):
                if tx.sender == i or not tx.bundle <= placeable:
                    continue
                slots = sorted(tx.bundle)
                unknown = [idx for idx, m in enumerate(slots) if m not in values]
                if len(unknown) != 1:
                    continue
                (target,) = unknown
                assignment = build_binning(sizes[src] for src, _ in slots)
                bin_index = assignment.bin_of([truth[m] for m in slots])
                side = {idx: values[m] for idx, m in enumerate(slots) if idx != target}
                msg = slots[target]
                values[msg] = decode(assignment, bin_index, side, target)
                if values[msg] != truth[msg]:
                    mismatches.append(msg)
                changed = True
        recovered = len(known & set(values))
        reports.append(
            PayloadReport(i, recovered, len(known), recovered == len(known), tuple(sorted(mismatches)))
        )
    return tuple(reports)


def partial_schedule():
    """The decode-reference grid's hand-built 4-node schedule: node 2
    relays node 3, which node 1 never schedules, so node 1's decodes fail
    from block 2 on and its bundle of block 3 skips ``(2, 2)``."""
    return Schedule.from_rows(
        [[{1}, {2}], [{0, 2}], [{1, 3}, (), {0}], [{2}]],
        [[()], [{2}, {0}], [{3}], [()]],
    )


def without_decode(trace, node, block):
    """``trace`` with the record of ``node`` at ``block`` turned into a
    failure, so the node knows later messages whose bundles repeat ones it
    never learnt."""
    row = tuple(
        replace(rec, success=False) if rec.node == node else rec
        for rec in trace.decodes[block - 1]
    )
    return replace(trace, decodes=trace.decodes[: block - 1] + (row,) + trace.decodes[block:])


@lru_cache(maxsize=None)
def failing_trace(kind):
    if kind == "ring-6-over-bound":
        t = ring(6, 1.0, power_law(2.0), 10.0, 1.0)
        one_hop = [frozenset({(i - 1) % 6, (i + 1) % 6}) for i in range(6)]
        return run_distance_regulated(t, one_hop, 1.02 * allcast_rate_bound(t), 40)
    if kind == "line-7-over-bound":
        return run_distance_regulated(line(7), adjacency(7), 0.8, 14)
    if kind == "split-line":
        # The golden grid's split line: gaps 1,1,2,1,1,1 at hop radius 1.5.
        t = general_line([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0], power_law(2.0), 10.0, 1.0)
        one_hop = [{1}, {0, 2}, {1}, {4}, {3, 5}, {4, 6}, {5}]
        return run_distance_regulated(t, one_hop, 0.8, 14)
    if kind.startswith("partial-"):
        t = line(4)
        share = float(kind.removeprefix("partial-"))
        return run_schedule(t, partial_schedule(), share * allcast_rate_bound(t), 12)
    # A run that succeeds, with one of node 3's decodes taken away.
    return without_decode(run_distance_regulated(line(7), adjacency(7), 0.3, 14), 3, 2)


FAILING = ("ring-6-over-bound", "line-7-over-bound", "split-line", "partial-0.3",
           "partial-0.9", "line-7-lost-decode")


@pytest.mark.parametrize("kind", FAILING)
@pytest.mark.parametrize("sizes", ["2", "4", "mixed"])
def test_payload_replay_matches_the_multi_pass_reference(kind, sizes):
    trace = failing_trace(kind)
    assert not trace.all_success()
    n = trace.topology.n
    sizes = {"2": (2,) * n, "4": (4,) * n, "mixed": tuple(2 + j % 4 for j in range(n))}[sizes]
    for seed in (0, 3):
        assert payload_demo(trace, sizes, seed=seed) == reference_replay(trace, sizes, seed)


@pytest.mark.parametrize("kind, n, share", CASES)
def test_payload_replay_matches_the_reference_on_the_decode_grid(kind, n, share):
    trace = simulated(kind, n, share)
    sizes = tuple(2 + j % 4 for j in range(n))
    for seed in (0, 5):
        assert payload_demo(trace, sizes, seed=seed) == reference_replay(trace, sizes, seed)


@lru_cache(maxsize=None)
def long_ring():
    return ring6_trace(0.999, 300)


@pytest.mark.parametrize("lost", [None, (2, 250), (5, 290)])
def test_payload_replay_matches_the_reference_on_a_long_ring(lost):
    # Taking a late decode away leaves one node unable to recover the
    # messages it lost, and every later bundle that repeats them.
    trace = long_ring() if lost is None else without_decode(long_ring(), *lost)
    assert trace.all_success() == (lost is None)
    for sizes in ((4,) * 6, (2, 3, 4, 5, 2, 3)):
        for seed in (0, 1, 7):
            reports = payload_demo(trace, sizes, seed=seed)
            assert reports == reference_replay(trace, sizes, seed)
            assert all(r.complete for r in reports) == (lost is None)


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_payload_replay_in_small_chunks_matches_the_reference(monkeypatch, cells):
    # The side-value indices are built a chunk of steps at a time; with a
    # few cells per chunk every chunk holds one step, or a step and part of
    # the next.
    monkeypatch.setattr(protocol_sim, "_REPLAY_CELLS", cells)
    trace = without_decode(long_ring(), 2, 250)
    sizes = (2, 3, 4, 5, 2, 3)
    assert payload_demo(trace, sizes, seed=1) == reference_replay(trace, sizes, 1)


@pytest.mark.parametrize(
    "sizes", [(2**70,) * 4, (2**62,) * 4, (2**62, 3, 2**70, 5), (2**63 - 1, 2, 2, 2)]
)
def test_payload_replay_is_exact_beyond_int64(sizes):
    # Values whose sums do not fit int64 are replayed as Python ints.
    topology = ring(4, 1.0, power_law(2.0), 10.0, 1.0)
    one_hop = [frozenset({(i - 1) % 4, (i + 1) % 4}) for i in range(4)]
    for share in (0.999, 1.3):
        trace = run_distance_regulated(topology, one_hop, share * allcast_rate_bound(topology), 6)
        for seed in (0, 3):
            reports = payload_demo(trace, sizes, seed=seed)
            assert reports == reference_replay(trace, sizes, seed)
            assert all(r.complete for r in reports) or not trace.all_success()


def test_the_reference_runs_cover_bundles_that_recover_nothing():
    # Without a known repeat a bundle recovers nothing, and neither does any
    # later bundle that repeats its fresh message.
    reports = payload_demo(failing_trace("line-7-lost-decode"), (4,) * 7)
    lost = [r for r in reports if not r.complete]
    assert [r.node for r in lost] == [3]
    assert 0 < lost[0].recovered < lost[0].known


def test_wrong_decoded_values_are_reported_as_mismatches(monkeypatch):
    def off_by_one(assignment, bin_index, known, target):
        value = decode_from_side_info(assignment, bin_index, known, target)
        return (value + 1) % assignment.sizes[target]

    trace = failing_trace("line-7-over-bound")
    expected = reference_replay(trace, (4,) * 7, 1, decode=off_by_one)
    monkeypatch.setattr(protocol_sim, "decode_from_side_info", off_by_one)
    reports = payload_demo(trace, (4,) * 7, seed=1)
    assert reports == expected
    # A node's first recovery reads only its own messages, so it is off by
    # one and listed; later ones read wrong values too and may land right.
    assert all(r.mismatches for r in reports if r.recovered)
    assert sum(r.recovered for r in reports) > 0


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_run_schedule_rejects_bad_inputs():
    t = line(3)
    rows = [[{1}], [{0, 2}], [{1}]]
    schedule = Schedule.from_rows(rows, rows)
    with pytest.raises(ValueError):
        run_schedule(t, schedule, -0.1, 3)
    with pytest.raises(ValueError):
        run_schedule(t, schedule, 0.1, -1)
    with pytest.raises(PreconditionError):
        run_schedule(line(4), schedule, 0.1, 3)


def test_run_schedule_rejects_rule_violations():
    t = line(2)
    bad = Schedule.from_rows([[{0, 1}], [{0}]], [[set()], [set()]])
    with pytest.raises(PreconditionError, match="rule"):
        run_schedule(t, bad, 0.1, 2)


def test_one_hop_sets_must_match_the_topology():
    with pytest.raises(PreconditionError):
        run_distance_regulated(line(3), adjacency(4), 0.1, 2)


# ---------------------------------------------------------------------------
# symmetry orbits
# ---------------------------------------------------------------------------


def chord_rows(n):
    """A circulant ring's distances: the chord ``2R sin(pi k / n)`` of offset k."""
    radius = n / (2.0 * math.pi)
    chord = [2.0 * radius * math.sin(math.pi * min(k, n - k) / n) for k in range(n)]
    return [[chord[(j - i) % n] for j in range(n)] for i in range(n)]


def dist_file(d, one_hop, perm=None):
    """Topology file text of the distance rows ``d`` and one-hop sets, with
    node i written as ``perm[i]`` (0-based) when a permutation is given."""
    n = len(d)
    perm = perm or list(range(n))
    rows = [f"nodes {n}", "gain pl 2.0", "power 10.0", "noise 1.0"]
    rows += [f"dist {perm[i] + 1} {perm[j] + 1} {d[i][j]!r}" for i in range(n) for j in range(i)]
    moved = [None] * n
    for i in range(n):
        moved[perm[i]] = sorted(perm[j] + 1 for j in one_hop[i])
    rows += [f"hop {i + 1} " + " ".join(map(str, hops)) for i, hops in enumerate(moved)]
    return "\n".join(rows) + "\n"


def ring_adjacency(n):
    return [frozenset({(i - 1) % n, (i + 1) % n}) for i in range(n)]


def symmetries_of(topology, one_hop):
    schedule = distance_regulated_schedule(k_hop_neighbors(one_hop))
    return protocol_sim._symmetries(build_power_matrix(topology), schedule.lags)


def test_the_symmetry_finder():
    n = 9
    line_rows = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    circulant, _ = parse_topology_text(dist_file(chord_rows(n), ring_adjacency(n)))
    dihedral = {tuple((s * j + k) % n for j in range(n)) for s in (1, -1) for k in range(n)}
    assert len(dihedral) == 2 * n
    found = symmetries_of(circulant, ring_adjacency(n))
    assert found[0] == tuple(range(n)) and set(found) == dihedral and len(found) == 2 * n
    # A regular line: the identity and the reflection j -> n - 1 - j.
    regular = topology_from_distances(line_rows, power_law(2.0), 10.0, 1.0)
    assert symmetries_of(regular, adjacency(n)) == [tuple(range(n)), tuple(range(n))[::-1]]
    # The circulant ring's distances under a line's schedule: the schedule
    # leaves only the line's own reflection.
    assert symmetries_of(circulant, adjacency(n)) == [
        tuple(range(n)),
        tuple((n - 1 - j) % n for j in range(n)),
    ]
    # Asymmetric inputs: an uneven line, an arc, and a regular line whose
    # one-hop sets are not mirrored.
    identity = [tuple(range(6))]
    uneven = general_line([0.0, 0.5, 2.0, 3.0, 5.0, 5.8], power_law(2.0), 10.0, 1.0)
    assert symmetries_of(uneven, adjacency(6)) == identity
    assert symmetries_of(arc(6, 1.0, 4.0, power_law(2.0), 10.0, 1.0), adjacency(6)) == identity
    lopsided = [set(s) for s in adjacency(6)]
    lopsided[0].add(2)
    lopsided[2].add(0)
    assert symmetries_of(line(6), lopsided) == identity


def cli_solves(monkeypatch, capsys, argv):
    """The region solves of one ``simulate`` argv."""
    calls = []
    solve = protocol_sim.multi_block_decodable_subset

    def counting(instance):
        calls.append(instance)
        return solve(instance)

    monkeypatch.setattr(protocol_sim, "multi_block_decodable_subset", counting)
    assert cli.main(argv.split()) == 0
    monkeypatch.undo()
    capsys.readouterr()
    return len(calls)


def test_one_solve_per_symmetry_orbit(monkeypatch, capsys, tmp_path):
    # A regular line's mirror receivers share every solve, and so do all the
    # receivers of a ring whose distances are exactly circulant: 262 and 322
    # solves when every receiver listed its pool in id order.  The cos/sin
    # ring preset's chords differ in their last bits, so its 20 receivers
    # keep their own solves, as an uneven line's do.
    rate = 0.999 * allcast_rate_bound(line(12))
    line_solve = f"simulate --preset regular-line --n 12 --power 10.0 --rate {rate!r} --blocks 16"
    assert cli_solves(monkeypatch, capsys, line_solve + " --seed 1") == 131
    path = tmp_path / "circ20.txt"
    path.write_text(dist_file(chord_rows(20), ring_adjacency(20)))
    assert cli_solves(monkeypatch, capsys, f"simulate --topology {path} --blocks 24") == 18
    preset = "simulate --preset ring --n 20 --power 10 --blocks 24"
    assert cli_solves(monkeypatch, capsys, preset) == 360
    uneven = "simulate --preset line --spacings 0.5,1.5,1,2,0.8 --power 10 --blocks 10"
    assert cli_solves(monkeypatch, capsys, uneven) == 6


def test_one_decode_per_symmetry_orbit(monkeypatch, capsys, tmp_path):
    # Only orbit representatives decode; the others relabel their
    # representative's record.  The regular line of the line-solve benchmark
    # has 6 mirror orbits of 12 receivers, and every receiver of a ring
    # given as exactly circulant dist rows is in one orbit.  Both decode
    # every block up to the steady state (block 12 and 11) and shift the
    # rest: 72 and 11 closures, against 144 and 220 when every receiver
    # decoded.
    rate = 0.999 * allcast_rate_bound(line(12))
    line_solve = f"simulate --preset regular-line --n 12 --power 10.0 --rate {rate!r} --blocks 16"
    decoded = decoded_blocks(monkeypatch)
    assert cli.main((line_solve + " --seed 1").split()) == 0
    assert decoded == [b for b in range(1, 13) for _ in range(6)]
    path = tmp_path / "circ20.txt"
    path.write_text(dist_file(chord_rows(20), ring_adjacency(20)))
    decoded.clear()
    assert cli.main(f"simulate --topology {path} --blocks 24".split()) == 0
    assert decoded == list(range(1, 12))
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["line", "ring", "arc"])
@pytest.mark.parametrize("share", [0.9, 1.3])
def test_a_relabeled_topology_runs_the_relabeled_trace(kind, share):
    # The same dist rows, with node ids permuted: every decoded set, verdict
    # and completion block moves with its node.  The unpermuted line and
    # ring decode in their orbits' orders, and the permuted ones keep fewer
    # symmetries or none, so the two runs list their pools differently.
    n = {"line": 7, "ring": 8, "arc": 6}[kind]
    if kind == "line":
        d, one_hop = [[float(abs(i - j)) for j in range(n)] for i in range(n)], adjacency(n)
    elif kind == "ring":
        d, one_hop = chord_rows(n), ring_adjacency(n)
    else:
        d = arc(n, 1.0, 4.0, power_law(2.0), 10.0, 1.0).distances.tolist()
        one_hop = adjacency(n)
    perm = list(range(n))
    random.Random(f"{kind}-{share}").shuffle(perm)
    base, base_hop = parse_topology_text(dist_file(d, one_hop))
    moved, moved_hop = parse_topology_text(dist_file(d, one_hop, perm))
    if kind != "arc":
        assert len(symmetries_of(base, base_hop)) > len(symmetries_of(moved, moved_hop))
    rate = share * allcast_rate_bound(base)
    blocks = 2 * n + 6
    trace = run_distance_regulated(base, base_hop, rate, blocks)
    other = run_distance_regulated(moved, moved_hop, rate, blocks)

    def rename(messages):
        return {(perm[j], beta) for j, beta in messages}

    assert other.completion_block == tuple(
        trace.completion_block[perm.index(i)] for i in range(n)
    )
    for row, other_row in zip(trace.decodes, other.decodes):
        for rec in row:
            mate = other_row[perm[rec.node]]
            assert set(mate.decoded) == rename(rec.decoded)
            assert set(mate.targets) == rename(rec.targets)
            assert set(mate.missing) == rename(rec.missing)
            assert (mate.success, mate.sum_rate_ok) == (rec.success, rec.sum_rate_ok)
    for row, other_row in zip(trace.transmissions, other.transmissions):
        for tx in row:
            assert set(other_row[perm[tx.sender]].bundle) == rename(tx.bundle)
    assert trace.all_success() == (share < 1)
