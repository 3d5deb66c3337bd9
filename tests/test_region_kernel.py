"""The all-subsets margin kernel against the scalar evaluator, both against a
reference capacity that reads only the instance, the submodular search
against the kernel on both sides of the size switch, the tie-break,
round-shift invariance, properties of the peel's verdicts, the simulator's
per-run solve memo, and float totals that do not depend on the Python
version's ``sum()``."""

import builtins
import importlib
import math
import pkgutil
import random
from dataclasses import replace

import numpy as np
import pytest

import omnirelay
from omnirelay import cli, protocol_sim
from omnirelay.mac_region import (
    EPS_BITS,
    HelperCarrier,
    MultiBlockInstance,
    _MultiBlockEvaluator,
    multi_block_decodable_subset,
    multi_block_feasible,
)
from omnirelay.protocol_sim import run_distance_regulated
from omnirelay.topology import power_law, regular_line, ring


def adjacency(n, closed=False):
    if closed:
        return [frozenset({(i - 1) % n, (i + 1) % n}) for i in range(n)]
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


# Member counts past the kernel's 16 survivors, where worst_violator runs the
# submodular search.
WIDE = (17, 20)


def build_instance(rng, common_rate, members=(1, 8)):
    """Random instance with helps, carriers, unusable members and round noise.

    Rates reach 12 bits over the largest member count, so that wide
    instances are not all overloaded.
    """
    m = rng.randint(*members)
    rounds = rng.randint(1, 4)
    blocks = [rng.randint(1, rounds) for _ in range(m)]
    top = 12.0 / members[1]
    rate = rng.uniform(0.0, top)
    rates = [rate if common_rate else rng.uniform(0.0, top) for _ in range(m)]
    powers = [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(m)]
    helps = [
        frozenset(h for h in range(m) if blocks[h] < blocks[j] and rng.random() < 0.4)
        for j in range(m)
    ]
    carriers = []
    for _ in range(rng.randint(0, 3)):
        block = rng.randint(2, rounds + 1)
        targets = frozenset(h for h in range(m) if blocks[h] < block and rng.random() < 0.6)
        if targets:
            carriers.append(HelperCarrier(block, 10.0 ** rng.uniform(-1.0, 1.0), targets))
    return MultiBlockInstance(
        tuple(rates),
        tuple(powers),
        rng.uniform(0.5, 2.0),
        blocks=tuple(blocks),
        helps=tuple(helps),
        carriers=tuple(carriers),
        interference=rng.choice([0.0, rng.uniform(0.0, 1.0)]),
        block_interference=tuple(
            (b, rng.uniform(0.0, 2.0)) for b in range(1, rounds + 2) if rng.random() < 0.4
        ),
        usable=tuple(rng.random() < 0.8 for _ in range(m)),
    )


def evaluator_states(inst, rng):
    """A fresh evaluator and one after peeling a random subset with its closure."""
    yield _MultiBlockEvaluator(inst)
    ev = _MultiBlockEvaluator(inst)
    ev.remove_closure(rng.sample(range(inst.m), rng.randint(1, inst.m)))
    yield ev


def subset_of(members, mask):
    return frozenset(members[b] for b in range(len(members)) if mask >> b & 1)


def reference_rhs(inst, removed, subset):
    """Capacity sum available to ``subset`` once ``removed`` is peeled.

    Reads the instance fields only.  Members and carriers are walked as two
    kinds of transmission: a carrier whose ``helps`` meet ``removed`` is
    dead, and the removed usable members and the dead carriers are charged
    as their round's noise.
    """
    dead = {c for c, carrier in enumerate(inst.carriers) if carrier.helps & removed}
    block_noise = dict(inst.block_interference)
    cross = 0.0
    total = 0.0
    for k in inst.round_ids():
        members = [j for j in range(inst.m) if inst.blocks[j] == k]
        carriers = [c for c in range(len(inst.carriers)) if inst.carriers[c].block == k]
        d = inst.noise + inst.interference + block_noise.get(k, 0.0) + cross
        d += sum(inst.powers[j] for j in members if j in removed and inst.usable[j])
        d += sum(inst.carriers[c].power for c in carriers if c in dead)
        q = 0.0
        for j in members:
            if j in removed or not inst.usable[j]:
                continue
            if j in subset or inst.helps[j] & subset:
                q += inst.powers[j]
        for c in carriers:
            if c not in dead and inst.carriers[c].helps & subset:
                q += inst.carriers[c].power
        if q > 0.0:
            total += math.log2(1.0 + q / d)
        cross += sum(inst.powers[j] for j in members)
    return total


def scalar_worst_violator(ev):
    """The subset-at-a-time search: largest margin, lexicographic tie-break."""
    surv = sorted(ev.survivors())
    best = None
    for mask in range(1, 1 << len(surv)):
        subset = tuple(sorted(subset_of(surv, mask)))
        margin = ev.margin(frozenset(subset))
        if margin < -EPS_BITS:
            continue
        if best is None or margin > best[0] or (margin == best[0] and subset < best[1]):
            best = (margin, subset)
    return None if best is None else best[1]


def assert_solvers_agree(ev):
    """The submodular search returns the kernel's tuple on the survivors."""
    surv = sorted(ev.survivors())
    if surv:
        assert ev.min_norm_violator(surv) == ev.enumerated_violator(surv)


def assert_kernel_matches(ev, common_rate):
    for members in (sorted(ev.survivors()), list(range(ev.inst.m))):
        margins = ev.margins(members)
        assert margins.shape == (1 << len(members),)
        for mask in range(1 << len(members)):
            subset = subset_of(members, mask)
            reference = reference_rhs(ev.inst, ev.removed, subset)
            assert ev.rhs(subset) == pytest.approx(reference, rel=0.0, abs=1e-12)
            rates = sum(ev.inst.rates[j] for j in subset)
            assert margins[mask] == pytest.approx(rates - reference, rel=0.0, abs=1e-12)
            scalar = ev.margin(subset)
            if common_rate:
                # Equal rates sum the same in any order, and the capacity
                # side is bitwise equal to rhs, so the margins are too.
                assert margins[mask] == scalar
            else:
                assert margins[mask] == pytest.approx(scalar, rel=0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# kernel against the scalar evaluator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("common_rate", [False, True])
def test_margins_match_the_scalar_evaluator(common_rate):
    rng = random.Random(131 + common_rate)
    for _ in range(150):
        inst = build_instance(rng, common_rate)
        for ev in evaluator_states(inst, rng):
            assert_kernel_matches(ev, common_rate)


@pytest.fixture
def sorts(monkeypatch):
    """Records each ``np.unique`` result while a test runs."""
    seen = []
    real = np.unique

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(np, "unique", spy)
    return seen


def test_margins_fall_back_to_the_sort_when_carriers_outnumber_the_bits(sorts):
    # Round 2 holds three live carriers for one member bit: eight send
    # patterns against two masks, so the round sorts its powers instead.
    inst = MultiBlockInstance(
        (0.75, 0.75),
        (2.0, 0.5),
        1.0,
        blocks=(1, 1),
        carriers=(
            HelperCarrier(2, 0.5, {0}),
            HelperCarrier(2, 1.5, {0}),
            HelperCarrier(2, 0.25, {0, 1}),
            HelperCarrier(2, 0.125, {0}),
            HelperCarrier(3, 3.0, {1}),
        ),
    )
    ev = _MultiBlockEvaluator(inst)
    ev.remove_closure([1])
    # Member 1 and the carriers that repeat it (0.25 and 3.0) are noise now.
    assert ev.extra_noise == {1: 0.5, 2: 0.25, 3: 3.0}
    assert [p for p, _ in ev.sends[2]] == [0.5, 1.5, 0.125]
    assert_kernel_matches(ev, common_rate=True)
    assert sorts


@pytest.mark.parametrize(
    "blocks, sorted_rounds",
    [
        # One round of six equal powers: as many patterns as masks, and
        # only seven distinct sums, so the round sorts.
        ((0,) * 6, 1),
        # Five of the six in round 0: half as many patterns as masks.
        ((0,) * 5 + (1,), 1),
        # Four in round 0 and two in round 1: a quarter of the masks or
        # fewer, so both rounds use the table.
        ((0,) * 4 + (1,) * 2, 0),
    ],
)
def test_margins_sort_near_full_rounds_of_repeated_powers(sorts, blocks, sorted_rounds):
    inst = MultiBlockInstance((0.5,) * 6, (2.0,) * 6, 1.0, blocks=blocks)
    ev = _MultiBlockEvaluator(inst)
    ev.margins(range(6))
    assert len(sorts) == sorted_rounds
    assert_kernel_matches(ev, common_rate=True)


def test_margins_of_full_rounds_of_distinct_powers_use_the_table(sorts):
    inst = MultiBlockInstance((0.5,) * 6, (1.0, 2.0, 0.5, 3.0, 1.5, 0.75), 1.0, blocks=(0,) * 6)
    ev = _MultiBlockEvaluator(inst)
    assert_kernel_matches(ev, common_rate=True)
    assert not sorts


@pytest.mark.parametrize("m", [1, 3])
def test_margins_of_one_send_rounds(sorts, m):
    # One member per round and no carriers: every round has one send, whose
    # pattern code must gather, not mask, the round's two capacities.
    inst = MultiBlockInstance((0.5,) * m, (1.0, 4.0, 0.25)[:m], 1.0, blocks=tuple(range(m)))
    ev = _MultiBlockEvaluator(inst)
    assert all(len(ev.sends[k]) == 1 for k in ev.rounds)
    assert_kernel_matches(ev, common_rate=True)
    assert not sorts


def test_worst_violator_matches_the_scalar_search():
    rng = random.Random(137)
    for _ in range(200):
        inst = build_instance(rng, common_rate=True)
        for ev in evaluator_states(inst, rng):
            assert ev.worst_violator() == scalar_worst_violator(ev)
            assert_solvers_agree(ev)


def test_min_norm_violator_matches_the_kernel_past_the_switch():
    # Above 16 survivors worst_violator runs the submodular search; the
    # kernel, called past the switch here, stays its reference.
    rng = random.Random(151)
    for _ in range(16):
        inst = build_instance(rng, rng.random() < 0.5, members=WIDE)
        for ev in evaluator_states(inst, rng):
            assert_solvers_agree(ev)


def test_peel_matches_the_scalar_search():
    rng = random.Random(139)
    for _ in range(100):
        inst = build_instance(rng, common_rate=True)
        ev = _MultiBlockEvaluator(inst)
        while (worst := scalar_worst_violator(ev)) is not None:
            ev.remove_closure(worst)
        assert multi_block_decodable_subset(inst).decoded == tuple(sorted(ev.survivors()))


def test_margins_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.randoms(use_true_random=False), st.booleans())
    def check(rng, common_rate):
        inst = build_instance(rng, common_rate)
        for ev in evaluator_states(inst, rng):
            assert_kernel_matches(ev, common_rate)
            assert_solvers_agree(ev)
            if common_rate:
                assert ev.worst_violator() == scalar_worst_violator(ev)

    check()


# ---------------------------------------------------------------------------
# exact ties
# ---------------------------------------------------------------------------


def assert_tied_singletons_peel_in_order(m):
    # Equal powers, one member per round: round k sees noise k, so member k
    # has capacity log2(1 + 1/k).  Every rate sits 2**-31 bits below its
    # capacity, inside the EPS_BITS slack, so all singletons violate with
    # exactly the same margin and every larger subset violates less.
    blocks = tuple(range(1, m + 1))
    probe = _MultiBlockEvaluator(MultiBlockInstance((0.0,) * m, (1.0,) * m, 1.0, blocks=blocks))
    rates = tuple(probe.rhs(frozenset({j})) - 2.0**-31 for j in range(m))
    inst = MultiBlockInstance(rates, (1.0,) * m, 1.0, blocks=blocks)
    ev = _MultiBlockEvaluator(inst)
    assert len({ev.margin(frozenset({j})) for j in range(m)}) == 1
    peeled = []
    while (worst := ev.worst_violator()) is not None:
        assert ev.min_norm_violator(sorted(ev.survivors())) == worst
        peeled.append(worst)
        ev.remove_closure(worst)
    assert peeled == [(j,) for j in range(m)]


def test_tied_violators_peel_in_lexicographic_order():
    assert_tied_singletons_peel_in_order(4)


def test_tied_violators_peel_in_lexicographic_order_past_the_switch():
    # The first peel runs the submodular search, the rest the kernel.
    assert_tied_singletons_peel_in_order(17)


def test_tie_break_is_lexicographic_not_by_mask():
    # Mirror-symmetric powers: {1} and {0, 1, 2} both have margin exactly 0.
    # Mask order would pick {1} (mask 2); the tuple (0, 1, 2) is smaller.
    inst = MultiBlockInstance((1.0,) * 3, (3.0, 1.0, 3.0), 1.0, blocks=(1, 1, 1))
    ev = _MultiBlockEvaluator(inst)
    assert ev.margin(frozenset({1})) == ev.margin(frozenset({0, 1, 2})) == 0.0
    assert ev.worst_violator() == (0, 1, 2)
    assert scalar_worst_violator(ev) == (0, 1, 2)
    assert ev.min_norm_violator([0, 1, 2]) == (0, 1, 2)


# ---------------------------------------------------------------------------
# round shifts and the simulator memo
# ---------------------------------------------------------------------------


def shifted(inst, offset):
    return MultiBlockInstance(
        inst.rates,
        inst.powers,
        inst.noise,
        blocks=tuple(b + offset for b in inst.blocks),
        helps=inst.helps,
        carriers=tuple(HelperCarrier(c.block + offset, c.power, c.helps) for c in inst.carriers),
        interference=inst.interference,
        block_interference=tuple((b + offset, p) for b, p in inst.block_interference),
        usable=inst.usable,
    )


def test_results_are_invariant_under_round_shifts():
    rng = random.Random(149)
    for _ in range(100):
        inst = build_instance(rng, common_rate=rng.random() < 0.5)
        result = multi_block_decodable_subset(inst)
        for offset in (1, 7, 250):
            assert multi_block_decodable_subset(shifted(inst, offset)) == result


# ---------------------------------------------------------------------------
# properties of the peel's verdicts
# ---------------------------------------------------------------------------


def check_peel_output_is_self_decodable(members, examples):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True)
    @hypothesis.given(st.randoms(use_true_random=False), st.booleans())
    def check(rng, common_rate):
        inst = build_instance(rng, common_rate, members)
        decoded = multi_block_decodable_subset(inst).decoded
        # No survivor repeats a peeled member, so peeling all of them at
        # once leaves exactly the survivors.
        ev = _MultiBlockEvaluator(inst)
        ev.remove_closure(set(range(inst.m)) - set(decoded))
        assert tuple(sorted(ev.survivors())) == decoded
        # With the peeled members and the carriers that repeat them as
        # noise, every nonempty subset of the survivors meets its
        # constraint, judged one subset at a time by the scalar evaluator
        # (past ten survivors, all at once by the kernel).
        if len(decoded) > 10:
            assert (ev.margins(decoded)[1:] < -EPS_BITS).all()
            return
        for mask in range(1, 1 << len(decoded)):
            assert ev.margin(subset_of(decoded, mask)) < -EPS_BITS

    check()


def check_verdicts_are_invariant_under_round_shifts(members, examples):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True)
    @hypothesis.given(
        st.randoms(use_true_random=False), st.booleans(), st.integers(-1000, 1000)
    )
    def check(rng, common_rate, offset):
        inst = build_instance(rng, common_rate, members)
        moved = shifted(inst, offset)
        assert multi_block_decodable_subset(moved) == multi_block_decodable_subset(inst)
        assert multi_block_feasible(moved) == multi_block_feasible(inst)

    check()


def check_verdicts_are_monotone_as_the_common_rate_falls(members, examples):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True)
    @hypothesis.given(st.randoms(use_true_random=False), st.floats(0.0, 1.0))
    def check(rng, scale):
        inst = build_instance(rng, common_rate=True, members=members)
        lower = replace(inst, rates=(inst.rates[0] * scale,) * inst.m)
        high, low = multi_block_decodable_subset(inst), multi_block_decodable_subset(lower)
        assert set(high.decoded) <= set(low.decoded)
        assert low.sum_rate_ok or not high.sum_rate_ok
        assert multi_block_feasible(lower) or not multi_block_feasible(inst)

    check()


def test_peel_output_is_self_decodable_property():
    check_peel_output_is_self_decodable((1, 8), 150)


def test_verdicts_are_invariant_under_round_shifts_property():
    check_verdicts_are_invariant_under_round_shifts((1, 8), 150)


def test_verdicts_are_monotone_as_the_common_rate_falls_property():
    check_verdicts_are_monotone_as_the_common_rate_falls((1, 8), 150)


def test_region_properties_hold_past_the_switch():
    # The three properties on fewer, wide instances, whose first peel step
    # and feasibility check run the submodular search.
    check_peel_output_is_self_decodable(WIDE, 40)
    check_verdicts_are_invariant_under_round_shifts(WIDE, 40)
    check_verdicts_are_monotone_as_the_common_rate_falls(WIDE, 40)


@pytest.fixture
def solver_calls(monkeypatch):
    calls = []
    solve = protocol_sim.multi_block_decodable_subset

    def recording(instance):
        calls.append(instance)
        return solve(instance)

    monkeypatch.setattr(protocol_sim, "multi_block_decodable_subset", recording)
    return calls


@pytest.mark.parametrize(
    "topo, one_hop, rate, blocks",
    [
        (ring(6, 1.0, power_law(2.0), 10.0, 1.0), adjacency(6, closed=True), 1.0, 40),
        # Above the all-cast bound (0.665), so decodes fail and peel.
        (regular_line(7, 1.0, power_law(2.0), 10.0, 1.0), adjacency(7), 0.7, 12),
    ],
    ids=["ring", "line-over-bound"],
)
def test_memo_solves_each_shifted_instance_once_per_run(solver_calls, topo, one_hop, rate, blocks):
    first = run_distance_regulated(topo, one_hop, rate, blocks).to_dict()
    per_run = len(solver_calls)
    keys = [shifted(inst, -min(inst.round_ids())) for inst in solver_calls]
    assert 0 < per_run == len(set(keys))

    # A second run in the same process starts from an empty memo.
    second = run_distance_regulated(topo, one_hop, rate, blocks).to_dict()
    assert len(solver_calls) == 2 * per_run
    assert solver_calls[per_run:] == solver_calls[:per_run]
    assert first == second


# ---------------------------------------------------------------------------
# float totals on every Python
# ---------------------------------------------------------------------------


def reference_compensated_sum(values):
    """``sum()`` of floats from Python 3.12 on, step by step: Neumaier's
    compensated loop, starting from the int 0."""
    if not values:
        return 0
    f, c = 0 + values[0], 0.0
    for x in values[1:]:
        t = f + x
        if abs(f) >= abs(x):
            c += (f - t) + x
        else:
            c += (x - t) + f
        f = t
    if c and math.isfinite(c):
        f += c
    return f


def sum_of_python_312(iterable, start=0):
    """The builtin ``sum()`` as Python 3.12 and later run it on floats."""
    values = list(iterable)
    if start == 0 and values and all(type(v) is float for v in values):
        return reference_compensated_sum(values)
    return builtins.sum(values, start)


SUM_ORDER_ARGV = [
    # The two mirror ends of this line bind with equal margins; a compensated
    # sum of the table's powers breaks the tie the other way.
    ("analyze", "--preset", "regular-line", "--n", "10", "--power", "10", "--gain", "exp:0.5"),
    ("analyze", "--preset", "line", "--spacings", "1,2,0.5,3,1", "--power", "10"),
    # Every node has its own static interference, and decodes fail.
    ("simulate", "--preset", "line", "--spacings", "1,1,2,1,1,1", "--hop-radius", "1.5",
     "--power", "10", "--blocks", "14", "--rate", "0.8"),
    ("simulate", "--preset", "regular-line", "--n", "7", "--power", "10", "--blocks", "14",
     "--rate", "0.8"),
    ("simulate", "--preset", "regular-line", "--n", "3", "--power", "10", "--hop-radius", "0"),
    ("simulate", "--preset", "ring", "--n", "6", "--power", "10", "--blocks", "12"),
]


def test_no_float_total_depends_on_the_python_sum(monkeypatch, capsys):
    # The builtin sum() of floats adds left to right before Python 3.12 and
    # with Neumaier's compensation from 3.12 on.  With a 3.12-style sum()
    # injected into every module of the package, whatever the running
    # Python, the kernel's left-to-right margins must still equal margin()
    # bitwise and the CLI must print the same bytes.
    assert sum_of_python_312([0.1] * 10) == 1.0
    unpatched = []
    for argv in SUM_ORDER_ARGV:
        assert cli.main(list(argv)) == 0
        unpatched.append(capsys.readouterr().out)

    modules = [omnirelay] + [
        importlib.import_module(f"omnirelay.{info.name}")
        for info in pkgutil.iter_modules(omnirelay.__path__)
    ]
    for module in modules:
        monkeypatch.setattr(module, "sum", sum_of_python_312, raising=False)

    rng = random.Random(2412)
    for _ in range(60):
        inst = build_instance(rng, common_rate=True)
        for ev in evaluator_states(inst, rng):
            members = list(range(inst.m))
            margins = ev.margins(members)
            for mask in range(1 << len(members)):
                assert margins[mask] == ev.margin(subset_of(members, mask))

    for argv, out in zip(SUM_ORDER_ARGV, unpatched):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == out
