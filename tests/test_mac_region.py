"""Rate-region checks against independent brute-force oracles."""

import math
import random
from itertools import combinations

import pytest

from omnirelay.errors import CapacityLimitError
from omnirelay.mac_region import (
    EPS_BITS,
    HelperCarrier,
    MultiBlockInstance,
    multi_block_decodable_subset,
    multi_block_feasible,
)


# ---------------------------------------------------------------------------
# oracles (independent reimplementation, plain loops and logs)
# ---------------------------------------------------------------------------


def subset_ok(rates, powers, members, denom):
    """Strict sum-rate constraint for every nonempty subset of ``members``."""
    members = list(members)
    for size in range(1, len(members) + 1):
        for t in combinations(members, size):
            r = sum(rates[j] for j in t)
            p = sum(powers[j] for j in t)
            if not r < math.log2(1.0 + p / denom) - EPS_BITS:
                return False
    return True


def oracle_self_decodable(inst, subset):
    outside = sum(inst.powers[j] for j in range(inst.m) if j not in set(subset))
    return bool(subset) and subset_ok(
        inst.rates, inst.powers, subset, inst.noise + inst.interference + outside
    )


def oracle_largest_subset(inst):
    for size in range(inst.m, 0, -1):
        for combo in combinations(range(inst.m), size):
            if oracle_self_decodable(inst, combo):
                return combo
    return ()


def one_round(rates, powers, noise=1.0, interference=0.0):
    """The one-receiver multiple-access instance: every sender in round 0."""
    return MultiBlockInstance(
        rates, powers, noise, blocks=(0,) * len(rates), interference=interference
    )


def peel(inst):
    return multi_block_decodable_subset(inst).decoded


def random_instance(rng, m=None):
    m = m or rng.randint(1, 6)
    rates = [rng.uniform(0.0, 2.0) for _ in range(m)]
    powers = [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(m)]
    return one_round(tuple(rates), tuple(powers))


# ---------------------------------------------------------------------------
# one-round feasibility
# ---------------------------------------------------------------------------


def test_feasibility_matches_oracle():
    rng = random.Random(11)
    for _ in range(300):
        inst = random_instance(rng)
        expect = subset_ok(inst.rates, inst.powers, range(inst.m), inst.noise)
        assert multi_block_feasible(inst) == expect


def test_feasibility_is_strict_at_the_boundary():
    cap = math.log2(1.0 + 4.0)
    assert not multi_block_feasible(one_round((cap,), (4.0,)))
    assert multi_block_feasible(one_round((cap - 1e-6,), (4.0,)))
    # Within the configured slack counts as on the boundary.
    assert not multi_block_feasible(one_round((cap - 1e-10,), (4.0,)))


def test_interference_shrinks_the_region():
    assert multi_block_feasible(one_round((1.0, 1.0), (4.0, 4.0)))
    assert not multi_block_feasible(one_round((1.0, 1.0), (4.0, 4.0), interference=3.0))


def test_instance_validation():
    for bad in (
        lambda: one_round((), ()),
        lambda: one_round((1.0,), (1.0, 2.0)),
        lambda: one_round((1.0,), (1.0,), 0.0),
        lambda: one_round((1.0,), (1.0,), interference=-1.0),
        lambda: one_round((-0.5,), (1.0,)),
        lambda: one_round((1.0,), (math.inf,)),
        # Non-finite noise powers, which the peel cannot score.
        lambda: one_round((0.5, 0.5), (1.0, 2.0), math.nan),
        lambda: one_round((0.5, 0.5), (1.0, 2.0), math.inf),
        lambda: one_round((0.5, 0.5), (1.0, 2.0), interference=math.nan),
        lambda: one_round((0.5, 0.5), (1.0, 2.0), interference=math.inf),
        lambda: MultiBlockInstance(
            (0.5, 0.5), (1.0, 2.0), 1.0, blocks=(0, 0), block_interference=((0, math.nan),)
        ),
        lambda: MultiBlockInstance(
            (0.5, 0.5), (1.0, 2.0), 1.0, blocks=(0, 0), block_interference=((0, math.inf),)
        ),
    ):
        with pytest.raises(ValueError):
            bad()


def test_sender_count_caps():
    big = one_round((0.01,) * 21, (1.0,) * 21)
    with pytest.raises(CapacityLimitError):
        multi_block_feasible(big)


# ---------------------------------------------------------------------------
# decodable subsets
# ---------------------------------------------------------------------------


def test_two_sender_example():
    # Source 1 alone fails its rate; source 0 decodes over source 1's power.
    inst = one_round((1.0, 1.0), (4.0, 1.0))
    assert not multi_block_feasible(inst)
    assert oracle_largest_subset(inst) == (0,)
    assert peel(inst) == (0,)


def test_single_overloaded_sender():
    inst = one_round((5.0,), (1.0,))
    assert oracle_largest_subset(inst) == ()
    assert peel(inst) == ()


def test_feasible_instance_returns_everything():
    inst = one_round((0.3, 0.3, 0.3), (4.0, 2.0, 1.0))
    assert multi_block_feasible(inst)
    assert oracle_largest_subset(inst) == (0, 1, 2)
    assert peel(inst) == (0, 1, 2)


def test_three_sender_peel_is_self_decodable():
    inst = one_round((1.0, 1.0, 1.0), (4.0, 1.0, 1.0))
    assert not multi_block_feasible(inst)
    peeled = peel(inst)
    exact = oracle_largest_subset(inst)
    assert not peeled or oracle_self_decodable(inst, peeled)
    assert bool(peeled) == bool(exact)


def test_nonempty_whenever_sum_rate_holds():
    rng = random.Random(31)
    seen = 0
    for _ in range(400):
        inst = random_instance(rng)
        total_ok = sum(inst.rates) < math.log2(1.0 + sum(inst.powers)) - EPS_BITS
        if not total_ok:
            continue
        seen += 1
        assert oracle_largest_subset(inst)
        assert peel(inst)
    assert seen > 50


def test_peel_output_is_always_self_decodable():
    rng = random.Random(47)
    for _ in range(300):
        inst = random_instance(rng)
        peeled = peel(inst)
        if peeled:
            assert oracle_self_decodable(inst, peeled)


def test_removing_a_sender_never_gains_slack():
    """Retiring a sender into the interference floor only tightens constraints."""
    rng = random.Random(59)
    for _ in range(100):
        inst = random_instance(rng, m=rng.randint(2, 5))
        drop = rng.randrange(inst.m)
        keep = [j for j in range(inst.m) if j != drop]
        shrunk = one_round(
            tuple(inst.rates[j] for j in keep),
            tuple(inst.powers[j] for j in keep),
            inst.noise,
            interference=inst.interference + inst.powers[drop],
        )
        for size in range(1, len(keep) + 1):
            for combo in combinations(range(len(keep)), size):
                p = sum(shrunk.powers[j] for j in combo)
                r = sum(shrunk.rates[j] for j in combo)
                before = math.log2(1.0 + p / (inst.noise + inst.interference)) - r
                after = math.log2(1.0 + p / (shrunk.noise + shrunk.interference)) - r
                assert after <= before + 1e-12


def test_difference_identity():
    """Chain rule: full-set capacity splits exactly across a subset and its rest."""
    rng = random.Random(61)
    for _ in range(200):
        inst = random_instance(rng, m=rng.randint(2, 6))
        n = inst.noise
        total = sum(inst.powers)
        for size in range(1, inst.m):
            for combo in combinations(range(inst.m), size):
                pa = sum(inst.powers[j] for j in combo)
                lhs = math.log2(1.0 + total / n)
                rhs = math.log2(1.0 + pa / n) + math.log2(1.0 + (total - pa) / (n + pa))
                assert abs(lhs - rhs) < 1e-9
                # So: full-set ok and A violating force the complement to fit
                # in the leftover capacity with A's power as extra noise.
                ra = sum(inst.rates[j] for j in combo)
                rest = sum(inst.rates) - ra
                if sum(inst.rates) < lhs - EPS_BITS and ra >= math.log2(1.0 + pa / n):
                    assert rest < math.log2(1.0 + (total - pa) / (n + pa)) - EPS_BITS


# ---------------------------------------------------------------------------
# two-block region
# ---------------------------------------------------------------------------


def two_block(rates, powers, block1, block2, helps=None, noise=1.0, interference=0.0):
    """Round-1 senders ``block1`` and round-2 senders ``block2``; ``helps`` maps
    a round-2 sender to the round-1 senders it repeats."""
    assert set(block1) | set(block2) == set(range(len(rates)))
    helps = helps or {}
    return MultiBlockInstance(
        rates, powers, noise,
        blocks=tuple(1 if j in block1 else 2 for j in range(len(rates))),
        helps=tuple(frozenset(helps.get(j, ())) for j in range(len(rates))),
        interference=interference,
    )


def oracle_two_block_feasible(rates, powers, block1, block2, helps, noise=1.0):
    """Two-block region by plain enumeration: every nonempty sender set ``s``
    needs sum-rate below round 1's capacity over ``s & block1`` plus round 2's
    over the round-2 senders in ``s`` or repeating a member of ``s & block1``,
    with all of round 1 heard as noise in round 2."""
    m = len(rates)
    p1 = sum(powers[i] for i in block1)
    for size in range(1, m + 1):
        for s in combinations(range(m), size):
            s = set(s)
            s1 = s & set(block1)
            s2 = (s & set(block2)) | {j for j in block2 if helps[j] & s1}
            cap = math.log2(1.0 + sum(powers[i] for i in s1) / noise)
            cap += math.log2(1.0 + sum(powers[j] for j in s2) / (noise + p1))
            if not sum(rates[i] for i in s) < cap - EPS_BITS:
                return False
    return True


def test_two_round_example_low_rates():
    inst = two_block((0.4, 0.4), (1.0, 4.0), {0}, {1}, helps={1: {0}})
    assert multi_block_feasible(inst)


def test_two_round_example_helper_carries_the_day():
    # Rate 1.2 exceeds what round 1 alone supports; the round-2 repeat of
    # message 0 closes the gap, and removing it breaks feasibility again.
    helped = two_block((1.2, 0.4), (1.0, 4.0), {0}, {1}, helps={1: {0}})
    assert multi_block_feasible(helped)
    alone = two_block((1.2, 0.4), (1.0, 4.0), {0}, {1}, helps={})
    assert not multi_block_feasible(alone)


def test_degenerate_partitions_reduce_to_one_round():
    rng = random.Random(71)
    for _ in range(100):
        inst = random_instance(rng)
        members = set(range(inst.m))
        first = two_block(inst.rates, inst.powers, members, set(), noise=inst.noise)
        second = two_block(inst.rates, inst.powers, set(), members, noise=inst.noise)
        expect = subset_ok(inst.rates, inst.powers, members, inst.noise)
        assert multi_block_feasible(first) == expect
        assert multi_block_feasible(second) == expect


def test_two_block_matches_direct_enumeration():
    rng = random.Random(73)
    for _ in range(150):
        m = rng.randint(2, 5)
        rates = tuple(rng.uniform(0.0, 1.5) for _ in range(m))
        powers = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(m))
        block1 = frozenset(j for j in range(m) if rng.random() < 0.5)
        block2 = frozenset(range(m)) - block1
        helps = {
            j: frozenset(i for i in block1 if rng.random() < 0.4) for j in block2
        }
        inst = two_block(rates, powers, block1, block2, helps=helps)
        assert multi_block_feasible(inst) == oracle_two_block_feasible(
            rates, powers, block1, block2, helps
        )


def test_two_rounds_reduce_to_two_block():
    # A MultiBlockInstance with two nonempty rounds, built directly from its
    # per-sender block and help tuples, is the two-block region.
    rng = random.Random(89)
    for _ in range(100):
        m = rng.randint(2, 5)
        rates = tuple(rng.uniform(0.0, 1.5) for _ in range(m))
        powers = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(m))
        block1 = set(rng.sample(range(m), rng.randint(1, m - 1)))
        block2 = set(range(m)) - block1
        helps = tuple(
            frozenset(i for i in block1 if rng.random() < 0.4) if j in block2 else frozenset()
            for j in range(m)
        )
        multi = MultiBlockInstance(
            rates, powers, 1.0,
            blocks=tuple(1 if j in block1 else 2 for j in range(m)),
            helps=helps,
        )
        assert multi_block_feasible(multi) == oracle_two_block_feasible(
            rates, powers, block1, block2, helps
        )


# ---------------------------------------------------------------------------
# multi-block region
# ---------------------------------------------------------------------------


def test_single_round_reduces_to_mac():
    # One round, wherever it sits, is the one-receiver multiple-access region.
    rng = random.Random(83)
    for _ in range(100):
        inst = random_instance(rng)
        multi = MultiBlockInstance(
            inst.rates, inst.powers, inst.noise, blocks=(1,) * inst.m
        )
        assert multi_block_feasible(multi) == subset_ok(
            inst.rates, inst.powers, range(inst.m), inst.noise
        )
        assert peel(multi) == peel(inst)


def test_examples_across_two_rounds():
    base = dict(powers=(1.0, 4.0), noise=1.0, blocks=(1, 2))
    helps = (frozenset(), frozenset({0}))
    easy = MultiBlockInstance(rates=(0.4, 0.4), helps=helps, **base)
    assert multi_block_decodable_subset(easy).decoded == (0, 1)

    hot = MultiBlockInstance(rates=(1.2, 0.4), helps=helps, **base)
    res = multi_block_decodable_subset(hot)
    assert 1 in res.decoded

    unaided = MultiBlockInstance(rates=(1.2, 0.4), **base)
    assert multi_block_decodable_subset(unaided).decoded == (1,)


def test_carrier_supplies_missing_capacity():
    carrier = HelperCarrier(block=2, power=4.0, helps=frozenset({0}))
    with_relay = MultiBlockInstance(
        (2.0,), (1.0,), 1.0, blocks=(1,), carriers=(carrier,)
    )
    without = MultiBlockInstance((2.0,), (1.0,), 1.0, blocks=(1,))
    assert multi_block_feasible(with_relay)
    assert not multi_block_feasible(without)


def test_unusable_transmission_contributes_nothing():
    helps = (frozenset(), frozenset({0}))
    usable = MultiBlockInstance(
        (1.2, 0.0), (1.0, 4.0), 1.0, blocks=(1, 2), helps=helps
    )
    poisoned = MultiBlockInstance(
        (1.2, 0.0), (1.0, 4.0), 1.0, blocks=(1, 2), helps=helps,
        usable=(True, False),
    )
    assert multi_block_feasible(usable)
    assert not multi_block_feasible(poisoned)


def test_round_noise_entries_raise_the_floor():
    quiet = MultiBlockInstance((1.5,), (4.0,), 1.0, blocks=(1,))
    loud = MultiBlockInstance(
        (1.5,), (4.0,), 1.0, blocks=(1,), block_interference=((1, 3.0),)
    )
    assert multi_block_feasible(quiet)  # 1.5 < log2(5)
    assert not multi_block_feasible(loud)  # 1.5 >= log2(2)


def test_later_rounds_hear_earlier_senders_as_noise():
    # Round-2 member decodes against noise + round-1 member power.
    inst = MultiBlockInstance((0.0, 1.5), (3.0, 4.0), 1.0, blocks=(1, 2))
    cap = math.log2(1.0 + 4.0 / (1.0 + 3.0))
    assert multi_block_feasible(inst) == (1.5 < cap - EPS_BITS)
    assert not multi_block_feasible(inst)


def test_peel_closure_contaminates_dependent_bundles():
    # Member 1 repeats member 0; once 0 is peeled its bundle can never be
    # reconstructed, so 1 goes too even at rate zero.
    inst = MultiBlockInstance(
        (5.0, 0.0, 0.1), (1.0, 1.0, 1.0), 1.0,
        blocks=(1, 2, 1),
        helps=(frozenset(), frozenset({0}), frozenset()),
    )
    res = multi_block_decodable_subset(inst)
    assert res.decoded == (2,)
    assert not res.sum_rate_ok


def test_sum_rate_flag_reflects_the_untouched_instance():
    ok = MultiBlockInstance((0.1, 0.1), (1.0, 1.0), 1.0, blocks=(1, 2))
    assert multi_block_decodable_subset(ok).sum_rate_ok
    bad = MultiBlockInstance((3.0, 3.0), (1.0, 1.0), 1.0, blocks=(1, 2))
    assert not multi_block_decodable_subset(bad).sum_rate_ok


def test_multi_block_validation():
    with pytest.raises(ValueError):
        MultiBlockInstance((0.1,), (1.0,), 1.0, blocks=(1, 2))
    with pytest.raises(ValueError):
        # Helping a same-round member.
        MultiBlockInstance(
            (0.1, 0.1), (1.0, 1.0), 1.0, blocks=(1, 1),
            helps=(frozenset(), frozenset({0})),
        )
    with pytest.raises(ValueError):
        HelperCarrier(block=2, power=1.0, helps=frozenset())
    with pytest.raises(ValueError):
        # Carriers cannot help their own round.
        MultiBlockInstance(
            (0.1,), (1.0,), 1.0, blocks=(1,),
            carriers=(HelperCarrier(block=1, power=1.0, helps=frozenset({0})),),
        )
    with pytest.raises(ValueError):
        MultiBlockInstance((0.1,), (1.0,), 1.0, blocks=(1,), usable=(True, False))
    with pytest.raises(ValueError):
        MultiBlockInstance(
            (0.1,), (1.0,), 1.0, blocks=(1,), block_interference=((1, -2.0),)
        )


def test_round_ids_cover_all_mentions():
    inst = MultiBlockInstance(
        (0.1,), (1.0,), 1.0, blocks=(2,),
        carriers=(HelperCarrier(block=4, power=1.0, helps=frozenset({0})),),
        block_interference=((7, 0.5),),
    )
    assert inst.round_ids() == (2, 4, 7)
