"""Package-level acceptance checks.

Each test here replays one of the project's sign-off criteria at desk scale:
exhaustive binning, an oracle-confirmed subset peel, region identities, the
equal-spacing verifier, end-to-end protocol runs, bisection consistency,
verdict monotonicity and CLI determinism.
"""

import json
import math
import time
from itertools import combinations, product

import pytest

from omnirelay.binning import build_binning, decode_from_side_info, verify_binning_property
from omnirelay.cli import main
from omnirelay.mac_region import (
    EPS_BITS,
    MultiBlockInstance,
    multi_block_decodable_subset,
    multi_block_feasible,
)
from omnirelay.protocol_sim import interference_accounting, run_distance_regulated
from omnirelay.rate_analysis import (
    allcast_rate_bound,
    max_achievable_rate,
    ordered_line_conditions,
    verify_regular_line_achievability,
)
from omnirelay.topology import (
    constant,
    exponential,
    general_line,
    k_hop_neighbors,
    power_law,
    regular_line,
)

import random

GAINS = [power_law(1.0), power_law(2.0), exponential(0.5), constant()]
POWERS = [1.0, 10.0, 100.0]


def adjacency(n):
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


def random_mac(rng, max_m=10):
    m = rng.randint(1, max_m)
    rates = tuple(rng.uniform(0.0, 2.0) for _ in range(m))
    powers = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(m))
    return MultiBlockInstance(rates, powers, 1.0, blocks=(0,) * m)


def oracle_self_decodable(inst, subset):
    outside = sum(inst.powers[j] for j in range(inst.m) if j not in set(subset))
    denom = inst.noise + inst.interference + outside
    for size in range(1, len(subset) + 1):
        for t in combinations(subset, size):
            r = sum(inst.rates[j] for j in t)
            p = sum(inst.powers[j] for j in t)
            if not r < math.log2(1.0 + p / denom) - EPS_BITS:
                return False
    return True


def test_criterion_1_binning_exhaustive():
    """Every bundle with up to three slots and alphabets up to 6 round-trips."""
    start = time.perf_counter()
    tuples = 0
    for k in (1, 2, 3):
        for sizes in product(range(1, 7), repeat=k):
            assignment = build_binning(sizes)
            assert verify_binning_property(assignment)
            for values in product(*(range(s) for s in sizes)):
                idx = assignment.bin_of(values)
                for target in range(k):
                    known = {j: values[j] for j in range(k) if j != target}
                    got = decode_from_side_info(assignment, idx, known, target)
                    assert got == values[target]
            tuples += 1
    assert tuples == 6 + 36 + 216
    assert time.perf_counter() - start < 10.0


def test_criterion_2_subset_oracle_equivalence():
    """1000 random one-round instances: the peel is nonempty when guaranteed
    and its output is oracle-confirmed."""
    start = time.perf_counter()
    rng = random.Random(2024)
    guaranteed = 0
    for _ in range(1000):
        inst = random_mac(rng)
        sum_ok = sum(inst.rates) < math.log2(1.0 + sum(inst.powers)) - EPS_BITS
        peeled = multi_block_decodable_subset(inst).decoded
        if peeled:
            assert oracle_self_decodable(inst, peeled)
        if sum_ok:
            guaranteed += 1
            assert peeled, "guarantee violated for the peel"
    assert guaranteed > 100  # the draw actually exercises the guarantee
    assert time.perf_counter() - start < 60.0


def test_criterion_3_two_block_identities():
    """Degenerate partitions equal the one-round check; capacity chain rule."""
    rng = random.Random(77)
    for _ in range(500):
        inst = random_mac(rng, max_m=6)
        only_first = MultiBlockInstance(inst.rates, inst.powers, inst.noise, blocks=(1,) * inst.m)
        only_second = MultiBlockInstance(inst.rates, inst.powers, inst.noise, blocks=(2,) * inst.m)
        plain = oracle_self_decodable(inst, tuple(range(inst.m)))
        assert multi_block_feasible(only_first) == plain
        assert multi_block_feasible(only_second) == plain

        # Wherever a subset A violates its constraint while the full set is
        # fine, the complement must fit the leftover capacity with A's power
        # pushed into the noise; the split itself is exact.
        n = inst.noise
        total = sum(inst.powers)
        full_ok = sum(inst.rates) < math.log2(1.0 + total / n) - EPS_BITS
        for size in range(1, inst.m):
            for combo in combinations(range(inst.m), size):
                pa = sum(inst.powers[j] for j in combo)
                ra = sum(inst.rates[j] for j in combo)
                split = math.log2(1.0 + pa / n) + math.log2(1.0 + (total - pa) / (n + pa))
                assert abs(split - math.log2(1.0 + total / n)) < 1e-9
                if full_ok and ra >= math.log2(1.0 + pa / n):
                    rest = sum(inst.rates) - ra
                    assert rest < math.log2(1.0 + (total - pa) / (n + pa)) - EPS_BITS


def test_criterion_4_regular_line_verifier():
    """All line sizes, gains and powers: verified, and the conditions hold at
    0.999 of the bound and at 100 random rates below it."""
    start = time.perf_counter()
    for n in range(2, 13):
        for gain in GAINS:
            for p in POWERS:
                t = regular_line(n, 1.0, gain, p, 1.0)
                check = verify_regular_line_achievability(t)
                rng = random.Random(n)
                assert check.verified, (n, gain.label(), p)
                assert ordered_line_conditions(t, 0.999 * check.bound).achievable
                for _ in range(100):
                    r = check.bound * rng.random()
                    assert ordered_line_conditions(t, r).achievable, (n, gain.label(), p, r)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_end_to_end_achievability():
    """Protocol runs below the ceiling: every decode lands, nothing interferes."""
    for n in range(2, 9):
        one_hop = adjacency(n)
        hops = k_hop_neighbors(one_hop)
        for gain in GAINS:
            for p in POWERS:
                t = regular_line(n, 1.0, gain, p, 1.0)
                bound = allcast_rate_bound(t)
                trace = run_distance_regulated(t, one_hop, 0.999 * bound, 2 * n)
                assert trace.all_success(), (n, gain.label(), p, trace.first_failure())
                for i, done in enumerate(trace.completion_block):
                    assert done is not None
                    assert done <= hops[i].max() + 1
                for report in interference_accounting(trace):
                    assert report.undecoded == ()
                    assert report.power == 0.0

                hot = run_distance_regulated(t, one_hop, 1.001 * bound, 2 * n)
                assert not hot.all_success()
                assert any(
                    not rec.sum_rate_ok for row in hot.decodes for rec in row
                ), (n, gain.label(), p)


def test_criterion_6_bisection_meets_the_bound():
    for n in range(2, 13):
        gain = GAINS[n % len(GAINS)]
        p = POWERS[n % len(POWERS)]
        t = regular_line(n, 1.0, gain, p, 1.0)
        assert abs(max_achievable_rate(t) - allcast_rate_bound(t)) < 1e-5


def test_criterion_6_two_node_closed_form():
    for gain in GAINS:
        for p in POWERS:
            t = regular_line(2, 1.0, gain, p, 1.0)
            received = gain(1.0) ** 2 * p
            assert max_achievable_rate(t) == pytest.approx(
                math.log2(1.0 + received), abs=1e-5
            )


def test_criterion_7_verdict_monotone_under_halving():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(2, 8)
        coords = [0.0]
        for _ in range(n - 1):
            coords.append(coords[-1] + rng.uniform(0.5, 2.0))
        gain = rng.choice(GAINS)
        t = general_line(coords, gain, rng.choice(POWERS), 1.0)
        rate = rng.uniform(0.0, 1.5 * allcast_rate_bound(t))
        if ordered_line_conditions(t, rate).achievable:
            assert ordered_line_conditions(t, 0.5 * rate).achievable


def test_criterion_8_cli_determinism(capsys, tmp_path):
    argv = [
        "simulate", "--preset", "regular-line", "--n", "5", "--gain", "pl:2",
        "--power", "10", "--blocks", "10", "--seed", "3",
    ]
    main(list(argv))
    first = capsys.readouterr()
    main(list(argv))
    second = capsys.readouterr()
    assert first.out.encode() == second.out.encode()
    assert first.err == second.err == ""

    # Same through files, different subcommand.
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        main([
            "analyze", "--preset", "ring", "--n", "6", "--power", "10",
            "--seed", "11", "--out", str(path),
        ])
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    json.loads(paths[0].read_text(encoding="utf-8"))


def test_conditions_predict_protocol_success_on_regular_lines():
    """Accepted rates actually run clean end to end on equally spaced lines."""
    rng = random.Random(1311)
    for n in range(2, 9):
        one_hop = adjacency(n)
        for gain in (power_law(2.0), exponential(0.5)):
            t = regular_line(n, 1.0, gain, 10.0, 1.0)
            bound = allcast_rate_bound(t)
            rates = [0.999 * bound] + [bound * rng.random() for _ in range(3)]
            for rate in rates:
                if not ordered_line_conditions(t, rate).achievable:
                    continue
                trace = run_distance_regulated(t, one_hop, rate, 2 * n)
                assert trace.all_success(), (n, gain.label(), rate, trace.first_failure())
