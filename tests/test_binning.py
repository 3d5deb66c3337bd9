"""Tests for the modular-sum bundle binning and its side-information decoder."""

import math
import random
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from omnirelay.binning import (
    BinAssignment,
    alphabet_size,
    build_binning,
    decode_from_side_info,
    verify_binning_property,
)
from omnirelay.errors import CapacityLimitError, DecodeError, PreconditionError


def test_xor_pair():
    # Two binary slots collapse to plain XOR.
    a = build_binning([2, 2])
    assert a.bin_count == 2
    assert [a.bin_of(v) for v in product(range(2), repeat=2)] == [0, 1, 1, 0]


def test_bin_count_is_largest_alphabet():
    a = build_binning([3, 5])
    assert a.bin_count == 5
    assert a.bin_of([2, 4]) == 1


def test_decode_recovers_missing_slot():
    a = build_binning([3, 5])
    idx = a.bin_of([2, 4])
    assert decode_from_side_info(a, idx, {0: 2}, target=1) == 4


def test_single_slot_is_identity():
    a = build_binning([4])
    for v in range(4):
        assert a.bin_of([v]) == v
    assert decode_from_side_info(a, 3, {}, target=0) == 3


@pytest.mark.parametrize("sizes", [(2, 2), (3, 5), (4,), (2, 3, 4), (6, 6, 6)])
def test_round_trip_every_slot(sizes):
    """Hiding any one slot of any joint value is always recoverable."""
    a = build_binning(sizes)
    for values in product(*(range(s) for s in sizes)):
        idx = a.bin_of(values)
        for target in range(len(sizes)):
            known = {j: values[j] for j in range(len(sizes)) if j != target}
            assert decode_from_side_info(a, idx, known, target) == values[target]


@pytest.mark.parametrize("sizes", [(2,), (2, 2), (3, 5), (5, 4, 3), (2, 2, 2, 2)])
def test_verify_accepts_modular_sum(sizes):
    assert verify_binning_property(build_binning(sizes))


def test_verify_rejects_a_bad_map():
    # A constant rule maps everything to bin 0, so no slot is recoverable.
    @dataclass(frozen=True)
    class Constant(BinAssignment):
        def bin_of(self, values):
            self._check_values(values)
            return 0

    bad = Constant(sizes=(2, 3), bin_count=3)
    assert verify_binning_property(bad) is False


def test_verify_matches_brute_force_on_random_maps():
    rng = random.Random(7)

    @dataclass(frozen=True)
    class Table(BinAssignment):
        table: tuple[int, ...] = ()

        def bin_of(self, values):
            self._check_values(values)
            flat = 0
            for v, s in zip(values, self.sizes):
                flat = flat * s + v
            return self.table[flat]

    def brute(assignment):
        m = len(assignment.sizes)
        for j in range(m):
            seen = {}
            for values in product(*(range(s) for s in assignment.sizes)):
                key = (assignment.bin_of(values),) + values[:j] + values[j + 1 :]
                if seen.setdefault(key, values[j]) != values[j]:
                    return False
        return True

    for _ in range(40):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        bins = rng.randint(1, 6)
        table = tuple(rng.randrange(bins) for _ in range(math.prod(sizes)))
        a = Table(sizes=sizes, bin_count=bins, table=table)
        assert verify_binning_property(a) == brute(a)


def test_decode_flags_out_of_alphabet_result():
    # Bundle (2, 3), bin count 3: index 2 with slot-1 value 0 would need
    # slot 0 to be 2, which its alphabet cannot hold.
    a = build_binning([2, 3])
    with pytest.raises(DecodeError):
        decode_from_side_info(a, 2, {1: 0}, target=0)


def test_value_checks():
    a = build_binning([2, 3])
    with pytest.raises(PreconditionError):
        a.bin_of([1])
    with pytest.raises(PreconditionError):
        a.bin_of([2, 0])
    with pytest.raises(PreconditionError):
        a.bin_of([0, -1])


def test_side_info_checks():
    a = build_binning([2, 3, 4])
    idx = a.bin_of([1, 2, 3])
    with pytest.raises(PreconditionError):
        decode_from_side_info(a, idx, {0: 1}, target=1)  # slot 2 missing
    with pytest.raises(PreconditionError):
        decode_from_side_info(a, idx, {0: 1, 1: 2}, target=1)  # target known
    with pytest.raises(PreconditionError):
        decode_from_side_info(a, idx, {0: 1, 2: 3}, target=5)
    with pytest.raises(PreconditionError):
        decode_from_side_info(a, 99, {0: 1, 2: 3}, target=1)
    with pytest.raises(PreconditionError, match="slot 0 value 9 outside its alphabet"):
        decode_from_side_info(build_binning((4, 4, 4)), 1, {0: 9, 1: 0}, 2)


def bundle_batches():
    """A hypothesis strategy of (sizes, rows, target): 1 to 6 slots with
    alphabets of 1 to 9 values, and 1 to 8 bundles of valid values."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def batches(draw):
        sizes = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)))
        row = st.tuples(*(st.integers(0, s - 1) for s in sizes))
        rows = draw(st.lists(row, min_size=1, max_size=8))
        return sizes, rows, draw(st.integers(0, len(sizes) - 1))

    return batches()


def outcome(call):
    """What ``call()`` returns, or the class of the binning error it raises."""
    try:
        return call()
    except (PreconditionError, DecodeError) as error:
        return type(error)


def test_batches_match_single_bundles_row_by_row():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(bundle_batches())
    def check(case):
        sizes, rows, target = case
        a = build_binning(sizes)
        batch = np.array(rows)
        singles = [a.bin_of(row) for row in rows]
        assert all(type(b) is int for b in singles)
        bins = a.bin_of(batch)
        assert bins.tolist() == singles
        side = [j for j in range(len(sizes)) if j != target]
        expected = [
            decode_from_side_info(a, b, {j: row[j] for j in side}, target)
            for b, row in zip(singles, rows)
        ]
        assert all(type(v) is int for v in expected)
        got = decode_from_side_info(a, bins, {j: batch[:, j] for j in side}, target)
        assert got.tolist() == expected == batch[:, target].tolist()

    check()


def test_a_batch_with_one_bad_row_raises_as_that_row_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(bundle_batches(), st.data())
    def check(case, data):
        sizes, rows, target = case
        a = build_binning(sizes)
        # Row r gets values, and a bin index, from a little outside their ranges.
        r = data.draw(st.integers(0, len(rows) - 1))
        bad = tuple(data.draw(st.integers(-2, s + 1)) for s in sizes)
        bad_bin = data.draw(st.integers(-2, a.bin_count + 1))
        single = outcome(lambda: a.bin_of(bad))
        batch = outcome(lambda: a.bin_of(np.array(rows[:r] + [bad] + rows[r + 1 :])))
        assert batch is single if isinstance(single, type) else batch[r] == single

        bins = [a.bin_of(row) for row in rows]
        bins[r] = bad_bin
        values = np.array(rows)
        values[r] = bad
        side = [j for j in range(len(sizes)) if j != target]
        single = outcome(
            lambda: decode_from_side_info(a, bad_bin, {j: bad[j] for j in side}, target)
        )
        batch = outcome(
            lambda: decode_from_side_info(
                a, np.array(bins), {j: values[:, j] for j in side}, target
            )
        )
        assert batch is single if isinstance(single, type) else batch[r] == single
        hypothesis.event(f"bad row raises {getattr(single, '__name__', 'nothing')}")

    check()


def test_sums_beyond_int64_are_exact():
    a = build_binning([2**70, 2**70, 3])
    # Two values below 2**62 sum below 2**63, three may not.
    assert a.dtype is object and build_binning([2**62] * 3).dtype is object
    assert build_binning([2**62] * 2).dtype is np.int64
    rows = [(2**70 - 1, 2**70 - 2, 2), (5, 2**69, 0)]
    bins = a.bin_of(np.array(rows, dtype=object))
    assert bins.tolist() == [a.bin_of(row) for row in rows] == [sum(r) % 2**70 for r in rows]
    got = decode_from_side_info(a, bins, {0: np.array([r[0] for r in rows], dtype=object),
                                          2: np.array([2, 0])}, 1)
    assert got.tolist() == [2**70 - 2, 2**69]


def test_construction_checks():
    with pytest.raises(ValueError):
        build_binning([])
    with pytest.raises(ValueError):
        build_binning([3, 0])
    with pytest.raises(ValueError):
        BinAssignment(sizes=(2, 2), bin_count=0)


@pytest.mark.parametrize("size", [2.9, 0.5, True, "3", math.inf, -math.inf, math.nan, None])
def test_sizes_must_be_integer_values(size):
    with pytest.raises(ValueError, match="alphabet size .* is not an integer") as info:
        build_binning([size, 3])
    assert info.type is ValueError


def test_integer_valued_sizes_are_taken_as_ints():
    a = build_binning([np.int64(2), 3.0, np.float64(4.0), np.int8(1)])
    assert a.sizes == (2, 3, 4, 1)
    assert all(type(s) is int for s in a.sizes)


def test_verification_cap():
    with pytest.raises(CapacityLimitError):
        verify_binning_property(BinAssignment(sizes=(101, 101, 101), bin_count=101))


@pytest.mark.parametrize(
    "rate, length, expected",
    [
        (0.0, 10, 1),
        (1.0, 1, 2),
        (1.0, 3, 8),
        (0.5, 3, 3),  # ceil(2^1.5)
        (2.0, 2, 16),
    ],
)
def test_alphabet_size(rate, length, expected):
    assert alphabet_size(rate, length) == expected


def test_alphabet_size_rejects_bad_inputs():
    with pytest.raises(ValueError):
        alphabet_size(-0.1, 4)
    with pytest.raises(ValueError):
        alphabet_size(1.0, 0)
