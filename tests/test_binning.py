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
