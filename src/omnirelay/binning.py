"""Deterministic binning of message bundles and side-information decoding.

A relay forwards several already-decoded messages in one block by sending a
single bin index instead of the full tuple.  The bin map here is the modular
sum of the message values with the bin count fixed to the largest alphabet in
the bundle; a receiver that already knows all but one bundle entry can then
recover the missing one exactly.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import CapacityLimitError, DecodeError, PreconditionError

_VERIFY_CAP = 10**6


@dataclass(frozen=True)
class BinAssignment:
    """Bin map over a bundle of message alphabets.

    ``sizes[j]`` is the alphabet size of slot j; ``bin_count`` the number of
    bin indices; ``bin_of`` the map itself, the modular sum of the values.
    """

    sizes: tuple[int, ...]
    bin_count: int

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a bundle needs at least one slot")
        for s in self.sizes:
            if s < 1:
                raise ValueError("alphabet sizes must be >= 1")
        if self.bin_count < 1:
            raise ValueError("bin count must be >= 1")

    def bin_of(self, values: Sequence[int]) -> int:
        self._check_values(values)
        return sum(values) % self.bin_count

    def _check_values(self, values: Sequence[int]) -> None:
        if len(values) != len(self.sizes):
            raise PreconditionError(
                f"expected {len(self.sizes)} values, got {len(values)}"
            )
        for j, (v, s) in enumerate(zip(values, self.sizes)):
            if not (0 <= v < s):
                raise PreconditionError(f"slot {j} value {v} outside [0, {s})")


def _whole_size(size) -> int | None:
    """``size`` as an int when it is a finite integer value (an int, a numpy
    int or an integer-valued float), else None; a bool is not a size."""
    if isinstance(size, bool) or not isinstance(size, numbers.Real):
        return None
    try:
        return operator.index(size)
    except TypeError:
        value = float(size)
        return int(value) if value.is_integer() else None


def whole_sizes(sizes: Iterable[int], error: type[Exception] = ValueError) -> tuple[int, ...]:
    """Alphabet sizes as ints; raises ``error`` naming the first size that is
    not a finite integer value."""
    out = []
    for s in sizes:
        size = _whole_size(s)
        if size is None:
            raise error(f"alphabet size {s!r} is not an integer")
        out.append(size)
    return tuple(out)


def build_binning(sizes: Iterable[int]) -> BinAssignment:
    """Modular-sum binning with bin count equal to the largest slot alphabet.

    Raises ValueError for a size that is not a finite integer value.
    """
    sizes = whole_sizes(sizes)
    # An empty bundle is rejected by BinAssignment, not by max().
    return BinAssignment(sizes, max(sizes, default=0))


def decode_from_side_info(
    assignment: BinAssignment,
    bin_index: int,
    known: dict[int, int],
    target: int,
) -> int:
    """Recover the one unknown slot of a bundle from its bin index.

    Inverts the modular-sum map of :func:`build_binning`: the target value is
    the bin index minus the known values, modulo the bin count.  ``known``
    maps every slot except ``target`` to its value.  Raises DecodeError when
    that value lies outside the target's alphabet, so the bin index is
    inconsistent with the side information.
    """
    sizes, bin_count = assignment.sizes, assignment.bin_count
    m = len(sizes)
    if not (0 <= target < m):
        raise PreconditionError(f"target slot {target} out of range")
    if target in known:
        raise PreconditionError("target slot must not appear in the side information")
    if known.keys() != set(range(m)) - {target}:
        raise PreconditionError("side information must cover every slot except the target")
    if not (0 <= bin_index < bin_count):
        raise PreconditionError(f"bin index {bin_index} outside [0, {bin_count})")
    for j, v in known.items():
        if not (0 <= v < sizes[j]):
            raise PreconditionError(f"slot {j} value {v} outside its alphabet")

    value = (bin_index - sum(known.values())) % bin_count
    if value >= sizes[target]:
        raise DecodeError(
            f"no value in alphabet of size {sizes[target]} matches bin {bin_index}"
        )
    return value


def verify_binning_property(assignment: BinAssignment) -> bool:
    """Exhaustively confirm single-slot decodability of the bin map.

    For every slot j, the pair (bin index, values of the other slots) must
    determine the value of slot j.  The product of alphabet sizes is capped;
    beyond it the scan would be unreasonably slow and CapacityLimitError is
    raised instead.
    """
    total = math.prod(assignment.sizes)
    if total > _VERIFY_CAP:
        raise CapacityLimitError(
            f"bundle has {total} joint values; verification is capped at {_VERIFY_CAP}"
        )
    m = len(assignment.sizes)
    for j in range(m):
        seen: dict[tuple[int, ...], int] = {}
        for values in product(*(range(s) for s in assignment.sizes)):
            rest = values[:j] + values[j + 1 :]
            key = (assignment.bin_of(values),) + rest
            prior = seen.get(key)
            if prior is None:
                seen[key] = values[j]
            elif prior != values[j]:
                return False
    return True


def alphabet_size(rate: float, block_length: int) -> int:
    """Smallest alphabet carrying ``rate`` bits per symbol over a block."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    if block_length < 1:
        raise ValueError("block length must be >= 1")
    return max(1, math.ceil(2 ** (rate * block_length)))
