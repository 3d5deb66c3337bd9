"""Deterministic binning of message bundles and side-information decoding.

A relay forwards several already-decoded messages in one block by sending a
single bin index instead of the full tuple.  The bin map here is the modular
sum of the message values with the bin count fixed to the largest alphabet in
the bundle; a receiver that already knows all but one bundle entry can then
recover the missing one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

from .errors import CapacityLimitError, DecodeError, PreconditionError

_VERIFY_CAP = 10**6


@dataclass(frozen=True)
class BinAssignment:
    """Bin map over a bundle of message alphabets.

    ``sizes[j]`` is the alphabet size of slot j; ``bin_count`` the number of
    bin indices; ``rule`` the map itself.  ``kind`` names the construction so
    downstream code can use the closed-form inverse when it applies.
    """

    sizes: tuple[int, ...]
    bin_count: int
    kind: str = field(default="modular-sum")

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


def build_binning(sizes: Iterable[int]) -> BinAssignment:
    """Modular-sum binning with bin count equal to the largest slot alphabet."""
    sizes = tuple(int(s) for s in sizes)
    # An empty bundle is rejected by BinAssignment, not by max().
    assignment = BinAssignment(sizes, max(sizes, default=0))
    return assignment


def decode_from_side_info(
    assignment: BinAssignment,
    bin_index: int,
    known: dict[int, int],
    target: int,
) -> int:
    """Recover the one unknown slot of a bundle from its bin index.

    ``known`` maps every slot except ``target`` to its value.  Raises
    DecodeError when the bin index is inconsistent with the side information
    (no candidate value, or several).
    """
    m = len(assignment.sizes)
    if not (0 <= target < m):
        raise PreconditionError(f"target slot {target} out of range")
    if target in known:
        raise PreconditionError("target slot must not appear in the side information")
    if sorted(known) != [j for j in range(m) if j != target]:
        raise PreconditionError("side information must cover every slot except the target")
    if not (0 <= bin_index < assignment.bin_count):
        raise PreconditionError(f"bin index {bin_index} outside [0, {assignment.bin_count})")
    for j, v in known.items():
        if not (0 <= v < assignment.sizes[j]):
            raise PreconditionError(f"slot {j} value {v} outside its alphabet")

    if assignment.kind == "modular-sum":
        value = (bin_index - sum(known.values())) % assignment.bin_count
        if value >= assignment.sizes[target]:
            raise DecodeError(
                f"no value in alphabet of size {assignment.sizes[target]} "
                f"matches bin {bin_index}"
            )
        return value

    # Generic fallback: scan the target alphabet for matches.
    hits = []
    for v in range(assignment.sizes[target]):
        values = [0] * m
        for j, kv in known.items():
            values[j] = kv
        values[target] = v
        if assignment.bin_of(values) == bin_index:
            hits.append(v)
    if len(hits) != 1:
        raise DecodeError(
            f"side information leaves {len(hits)} candidates for slot {target}"
        )
    return hits[0]


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
