"""Deterministic binning of message bundles and side-information decoding.

A relay forwards several already-decoded messages in one block by sending a
single bin index instead of the full tuple.  The bin map here is the modular
sum of the message values with the bin count fixed to the largest alphabet in
the bundle; a receiver that already knows all but one bundle entry can then
recover the missing one exactly.

Both the map (``BinAssignment.bin_of``) and its inverse
(:func:`decode_from_side_info`) also take a batch: bundles along the leading
axis of numpy arrays, checked with one vector test per call and mapped by
the same expression as a single bundle.  A batch holds values as int64
while every sum of a bundle's values fits, and as Python ints (dtype
``object``) beyond that, so the map is exact for any alphabet.  A single
bundle of ints maps to an int.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityLimitError, DecodeError, PreconditionError

_VERIFY_CAP = 10**6
_INT64_MAX = int(np.iinfo(np.int64).max)


def _first_outside(values: np.ndarray, limits) -> tuple[int, ...] | None:
    """The index of the first entry of ``values`` outside ``[0, limits)``,
    with ``limits`` broadcast against it, or None when every entry lies inside."""
    outside = np.asarray((values < 0) | (values >= limits))
    if not outside.any():
        return None
    return np.unravel_index(outside.argmax(), outside.shape)


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

    @cached_property
    def dtype(self) -> type:
        """The array dtype of this bundle's values: int64 while every size and
        the largest sum of slot values fit it, ``object`` (Python ints) otherwise."""
        span = max(sum(s - 1 for s in self.sizes), *self.sizes, self.bin_count)
        return np.int64 if span <= _INT64_MAX else object

    def _as_array(self, values) -> np.ndarray:
        """``values`` as an array whose sums of slot values are exact: integers
        as this bundle's ``dtype`` (as Python ints where that dtype cannot hold
        them), other values as they are."""
        values = np.asarray(values)
        if values.dtype.kind not in "iub" and values.size:
            return values
        dtype = self.dtype if np.can_cast(values.dtype, self.dtype) else object
        return values.astype(dtype, copy=False)

    def bin_of(self, values: Sequence[int] | np.ndarray) -> int | np.ndarray:
        """The bin index of one bundle's values, or of every row of a
        ``(k, m)`` array of bundles (then a length-k array)."""
        return sum(self._check_values(values)) % self.bin_count

    def _check_values(self, values) -> Sequence:
        """The slots of ``values``, checked: the values of one bundle, or the
        columns of a batch.  Raises PreconditionError for a wrong slot count
        or a value outside its slot's alphabet."""
        batch = getattr(values, "ndim", 1) == 2
        count = values.shape[1] if batch else len(values)
        if count != len(self.sizes):
            raise PreconditionError(f"expected {len(self.sizes)} values, got {count}")
        if not batch:
            for j, (v, s) in enumerate(zip(values, self.sizes)):
                if not (0 <= v < s):
                    raise PreconditionError(f"slot {j} value {v} outside [0, {s})")
            return values
        values = self._as_array(values)
        bad = _first_outside(values, np.array(self.sizes, dtype=self.dtype))
        if bad is not None:
            row, j = bad
            raise PreconditionError(f"slot {j} value {values[row, j]} outside [0, {self.sizes[j]})")
        return values.T


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
    bin_index: int | np.ndarray,
    known: dict[int, int | np.ndarray],
    target: int,
) -> int | np.ndarray:
    """Recover the one unknown slot of a bundle from its bin index.

    Inverts the modular-sum map of :func:`build_binning`: the target value is
    the bin index minus the known values, modulo the bin count.  ``known``
    maps every slot except ``target`` to its value.  Raises DecodeError when
    that value lies outside the target's alphabet, so the bin index is
    inconsistent with the side information.

    A batch decodes k bundles of one assignment at once: ``bin_index`` and
    every value of ``known`` are length-k arrays, and so is the result.  A
    batch checks its inputs with one vector test and raises the error a call
    on a bad row raises, naming one bad row.  A single bundle returns a
    scalar, an int for int values.
    """
    sizes, bin_count = assignment.sizes, assignment.bin_count
    m = len(sizes)
    if not (0 <= target < m):
        raise PreconditionError(f"target slot {target} out of range")
    if target in known:
        raise PreconditionError("target slot must not appear in the side information")
    if known.keys() != set(range(m)) - {target}:
        raise PreconditionError("side information must cover every slot except the target")
    slots = list(known)
    try:
        # Row 0 is the bin index, row r > 0 the value of slot slots[r - 1].
        rows = assignment._as_array([bin_index, *known.values()])
    except ValueError:  # rows of unequal lengths
        rows = None
    if rows is None or rows.ndim > 2:
        raise PreconditionError("a batch needs one bin index and one value per slot in each row")
    limits = np.array([bin_count, *(sizes[j] for j in slots)], dtype=assignment.dtype)
    bad = _first_outside(rows, limits.reshape((-1,) + (1,) * (rows.ndim - 1)))
    if bad is not None:
        if bad[0] == 0:
            raise PreconditionError(f"bin index {rows[bad]} outside [0, {bin_count})")
        raise PreconditionError(f"slot {slots[bad[0] - 1]} value {rows[bad]} outside its alphabet")

    index = rows[0]
    value = (index - rows[1:].sum(axis=0)) % bin_count
    # A value below the bin count always fits an alphabet as large.
    if sizes[target] < bin_count:
        wrong = np.asarray(value >= sizes[target])
        if wrong.any():
            raise DecodeError(
                f"no value in alphabet of size {sizes[target]} matches bin "
                f"{np.asarray(index)[wrong][0]}"
            )
    return value if rows.ndim == 2 else np.asarray(value).item()


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
