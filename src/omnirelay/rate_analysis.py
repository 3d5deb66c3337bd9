"""Common-rate analysis for all-cast traffic: bounds, line conditions, bisection.

``allcast_rate_bound`` is the cut-set style ceiling at the weakest receiver.
For networks whose nodes admit a distance ordering (every node sees
non-decreasing distances moving outward along the ordering),
``ordered_line_conditions`` evaluates a sufficient condition for a common
rate: each receiver must either jointly decode a far group together with the
whole opposite side, or decode the opposite side while deferring the far
group to relayed copies.  Every such condition reads ``log2(1 + S/D) >
count * rate`` with S, D and count independent of the rate, so the
conditions are one rate-independent table of arrays, built once per
topology object and kept on it.  A ``RateReport`` is that table read at
one rate, and ``max_achievable_rate`` bisects over such reads.
``verify_regular_line_achievability`` reads the same table on an equally
spaced line: ``regular_line_verified`` means equal spacing, and the line
conditions hold at 0.999 * bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .mac_region import EPS_BITS
from .topology import Topology, build_power_matrix, distance_ordering_check

_BISECT_ITERATIONS = 60


def allcast_rate_bound(topology: Topology) -> float:
    """Ceiling on a common rate: the weakest receiver must take in n-1 messages."""
    # Each receiver's total is numpy's pairwise sum of its column, taken in
    # one reduction over the contiguous rows of the transpose.  A sum over
    # axis 0 of ``received`` would add left to right instead, and could move
    # the last bit of the printed bound.
    received = build_power_matrix(topology)
    weakest = float(np.ascontiguousarray(received.T).sum(axis=1).min())
    return math.log2(1.0 + weakest / topology.noise) / (topology.n - 1)


@dataclass(frozen=True)
class ConditionEntry:
    """One receiver-side constraint pair (or plain sum constraint).

    ``joint_margin`` is slack of decoding the far group together with the
    whole opposite side; ``defer_margin`` is slack of decoding the opposite
    side with the far group left as noise (None for sum constraints).
    Positive margin means satisfied; the entry holds when its best branch
    clears the strictness slack.
    """

    receiver: int
    position: int
    kind: str
    far_group: tuple[int, ...]
    joint_margin: float
    defer_margin: float | None
    holds: bool

    def best_margin(self) -> float:
        if self.defer_margin is None:
            return self.joint_margin
        return max(self.joint_margin, self.defer_margin)


_KINDS = ("sum", "far-left", "far-right")


@dataclass(frozen=True, eq=False)
class _LineTable:
    """The ordering and the rate-independent rows of the ordered-line conditions.

    One row per ``ConditionEntry``, in entry order, held column by column.
    Row k belongs to the receiver at 1-based ``position[k]``, its kind is
    ``_KINDS[kind[k]]`` and its far group is ``order[lo[k]:hi[k]]``.  A
    branch's margin at ``rate`` is ``cap - count * rate``; a sum row has only
    the joint branch, and its defer branch (count 0, cap -inf) never wins.
    """

    order: tuple[int, ...]
    position: np.ndarray
    kind: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    joint_count: np.ndarray
    joint_cap: np.ndarray
    defer_count: np.ndarray
    defer_cap: np.ndarray

    def margins(self, rate: float) -> tuple[np.ndarray, np.ndarray]:
        """Joint and defer margins of every row at ``rate``.

        The same IEEE operations as on Python floats, so every margin is
        bitwise the scalar one; a product too large overflows to inf as it
        does in Python, without a warning.
        """
        with np.errstate(over="ignore"):
            return (
                self.joint_cap - self.joint_count * rate,
                self.defer_cap - self.defer_count * rate,
            )


@dataclass(frozen=True, eq=False)
class RateReport:
    """The ordered-line conditions at one rate: a line table read at ``rate``.

    The joint, defer and best margin arrays are computed once, when the
    report is made; the ordering, the verdict and the binding margin are
    read off them.  ``entries`` is a read-only sequence of
    ``ConditionEntry`` that builds an entry only when one is read.  Reports
    compare and hash by identity.
    """

    rate: float
    table: _LineTable = field(repr=False)
    _joint: np.ndarray = field(init=False, repr=False)
    _defer: np.ndarray = field(init=False, repr=False)
    _best: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        joint, defer = self.table.margins(self.rate)
        object.__setattr__(self, "_joint", joint)
        object.__setattr__(self, "_defer", defer)
        object.__setattr__(self, "_best", np.maximum(joint, defer))

    @property
    def entries(self) -> ConditionEntries:
        # Made per read: held, they would put the report in a reference cycle.
        return ConditionEntries(self)

    @property
    def ordering(self) -> tuple[int, ...]:
        return self.table.order

    @property
    def achievable(self) -> bool:
        """Whether every row's better branch clears the strictness slack."""
        return bool(np.all(self._best > EPS_BITS))

    @property
    def binding_margin(self) -> float:
        return float(self._best.min())

    def binding_entry(self) -> ConditionEntry:
        """The first entry of smallest best margin, the only one built."""
        return self.entries[int(np.argmin(self._best))]


class ConditionEntries(Sequence):
    """The entries of a ``RateReport``, built from its arrays on read.

    ``len`` is the row count; an index or a slice builds the
    ``ConditionEntry`` of just the rows asked (a slice gives a tuple).
    """

    __slots__ = ("_report",)

    def __init__(self, report: RateReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report._best)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return tuple(map(self._entry, rows))
        return self._entry(rows)

    def _entry(self, k: int) -> ConditionEntry:
        report, table = self._report, self._report.table
        position, kind = table.position[k].item(), table.kind[k].item()
        return ConditionEntry(
            receiver=table.order[position - 1],
            position=position,
            kind=_KINDS[kind],
            far_group=table.order[table.lo[k]:table.hi[k]],
            joint_margin=report._joint[k].item(),
            defer_margin=report._defer[k].item() if kind else None,
            holds=bool(report._best[k] > EPS_BITS),
        )


def _line_table(topology: Topology) -> _LineTable:
    """The topology's line table, built on first use and kept on ``topology``."""
    derived = topology._derived
    if "line_table" not in derived:
        derived["line_table"] = _build_line_table(topology)
    return derived["line_table"]


def _capacities(signal: np.ndarray, denom) -> np.ndarray:
    """``log2(1 + signal / denom)`` per element, each bitwise the scalar value.

    The division and the addition are the IEEE operations of Python floats
    (a quotient too large overflows to inf, without a warning), and
    ``math.log2`` takes each logarithm, since numpy's may differ in the last
    bit.
    """
    with np.errstate(over="ignore"):
        ratio = (1.0 + signal / denom).tolist()
    return np.fromiter(map(math.log2, ratio), float, len(ratio))


def _chain_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every prefix and suffix sum of every row of nonnegative floats.

    For an (r, m) array, returns two (r, m + 1) arrays with ``prefix[a, k]``
    the sum of ``rows[a, :k]`` and ``suffix[a, s]`` that of ``rows[a, s:]``,
    each added left to right from 0, on every Python.  Every suffix chain
    moves one term per step, all chains at once, so the work is O(r * m**2)
    in m array operations; the chain from column 0 passes through every
    prefix on its way.
    """
    r, m = rows.shape
    prefix = np.zeros((r, m + 1))
    suffix = np.zeros((r, m + 1))
    # Chain s runs in f[:, s], from 0: 0 + x is 0.0 + x for a float x.
    f = suffix[:, :m]
    with np.errstate(over="ignore"):
        for step in range(m):
            f[:, : m - step] += rows[:, step:]
            prefix[:, step + 1] = f[:, 0]
    return prefix, suffix


def _ordering(topology: Topology) -> tuple[int, ...]:
    order = distance_ordering_check(topology)
    if order is None:
        raise PreconditionError("the topology admits no distance ordering")
    return order


def _build_line_table(topology: Topology) -> _LineTable:
    order = _ordering(topology)
    n = topology.n
    noise = topology.noise

    # into[b, a]: received power at position b from position a (both 0-based,
    # the diagonal zero).  Every signal below is the left-to-right sum of a
    # slice of a row, in position order: a far group or a side is a prefix
    # or a suffix.  The sum row skips the diagonal, but adding a zero moves
    # no bit of a sum of nonnegatives, so it is the whole row.
    into = build_power_matrix(topology).T[np.ix_(order, order)]
    prefix, suffix = _chain_sums(into)

    # Receiver i (1-based) owns a block of rows: its sum row, then, when
    # 1 < i < n, its far-left groups order[:far] for far from 1 to i - 2 and
    # its far-right groups order[far - 1:] for far from i + 2 to n.  Slot j
    # of the block is the sum row at 0, far-left far = j, or far-right
    # far = j + 3.  A row's joint branch decodes its far group
    # order[lo:hi] with the side (a sum row: everything, no far group); its
    # defer branch decodes the side with the far group as noise.
    receivers = np.arange(1, n + 1, dtype=np.intp)
    block = np.where((receivers == 1) | (receivers == n), 1, n - 2)
    i = np.repeat(receivers, block)
    j = np.arange(len(i), dtype=np.intp) - np.repeat(np.cumsum(block) - block, block)
    kind = np.where(j == 0, 0, np.where(j <= i - 2, 1, 2))
    left, right = kind == 1, kind == 2
    far = j + 3 * right
    lo = np.where(right, far - 1, 0)
    hi = np.where(right, n, far)
    defer_count = np.where(left, n - i, np.where(right, i - 1, 0))
    joint_count = np.where(kind == 0, n - 1, hi - lo + defer_count)

    # A far group is a suffix on the right, else a prefix (empty for a sum
    # row); the side is the other end of the row, or the whole row.
    pos = i - 1
    far_power = np.where(right, suffix[pos, lo], prefix[pos, hi])
    side_power = np.where(left, suffix[pos, i], prefix[pos, np.where(right, i - 1, n)])
    defer_cap = _capacities(side_power, far_power + noise)
    defer_cap[kind == 0] = -math.inf
    return _LineTable(
        tuple(order),
        i,
        kind,
        lo,
        hi,
        joint_count.astype(float),
        _capacities(far_power + side_power, noise),
        defer_count.astype(float),
        defer_cap,
    )


def ordered_line_conditions(topology: Topology, rate: float) -> RateReport:
    """Evaluate the per-receiver decode-or-defer conditions at a common rate.

    Requires a distance ordering; raises PreconditionError without one.
    Entries cover, per receiver: the plain sum constraint, and for every far
    group on either side (leaving at least one nearer relay) the joint/defer
    pair.  All constraints scale linearly with the rate, so the verdict is
    monotone and safe to bisect on.
    """
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and nonnegative")
    return RateReport(rate, _line_table(topology))


def max_achievable_rate(topology: Topology, tol: float = 1e-6) -> float:
    """Largest common rate passing the ordered-line conditions, by bisection.

    The rate ceiling is an exclusive upper end (its sum constraint fails
    there by construction), so the search runs on [0, ceiling].  The
    conditions are the topology's one table; a step only reads it at one
    more rate, as array operations.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    hi = allcast_rate_bound(topology)
    table = _line_table(topology)
    lo = 0.0
    if not RateReport(lo, table).achievable:
        return 0.0
    for _ in range(_BISECT_ITERATIONS):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if RateReport(mid, table).achievable:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# regular line verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularLineCheck:
    """The line table of an equally spaced line, read at 0.999 of its ceiling.

    The line is ``verified`` when the table holds at 0.999 * ``bound``.  A
    margin ``cap - count * rate`` with ``count >= 0`` cannot rise with the
    rate, so that one read speaks for every rate below it.
    ``conditions_checked`` is the table's row count.
    """

    bound: float
    conditions_checked: int
    verified: bool


def verify_regular_line_achievability(topology: Topology) -> RegularLineCheck:
    """Check that on an equally spaced line every ordered-line condition
    holds at 0.999 of the rate ceiling.

    Raises PreconditionError when the topology admits no distance ordering
    or its node spacing is not equal along it.
    """
    order = _ordering(topology)
    n = topology.n
    along = topology.distances[np.ix_(order, order)]
    steps_apart = np.arange(n)
    want = np.abs(steps_apart[:, None] - steps_apart[None, :]) * along[0, 1]
    if np.any(np.abs(along - want) > 1e-9 * np.maximum(1.0, want)):
        raise PreconditionError("node spacing is not equal along the ordering")

    # The ceiling of the end node's row, its powers added left to right.
    total = 0.0
    for power in build_power_matrix(topology)[order[0], list(order)].tolist():
        total += power
    bound = math.log2(1.0 + total / topology.noise) / (n - 1)

    table = _line_table(topology)
    return RegularLineCheck(
        bound=bound,
        conditions_checked=len(table.position),
        verified=RateReport(0.999 * bound, table).achievable,
    )
