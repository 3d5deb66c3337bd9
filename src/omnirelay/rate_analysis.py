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
topology object and kept on it; ``max_achievable_rate`` bisects over that
table, one array verdict per step.
``verify_regular_line_achievability`` replays, on an equally spaced line,
the argument that those conditions follow from the rate ceiling alone, step
by numeric step, against limits likewise computed once, one array
comparison per check kind and rate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .mac_region import EPS_BITS
from .topology import Topology, build_power_matrix, distance_ordering_check

_BISECT_ITERATIONS = 60


def allcast_rate_bound(topology: Topology) -> float:
    """Ceiling on a common rate: the weakest receiver must take in n-1 messages."""
    powers = build_power_matrix(topology)
    weakest = min(powers.total_into(i) for i in range(topology.n))
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


@dataclass(frozen=True)
class RateReport:
    rate: float
    ordering: tuple[int, ...]
    entries: tuple[ConditionEntry, ...]
    achievable: bool
    binding_margin: float

    def binding_entry(self) -> ConditionEntry:
        return min(self.entries, key=ConditionEntry.best_margin)


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

    def holds(self, rate: float) -> bool:
        """Whether every row's better branch clears the strictness slack at ``rate``."""
        joint, defer = self.margins(rate)
        return bool(np.all(np.maximum(joint, defer) > EPS_BITS))


def _line_table(topology: Topology) -> _LineTable:
    """The topology's line table, built on first use and kept on ``topology``."""
    derived = topology._derived
    if "line_table" not in derived:
        derived["line_table"] = _build_line_table(topology)
    return derived["line_table"]


def _build_line_table(topology: Topology) -> _LineTable:
    order = distance_ordering_check(topology)
    if order is None:
        raise PreconditionError("the topology admits no distance ordering")
    n = topology.n
    powers = build_power_matrix(topology)
    noise = topology.noise

    # into[b][a]: received power at position b from position a (both 0-based).
    # Each signal is its own sum() over a slice of into[pos], in position
    # order.  A running prefix sum would be O(1) per entry, but it rounds
    # differently from sum() (which compensates from Python 3.12 on), and
    # that would move printed rates.
    into = [[powers.pair(order[a], order[b]) for a in range(n)] for b in range(n)]

    def capacity(signal: float, denom: float) -> float:
        return math.log2(1.0 + signal / denom)

    # (position, kind, lo, hi, joint_count, joint_cap, defer_count, defer_cap)
    rows: list[tuple] = []
    for pos in range(n):
        i = pos + 1
        col = into[pos]
        total = sum(col[:pos] + col[pos + 1:])
        rows.append((i, 0, 0, 0, n - 1, capacity(total, noise), 0, -math.inf))
        if i == 1 or i == n:
            continue
        right_all = sum(col[i:])
        left_all = sum(col[: i - 1])
        for far in range(1, i - 1):
            far_power = sum(col[:far])
            rows.append((
                i, 1, 0, far,
                far + n - i, capacity(far_power + right_all, noise),
                n - i, capacity(right_all, far_power + noise),
            ))
        for far in range(i + 2, n + 1):
            far_power = sum(col[far - 1:])
            rows.append((
                i, 2, far - 1, n,
                i + n - far, capacity(left_all + far_power, noise),
                i - 1, capacity(left_all, far_power + noise),
            ))
    columns = list(zip(*rows))
    return _LineTable(
        tuple(order),
        *(np.array(column, dtype=np.intp) for column in columns[:4]),
        *(np.array(column, dtype=float) for column in columns[4:]),
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
    table = _line_table(topology)
    order = table.order
    joint, defer = table.margins(rate)
    best = np.maximum(joint, defer)
    holds = best > EPS_BITS
    entries = tuple(
        ConditionEntry(
            receiver=order[position - 1],
            position=position,
            kind=_KINDS[kind],
            far_group=order[lo:hi],
            joint_margin=joint_margin,
            defer_margin=defer_margin if kind else None,
            holds=row_holds,
        )
        for position, kind, lo, hi, joint_margin, defer_margin, row_holds in zip(
            table.position.tolist(),
            table.kind.tolist(),
            table.lo.tolist(),
            table.hi.tolist(),
            joint.tolist(),
            defer.tolist(),
            holds.tolist(),
        )
    )
    return RateReport(
        rate=rate,
        ordering=order,
        entries=entries,
        achievable=bool(holds.all()),
        binding_margin=float(best.min()),
    )


def max_achievable_rate(topology: Topology, tol: float = 1e-6) -> float:
    """Largest common rate passing the ordered-line conditions, by bisection.

    The rate ceiling is an exclusive upper end (its sum constraint fails
    there by construction), so the search runs on [0, ceiling].  The
    conditions are the topology's one table; a step only re-evaluates the
    margins, as array operations.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    hi = allcast_rate_bound(topology)
    table = _line_table(topology)
    lo = 0.0
    if not table.holds(lo):
        return 0.0
    for _ in range(_BISECT_ITERATIONS):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if table.holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# regular line verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckWitness:
    """A single numeric step of the regular-line argument."""

    description: str
    rate: float | None
    holds: bool


@dataclass(frozen=True)
class RegularLineCheck:
    """Outcome of replaying the achievability argument on an equally spaced line.

    ``steps`` lists the comparisons that failed, so it is empty exactly when
    ``verified``; every check then passed at every sampled rate below the
    ceiling.
    """

    bound: float
    rates: tuple[float, ...]
    conditions_checked: int
    verified: bool
    steps: tuple[CheckWitness, ...]


def verify_regular_line_achievability(
    topology: Topology, samples: int = 100, seed: int = 0
) -> RegularLineCheck:
    """Check, rate sample by rate sample, that below the ceiling every
    receiver condition on an equally spaced line is satisfied.

    The argument replayed here: prefix sum constraints follow from the
    ceiling by concavity, near groups decode on their own, and each far
    group either joins a joint decode or is deferred behind a nearer relay.
    Raises PreconditionError when the node spacing is not equal.
    """
    if samples < 1:
        raise ValueError("need at least one rate sample")
    order = distance_ordering_check(topology)
    if order is None:
        raise PreconditionError("the topology admits no distance ordering")
    n = topology.n
    along = topology.distance_matrix()[np.ix_(order, order)]
    steps_apart = np.arange(n)
    want = np.abs(steps_apart[:, None] - steps_apart[None, :]) * along[0, 1]
    if np.any(np.abs(along - want) > 1e-9 * np.maximum(1.0, want)):
        raise PreconditionError("node spacing is not equal along the ordering")

    powers = build_power_matrix(topology)
    noise = topology.noise
    # step_power[k]: received power across k hops of the line (1-based).
    step_power = [0.0] * n
    for k in range(1, n):
        step_power[k] = powers.pair(order[0], order[k])
    prefix = [0.0] * n
    for k in range(1, n):
        prefix[k] = prefix[k - 1] + step_power[k]

    bound = math.log2(1.0 + prefix[n - 1] / noise) / (n - 1)
    rng = random.Random(seed)
    rates = [0.999 * bound] + [bound * rng.random() for _ in range(samples - 1)]

    steps: list[CheckWitness] = []

    def fail(description: str, rate: float | None) -> None:
        steps.append(CheckWitness(description, rate, False))

    # Rate-independent: concavity carries the ceiling down to every prefix.
    for k in range(1, n):
        lhs = (k / (n - 1)) * math.log2(1.0 + prefix[n - 1] / noise)
        rhs = math.log2(1.0 + prefix[k] / noise)
        if not lhs <= rhs + 1e-12:
            fail(f"prefix {k} concavity step", None)

    # A check "count * rate < log2(1 + signal / denom) - EPS_BITS" compares
    # the rate against a rate-independent limit, computed once here, check
    # by check, as arrays.  math.log2 keeps each limit bitwise the scalar one.
    def limits(signal: np.ndarray, denom) -> np.ndarray:
        with np.errstate(over="ignore"):
            ratio = (1.0 + signal / denom).tolist()
        return np.fromiter(map(math.log2, ratio), float, len(ratio)) - EPS_BITS

    sums = np.array(prefix)
    sum_count, sum_limit = np.arange(1, n), limits(sums[1:], noise)
    # Left-side far groups, receiver i from 3 to n - 1 and far from 1 to
    # i - 2, in that order; the mirror symmetry of equal spacing makes the
    # right-side cases identical under i -> n + 1 - i.  A group close
    # enough joins the joint decode directly; a farther one joins after its
    # self-check, and when that fails it is deferred behind the near group.
    row, col = np.tril_indices(max(n - 3, 0))
    i, far = row + 3, col + 1
    direct = i - far <= n - i + 1
    far_power = sums[i - 1] - sums[i - 1 - far]
    right_all = sums[n - i]
    joint_count, joint_limit = far + n - i, limits(far_power + right_all, noise)
    defer_count, defer_limit = n - i, limits(right_all, far_power + noise)
    self_count, self_limit = far, limits(far_power, noise)
    near_count, near_limit = i - 1 - far, limits(sums[i - 1 - far], far_power + noise)

    for rate in rates:
        for k in np.flatnonzero(~(sum_count * rate < sum_limit)).tolist():
            fail(f"prefix {k + 1} sum constraint", rate)
        deferred = ~direct & ~(self_count * rate < self_limit)
        joint_fail = ~deferred & ~(joint_count * rate < joint_limit)
        near_fail = deferred & ~(near_count * rate < near_limit)
        defer_fail = deferred & ~(defer_count * rate < defer_limit)
        # Witnesses only for failed checks, in group order, near before defer.
        for g in np.flatnonzero(joint_fail | near_fail | defer_fail).tolist():
            label = f"receiver {i[g]} far-left {far[g]}"
            if joint_fail[g]:
                how = "joint decode" if direct[g] else "joint decode after far group self-check"
                fail(f"{label}: {how}", rate)
            if near_fail[g]:
                fail(f"{label}: near group behind far noise", rate)
            if defer_fail[g]:
                fail(f"{label}: defer", rate)

    checked = (n - 1) + len(rates) * (len(sum_count) + len(i))
    return RegularLineCheck(
        bound=bound,
        rates=tuple(rates),
        conditions_checked=checked,
        verified=not steps,
        steps=tuple(steps),
    )
