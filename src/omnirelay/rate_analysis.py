"""Common-rate analysis for all-cast traffic: bounds, line conditions, bisection.

``allcast_rate_bound`` is the cut-set style ceiling at the weakest receiver.
For networks whose nodes admit a distance ordering (every node sees
non-decreasing distances moving outward along the ordering),
``ordered_line_conditions`` evaluates a sufficient condition for a common
rate: each receiver must either jointly decode a far group together with the
whole opposite side, or decode the opposite side while deferring the far
group to relayed copies.  Every such condition reads ``log2(1 + S/D) >
count * rate`` with S, D and count independent of the rate, so the
conditions are one rate-independent table, built once per call;
``max_achievable_rate`` bisects over that table.
``verify_regular_line_achievability`` replays, on an equally spaced line,
the argument that those conditions follow from the rate ceiling alone, step
by numeric step, against limits likewise computed once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
        return min(self.entries, key=lambda e: e.best_margin())


def _line_table(topology: Topology) -> tuple[tuple[int, ...], list[tuple]]:
    """The ordering and the rate-independent rows of the ordered-line conditions.

    One row per ``ConditionEntry``, in entry order: ``(position, kind, lo, hi,
    joint_count, joint_cap, defer_count, defer_cap)``.  The far group is
    ``ordering[lo:hi]``, a branch's margin at ``rate`` is ``cap - count * rate``
    (``_row_margins``), and the defer pair is None on sum rows.
    """
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

    rows: list[tuple] = []
    for pos in range(n):
        i = pos + 1
        col = into[pos]
        total = sum(col[:pos] + col[pos + 1:])
        rows.append((i, "sum", 0, 0, n - 1, capacity(total, noise), None, None))
        if i == 1 or i == n:
            continue
        right_all = sum(col[i:])
        left_all = sum(col[: i - 1])
        for far in range(1, i - 1):
            far_power = sum(col[:far])
            rows.append((
                i, "far-left", 0, far,
                far + n - i, capacity(far_power + right_all, noise),
                n - i, capacity(right_all, far_power + noise),
            ))
        for far in range(i + 2, n + 1):
            far_power = sum(col[far - 1:])
            rows.append((
                i, "far-right", far - 1, n,
                i + n - far, capacity(left_all + far_power, noise),
                i - 1, capacity(left_all, far_power + noise),
            ))
    return tuple(order), rows


def _row_margins(row: tuple, rate: float) -> tuple[float, float | None, bool]:
    """Joint margin, defer margin (None on a sum row) and verdict of a row at ``rate``."""
    _, _, _, _, joint_count, joint_cap, defer_count, defer_cap = row
    joint = joint_cap - joint_count * rate
    if defer_count is None:
        return joint, None, joint > EPS_BITS
    defer = defer_cap - defer_count * rate
    return joint, defer, max(joint, defer) > EPS_BITS


def _all_rows_hold(rows: list[tuple], rate: float) -> bool:
    """Whether ``_row_margins(row, rate)`` holds on every row; inlined, as the
    bisection calls it once per step on every row of the table."""
    for _, _, _, _, joint_count, joint_cap, defer_count, defer_cap in rows:
        joint = joint_cap - joint_count * rate
        if defer_count is None:
            if not joint > EPS_BITS:
                return False
        elif not max(joint, defer_cap - defer_count * rate) > EPS_BITS:
            return False
    return True


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
    order, rows = _line_table(topology)
    entries: list[ConditionEntry] = []
    for row in rows:
        position, kind, lo, hi = row[:4]
        joint, defer, holds = _row_margins(row, rate)
        entries.append(
            ConditionEntry(
                receiver=order[position - 1],
                position=position,
                kind=kind,
                far_group=order[lo:hi],
                joint_margin=joint,
                defer_margin=defer,
                holds=holds,
            )
        )

    achievable = all(e.holds for e in entries)
    binding = min(e.best_margin() for e in entries)
    return RateReport(
        rate=rate,
        ordering=order,
        entries=tuple(entries),
        achievable=achievable,
        binding_margin=binding,
    )


def max_achievable_rate(topology: Topology, tol: float = 1e-6) -> float:
    """Largest common rate passing the ordered-line conditions, by bisection.

    The rate ceiling is an exclusive upper end (its sum constraint fails
    there by construction), so the search runs on [0, ceiling].  The
    conditions are tabulated once; a step only re-evaluates the margins.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    hi = allcast_rate_bound(topology)
    _, rows = _line_table(topology)
    lo = 0.0
    if not _all_rows_hold(rows, lo):
        return 0.0
    for _ in range(_BISECT_ITERATIONS):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if _all_rows_hold(rows, mid):
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
    dist = topology.distances
    spacing = dist[order[0]][order[1]] if n >= 2 else 0.0
    for a in range(n):
        for b in range(n):
            want = abs(a - b) * spacing
            if abs(dist[order[a]][order[b]] - want) > 1e-9 * max(1.0, want):
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
    # the rate against a rate-independent limit, computed once here.
    def limit(signal: float, denom: float) -> float:
        return math.log2(1.0 + signal / denom) - EPS_BITS

    sum_limits = [(k, limit(prefix[k], noise)) for k in range(1, n)]
    # Left-side far groups; the mirror symmetry of equal spacing makes
    # the right-side cases identical under i -> n + 1 - i.  Per group:
    # label, joint and defer (count, limit), and for a group too far to
    # join directly its self-check and near-group (count, limit) pairs.
    far_checks = []
    for i in range(3, n):
        right_all = prefix[n - i]
        for far in range(1, i - 1):
            far_power = prefix[i - 1] - prefix[i - 1 - far]
            joint = (far + n - i, limit(far_power + right_all, noise))
            defer = (n - i, limit(right_all, far_power + noise))
            if i - far <= n - i + 1:
                self_check = near = None
            else:
                self_check = (far, limit(far_power, noise))
                near = (i - 1 - far, limit(prefix[i - 1 - far], far_power + noise))
            far_checks.append((f"receiver {i} far-left {far}", joint, defer, self_check, near))

    for rate in rates:
        for k, sum_limit in sum_limits:
            if not k * rate < sum_limit:
                fail(f"prefix {k} sum constraint", rate)
        for label, joint, defer, self_check, near in far_checks:
            if self_check is None:
                if not joint[0] * rate < joint[1]:
                    fail(f"{label}: joint decode", rate)
            elif self_check[0] * rate < self_check[1]:
                if not joint[0] * rate < joint[1]:
                    fail(f"{label}: joint decode after far group self-check", rate)
            else:
                if not near[0] * rate < near[1]:
                    fail(f"{label}: near group behind far noise", rate)
                if not defer[0] * rate < defer[1]:
                    fail(f"{label}: defer", rate)

    checked = (n - 1) + len(rates) * (len(sum_limits) + len(far_checks))
    return RegularLineCheck(
        bound=bound,
        rates=tuple(rates),
        conditions_checked=checked,
        verified=not steps,
        steps=tuple(steps),
    )
