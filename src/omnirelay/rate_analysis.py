"""Common-rate analysis for all-cast traffic: bounds, line conditions, bisection.

``allcast_rate_bound`` is the cut-set style ceiling at the weakest receiver.
For networks whose nodes admit a distance ordering (every node sees
non-decreasing distances moving outward along the ordering),
``ordered_line_conditions`` evaluates a sufficient condition for a common
rate: each receiver must either jointly decode a far group together with the
whole opposite side, or decode the opposite side while deferring the far
group to relayed copies.  ``verify_regular_line_achievability`` replays, on
an equally spaced line, the argument that those conditions follow from the
rate ceiling alone, step by numeric step.
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
    order = distance_ordering_check(topology)
    if order is None:
        raise PreconditionError("the topology admits no distance ordering")
    n = topology.n
    powers = build_power_matrix(topology)
    noise = topology.noise

    # q[a][b]: received power at position b from position a (both 0-based).
    q = [[powers.pair(order[a], order[b]) for b in range(n)] for a in range(n)]

    def margin(count: int, signal: float, denom: float) -> float:
        return math.log2(1.0 + signal / denom) - count * rate

    entries: list[ConditionEntry] = []
    for pos in range(n):
        i = pos + 1
        total = sum(q[a][pos] for a in range(n) if a != pos)
        m = margin(n - 1, total, noise)
        entries.append(
            ConditionEntry(
                receiver=order[pos],
                position=i,
                kind="sum",
                far_group=(),
                joint_margin=m,
                defer_margin=None,
                holds=m > EPS_BITS,
            )
        )
        if i == 1 or i == n:
            continue
        right_all = sum(q[a][pos] for a in range(i, n))
        left_all = sum(q[a][pos] for a in range(0, i - 1))
        for far in range(1, i - 1):
            far_power = sum(q[a][pos] for a in range(0, far))
            joint = margin(far + n - i, far_power + right_all, noise)
            defer = margin(n - i, right_all, far_power + noise)
            entries.append(
                ConditionEntry(
                    receiver=order[pos],
                    position=i,
                    kind="far-left",
                    far_group=tuple(order[a] for a in range(0, far)),
                    joint_margin=joint,
                    defer_margin=defer,
                    holds=max(joint, defer) > EPS_BITS,
                )
            )
        for far in range(i + 2, n + 1):
            far_power = sum(q[a][pos] for a in range(far - 1, n))
            joint = margin(i + n - far, left_all + far_power, noise)
            defer = margin(i - 1, left_all, far_power + noise)
            entries.append(
                ConditionEntry(
                    receiver=order[pos],
                    position=i,
                    kind="far-right",
                    far_group=tuple(order[a] for a in range(far - 1, n)),
                    joint_margin=joint,
                    defer_margin=defer,
                    holds=max(joint, defer) > EPS_BITS,
                )
            )

    achievable = all(e.holds for e in entries)
    binding = min(e.best_margin() for e in entries)
    return RateReport(
        rate=rate,
        ordering=tuple(order),
        entries=tuple(entries),
        achievable=achievable,
        binding_margin=binding,
    )


def max_achievable_rate(topology: Topology, tol: float = 1e-6) -> float:
    """Largest common rate passing the ordered-line conditions, by bisection.

    The rate ceiling is an exclusive upper end (its sum constraint fails
    there by construction), so the search runs on [0, ceiling].
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    hi = allcast_rate_bound(topology)
    lo = 0.0
    if not ordered_line_conditions(topology, lo).achievable:
        return 0.0
    for _ in range(_BISECT_ITERATIONS):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if ordered_line_conditions(topology, mid).achievable:
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
    verified = True
    checked = 0

    def record(description: str, rate: float | None, holds: bool) -> bool:
        nonlocal verified
        if not holds:
            verified = False
            steps.append(CheckWitness(description, rate, holds))
        return holds

    # Rate-independent: concavity carries the ceiling down to every prefix.
    for k in range(1, n):
        checked += 1
        lhs = (k / (n - 1)) * math.log2(1.0 + prefix[n - 1] / noise)
        rhs = math.log2(1.0 + prefix[k] / noise)
        record(f"prefix {k} concavity step", None, lhs <= rhs + 1e-12)

    def strict(count: int, signal: float, denom: float, rate: float) -> bool:
        return count * rate < math.log2(1.0 + signal / denom) - EPS_BITS

    for rate in rates:
        for k in range(1, n):
            checked += 1
            record(f"prefix {k} sum constraint", rate, strict(k, prefix[k], noise, rate))
        # Left-side far groups; the mirror symmetry of equal spacing makes
        # the right-side cases identical under i -> n + 1 - i.
        for i in range(3, n):
            right_all = prefix[n - i]
            for far in range(1, i - 1):
                checked += 1
                far_power = prefix[i - 1] - prefix[i - 1 - far]
                joint_ok = strict(far + n - i, far_power + right_all, noise, rate)
                defer_ok = strict(n - i, right_all, far_power + noise, rate)
                label = f"receiver {i} far-left {far}"
                if i - far <= n - i + 1:
                    record(f"{label}: joint decode", rate, joint_ok)
                elif strict(far, far_power, noise, rate):
                    record(f"{label}: joint decode after far group self-check", rate, joint_ok)
                else:
                    near_power = prefix[i - 1 - far]
                    near_ok = strict(i - 1 - far, near_power, far_power + noise, rate)
                    record(f"{label}: near group behind far noise", rate, near_ok)
                    record(f"{label}: defer", rate, defer_ok)

    return RegularLineCheck(
        bound=bound,
        rates=tuple(rates),
        conditions_checked=checked,
        verified=verified,
        steps=tuple(steps),
    )
