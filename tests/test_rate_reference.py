"""The line analysis against the bisection it replaced, which re-evaluated every condition per step.

The ``reference_*`` functions are the per-step implementations of
``ordered_line_conditions``, ``max_achievable_rate`` and
``verify_regular_line_achievability`` from before the conditions became one
rate-independent table, copied verbatim apart from their names, their
float totals, which add left to right from 0 as ``sum()`` did before Python
3.12 and as the package does on every Python, and their results: a report
is the plain tuple of its rate, ordering, entries, verdict and binding
margin, and a check the plain tuple of its bound, its rates and its failed
steps, each a (description, rate) pair.  Every report's facts and every
bound must be ``==`` to theirs: the table must change nothing but the
amount of work.  The package's verifier reads the table at 0.999 of the
bound, the one rate of the replay at ``samples=1``, and its verdict is the
replay's there, except where the replay's fixed strictness slack outweighs
a bound below 1e-6 bits (see ``test_the_table_verdict_matches_the_replay``).
"""

import json
import math
import operator
import random
from functools import reduce

import pytest

from omnirelay import cli
from omnirelay.errors import PreconditionError
from omnirelay.mac_region import EPS_BITS
from omnirelay.rate_analysis import (
    ConditionEntry,
    allcast_rate_bound,
    max_achievable_rate,
    ordered_line_conditions,
    verify_regular_line_achievability,
)
from omnirelay.topology import (
    GainFunction,
    Topology,
    build_power_matrix,
    constant,
    distance_ordering_check,
    exponential,
    general_line,
    power_law,
    regular_line,
)

_BISECT_ITERATIONS = 60


def reference_ordered_line_conditions(topology: Topology, rate: float) -> tuple:
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
    powers = build_power_matrix(topology).tolist()
    noise = topology.noise

    # q[a][b]: received power at position b from position a (both 0-based).
    q = [[powers[order[a]][order[b]] for b in range(n)] for a in range(n)]

    def margin(count: int, signal: float, denom: float) -> float:
        return math.log2(1.0 + signal / denom) - count * rate

    entries: list[ConditionEntry] = []
    for pos in range(n):
        i = pos + 1
        total = reduce(operator.add, (q[a][pos] for a in range(n) if a != pos), 0)
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
        right_all = reduce(operator.add, (q[a][pos] for a in range(i, n)), 0)
        left_all = reduce(operator.add, (q[a][pos] for a in range(0, i - 1)), 0)
        for far in range(1, i - 1):
            far_power = reduce(operator.add, (q[a][pos] for a in range(0, far)), 0)
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
            far_power = reduce(operator.add, (q[a][pos] for a in range(far - 1, n)), 0)
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
    return rate, tuple(order), tuple(entries), achievable, binding


def reference_max_achievable_rate(topology: Topology, tol: float = 1e-6) -> float:
    """Largest common rate passing the ordered-line conditions, by bisection.

    The rate ceiling is an exclusive upper end (its sum constraint fails
    there by construction), so the search runs on [0, ceiling].
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    hi = allcast_rate_bound(topology)
    lo = 0.0
    if not reference_ordered_line_conditions(topology, lo)[3]:
        return 0.0
    for _ in range(_BISECT_ITERATIONS):
        if hi - lo <= tol:
            break
        mid = (lo + hi) / 2.0
        if reference_ordered_line_conditions(topology, mid)[3]:
            lo = mid
        else:
            hi = mid
    return lo


def reference_verify_regular_line_achievability(
    topology: Topology, samples: int = 100, seed: int = 0
) -> tuple:
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
    dist = topology.distances.tolist()
    spacing = dist[order[0]][order[1]] if n >= 2 else 0.0
    for a in range(n):
        for b in range(n):
            want = abs(a - b) * spacing
            if abs(dist[order[a]][order[b]] - want) > 1e-9 * max(1.0, want):
                raise PreconditionError("node spacing is not equal along the ordering")

    powers = build_power_matrix(topology).tolist()
    noise = topology.noise
    # step_power[k]: received power across k hops of the line (1-based).
    step_power = [0.0] * n
    for k in range(1, n):
        step_power[k] = powers[order[0]][order[k]]
    prefix = [0.0] * n
    for k in range(1, n):
        prefix[k] = prefix[k - 1] + step_power[k]

    bound = math.log2(1.0 + prefix[n - 1] / noise) / (n - 1)
    rng = random.Random(seed)
    rates = [0.999 * bound] + [bound * rng.random() for _ in range(samples - 1)]

    steps: list[tuple[str, float | None]] = []

    def record(description: str, rate: float | None, holds: bool) -> bool:
        if not holds:
            steps.append((description, rate))
        return holds

    # Rate-independent: concavity carries the ceiling down to every prefix.
    for k in range(1, n):
        lhs = (k / (n - 1)) * math.log2(1.0 + prefix[n - 1] / noise)
        rhs = math.log2(1.0 + prefix[k] / noise)
        record(f"prefix {k} concavity step", None, lhs <= rhs + 1e-12)

    def strict(count: int, signal: float, denom: float, rate: float) -> bool:
        return count * rate < math.log2(1.0 + signal / denom) - EPS_BITS

    for rate in rates:
        for k in range(1, n):
            record(f"prefix {k} sum constraint", rate, strict(k, prefix[k], noise, rate))
        # Left-side far groups; the mirror symmetry of equal spacing makes
        # the right-side cases identical under i -> n + 1 - i.
        for i in range(3, n):
            right_all = prefix[n - i]
            for far in range(1, i - 1):
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

    return bound, tuple(rates), tuple(steps)


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------

GAINS = {
    "pl2": power_law(2.0),
    "pl3": power_law(3.0),
    "exp": exponential(0.5),
    "const": constant(),
}
RATE_FACTORS = (0.0, 0.3, 0.999, 1.001, 1.2)


def random_lines(count, seed):
    """Irregular lines, so far-left and far-right groups of a receiver differ."""
    rng = random.Random(seed)
    for _ in range(count):
        coords = [0.0]
        for _ in range(rng.randint(2, 9)):
            coords.append(coords[-1] + rng.uniform(0.3, 3.0))
        gain = rng.choice(list(GAINS.values()))
        yield general_line(coords, gain, rng.choice([1.0, 3.0, 10.0, 40.0]), 1.0)


def long_uneven_lines(count, seed):
    """Uneven lines of 30 to 60 nodes, in shuffled label order: long sums,
    whose last bits move when a term is added out of order or with
    compensation."""
    rng = random.Random(seed)
    for _ in range(count):
        coords = [0.0]
        for _ in range(rng.randint(29, 59)):
            coords.append(coords[-1] + rng.uniform(0.05, 3.0))
        rng.shuffle(coords)
        gain = rng.choice(list(GAINS.values()))
        yield general_line(coords, gain, rng.choice([1.0, 10.0, 40.0]), 1.0)


def relabelled_line():
    # An irregular 7-node line with permuted node ids: the ordering is
    # rediscovered, and far groups are tuples of relabelled ids.
    coords = [0.0, 1.0, 3.0, 3.5, 6.0, 6.4, 9.0]
    perm = [4, 0, 6, 2, 5, 1, 3]
    return general_line([coords[p] for p in perm], power_law(2.0), 10.0, 1.0)


def facts(report):
    """A report read as the reference's tuple."""
    return (report.rate, report.ordering, tuple(report.entries), report.achievable,
            report.binding_margin)


def check_facts(check):
    """A check's bound and verdict."""
    return check.bound, check.verified


def replay_facts(t):
    """The reference replay's bound and verdict at its one rate, 0.999 * bound."""
    bound, _, steps = reference_verify_regular_line_achievability(t, samples=1)
    return bound, not steps


def assert_conditions_match(t, tols):
    bound = allcast_rate_bound(t)
    for factor in RATE_FACTORS:
        rate = factor * bound
        assert facts(ordered_line_conditions(t, rate)) == reference_ordered_line_conditions(t, rate)
    for tol in tols:
        assert max_achievable_rate(t, tol) == reference_max_achievable_rate(t, tol)


@pytest.mark.parametrize("power", [10.0, 3.0])
@pytest.mark.parametrize("gain", sorted(GAINS))
def test_regular_lines_match_the_reference(gain, power):
    # The reference re-evaluates O(n^3) work per bisection step, so the full
    # product of sizes, rates and tolerances would take minutes.  Each line
    # takes one rate and one tolerance in turn instead; every combination is
    # still reached across n, and random_lines below take the full product.
    for n in range(2, 30):
        t = regular_line(n, 1.0, GAINS[gain], power, 1.0)
        rate = RATE_FACTORS[n % len(RATE_FACTORS)] * allcast_rate_bound(t)
        assert facts(ordered_line_conditions(t, rate)) == reference_ordered_line_conditions(t, rate)
        if n <= 10:
            tol = (1e-6, 1e-9)[n // 2 % 2]
            assert max_achievable_rate(t, tol) == reference_max_achievable_rate(t, tol)
        assert check_facts(verify_regular_line_achievability(t)) == replay_facts(t)


@pytest.mark.parametrize("power", [1e-6, 1e-7])
def test_failed_verifier_steps_match_the_reference(power):
    # At this little power the strictness slack outweighs the capacities, so
    # the replay's sum, joint, near-group and defer checks fail, and the
    # table must fail with it.
    for n in range(3, 13):
        t = regular_line(n, 1.0, exponential(3.0), power, 1.0)
        check = verify_regular_line_achievability(t)
        assert not check.verified
        assert check_facts(check) == replay_facts(t)


@pytest.mark.parametrize("gain", ["pl:2", "pl:4", "exp:0.5", "exp:3", "const"])
def test_the_table_verdict_matches_the_replay(gain):
    # The bound is the replay's, bit for bit, and so is the verdict, with
    # one exception: a constant-gain line whose bound is below 1e-6
    # bits may hold in the table where the replay fails.  There the
    # replay's extra steps (its own prefix sums, a forced defer) must clear
    # the 1e-9-bit slack inside the 0.1% left at 0.999 of the bound.
    for n in range(2, 25):
        power = (1e-7, 6e-7, 1e-6, 1e-3, 1.0, 10.0, 1e6)[n % 7]
        t = regular_line(n, 1.0, GainFunction.parse(gain), power, 1.0)
        check = verify_regular_line_achievability(t)
        bound, verified = replay_facts(t)
        assert check.bound == bound
        if check.verified != verified:
            assert (gain, check.verified) == ("const", True) and bound < 1e-6, (n, power)


def test_a_tiny_constant_gain_bound_is_verified_where_the_replay_fails(capsys):
    argv = "analyze --preset regular-line --n 4 --gain const --power 6e-7".split()
    assert cli.main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["achievable"] is True
    assert printed["regular_line_verified"] is True
    t = regular_line(4, 1.0, constant(), 6e-7, 1.0)
    bound, _, steps = reference_verify_regular_line_achievability(t, 20, 0)
    assert bound < 1e-6
    assert steps[0][0] == "prefix 1 sum constraint"


def test_random_lines_match_the_reference():
    for t in random_lines(30, seed=2024):
        assert_conditions_match(t, (1e-6, 1e-9))


def test_long_uneven_lines_match_the_reference():
    # The reference is O(n^3) per rate, so each line takes one rate.
    for k, t in enumerate(long_uneven_lines(4, seed=3060)):
        rate = RATE_FACTORS[k % len(RATE_FACTORS)] * allcast_rate_bound(t)
        assert facts(ordered_line_conditions(t, rate)) == reference_ordered_line_conditions(t, rate)


def test_high_power_line_matches_the_reference():
    # At power 1e6 every power is large against the noise and the far
    # groups' tails are small against their heads.
    coords = [0.0]
    rng = random.Random(6)
    for _ in range(44):
        coords.append(coords[-1] + rng.uniform(0.3, 2.0))
    t = general_line(coords, power_law(2.0), 1e6, 1.0)
    rate = 0.999 * allcast_rate_bound(t)
    assert facts(ordered_line_conditions(t, rate)) == reference_ordered_line_conditions(t, rate)


def test_relabelled_line_matches_the_reference():
    t = relabelled_line()
    assert distance_ordering_check(t) != tuple(range(t.n))
    assert_conditions_match(t, (1e-6, 1e-9))


def test_unequal_spacing_is_rejected_like_the_reference():
    t = next(random_lines(1, seed=3))
    with pytest.raises(PreconditionError):
        verify_regular_line_achievability(t)
    with pytest.raises(PreconditionError):
        reference_verify_regular_line_achievability(t)


def test_large_line_max_rate_matches_the_reference():
    t = regular_line(100, 1.0, power_law(2.0), 10.0, 1.0)
    assert max_achievable_rate(t) == reference_max_achievable_rate(t)
