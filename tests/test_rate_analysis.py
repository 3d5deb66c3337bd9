"""Rate ceiling, ordered-line conditions and the equal-spacing verifier."""

import math
import random

import pytest

from omnirelay.errors import PreconditionError
from omnirelay.rate_analysis import (
    allcast_rate_bound,
    max_achievable_rate,
    ordered_line_conditions,
    verify_regular_line_achievability,
)
from omnirelay.topology import (
    constant,
    exponential,
    general_line,
    power_law,
    regular_line,
    topology_from_positions,
)


def test_bound_pinned_values():
    t3 = regular_line(3, 1.0, power_law(2.0), 10.0, 1.0)
    # Weakest receiver is an endpoint: 10 + 10/4 incoming.
    assert allcast_rate_bound(t3) == pytest.approx(math.log2(13.5) / 2.0)
    t2 = regular_line(2, 1.0, power_law(2.0), 10.0, 1.0)
    assert allcast_rate_bound(t2) == pytest.approx(math.log2(11.0))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_bound_closed_form_without_decay(n):
    t = regular_line(n, 1.0, constant(), 2.0, 1.0)
    expect = math.log2(1.0 + 2.0 * (n - 1)) / (n - 1)
    assert allcast_rate_bound(t) == pytest.approx(expect)


def test_bound_uses_the_weakest_receiver():
    # Node 2 sits far right and hears the least total power.
    t = general_line([0.0, 1.0, 5.0], power_law(2.0), 1.0, 1.0)
    worst = 1.0 / 16.0 + 1.0 / 25.0
    assert allcast_rate_bound(t) == pytest.approx(math.log2(1.0 + worst) / 2.0)


def test_three_nodes_leave_only_sum_conditions():
    # No interior receiver has a far group at n=3, so the report reduces to
    # the three sum constraints and the verdict tracks the ceiling exactly.
    t = regular_line(3, 1.0, power_law(2.0), 10.0, 1.0)
    bound = allcast_rate_bound(t)
    report = ordered_line_conditions(t, bound * 0.999)
    assert {e.kind for e in report.entries} == {"sum"}
    assert len(report.entries) == 3
    assert report.achievable
    assert not ordered_line_conditions(t, bound * 1.001).achievable


def test_interior_receivers_get_pair_conditions():
    t = regular_line(5, 1.0, power_law(2.0), 1.0, 1.0)
    report = ordered_line_conditions(t, 0.1)
    kinds = {e.kind for e in report.entries}
    assert kinds == {"sum", "far-left", "far-right"}
    # Positions are 1-based along the discovered ordering.
    far_rights = [e for e in report.entries if e.kind == "far-right"]
    assert {(e.position, e.far_group) for e in far_rights} == {
        (2, (3, 4)), (2, (4,)), (3, (4,)),
    }


def test_report_respects_shuffled_labels():
    # Same geometry, permuted node ids: the ordering is rediscovered and the
    # verdict is unchanged.
    base = regular_line(4, 1.0, power_law(2.0), 1.0, 1.0)
    shuffled = general_line([2.0, 0.0, 3.0, 1.0], power_law(2.0), 1.0, 1.0)
    assert shuffled.n == 4
    r1 = ordered_line_conditions(base, 0.2)
    r2 = ordered_line_conditions(shuffled, 0.2)
    assert r2.ordering == (1, 3, 0, 2)
    assert r1.achievable == r2.achievable
    assert r1.binding_margin == pytest.approx(r2.binding_margin)


def test_verdict_is_monotone_in_rate():
    rng = random.Random(5)
    for _ in range(30):
        gaps = [rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 5))]
        coords = [0.0]
        for g in gaps:
            coords.append(coords[-1] + g)
        t = general_line(coords, power_law(rng.choice([2.0, 3.0])), 4.0, 1.0)
        bound = allcast_rate_bound(t)
        rates = sorted(rng.uniform(0.0, bound) for _ in range(4))
        verdicts = [ordered_line_conditions(t, r).achievable for r in rates]
        # Once false, stays false.
        assert verdicts == sorted(verdicts, reverse=True)


def test_zero_rate_always_achievable():
    t = general_line([0.0, 0.4, 2.0], exponential(0.7), 1.0, 1.0)
    report = ordered_line_conditions(t, 0.0)
    assert report.achievable
    assert report.binding_margin > 0


def test_max_rate_meets_the_bound_on_regular_lines():
    for n in (2, 4, 6):
        t = regular_line(n, 1.0, power_law(2.0), 10.0, 1.0)
        assert max_achievable_rate(t, tol=1e-9) == pytest.approx(
            allcast_rate_bound(t), abs=1e-6
        )


def test_two_node_closed_form():
    t = regular_line(2, 2.0, power_law(2.0), 8.0, 0.5)
    # Received power 8/4 over noise 0.5.
    assert max_achievable_rate(t, tol=1e-9) == pytest.approx(math.log2(5.0), abs=1e-6)


def test_uneven_line_binds_on_an_interior_pair():
    t = general_line([0.0, 1.0, 2.5, 3.5, 4.5], power_law(4.0), 10.0, 1.0)
    bound = allcast_rate_bound(t)
    mx = max_achievable_rate(t)
    assert mx == pytest.approx(0.649073, abs=1e-4)
    assert mx < bound - 0.2
    report = ordered_line_conditions(t, (mx + bound) / 2.0)
    assert not report.achievable
    binding = report.binding_entry()
    assert binding.kind == "far-right"
    assert binding.receiver == 2
    assert binding.best_margin() < 0
    assert ordered_line_conditions(t, mx * 0.99).achievable


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.inf, math.nan])
def test_max_rate_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # An infinite tolerance used to return 0.0 without a bisection step, and
    # a NaN one used to run all steps.
    t = regular_line(4, 1.0, power_law(2.0), 10.0, 1.0)
    with pytest.raises(ValueError):
        max_achievable_rate(t, tol=tol)


def test_max_rate_bisection_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(st.floats(0.2, 4.0), min_size=1, max_size=7),
        st.sampled_from([power_law(2.0), power_law(4.0), exponential(0.7), constant()]),
        st.sampled_from([1.0, 10.0, 100.0]),
        st.sampled_from([1e-3, 1e-6, 1e-9]),
    )
    def check(gaps, gain, power, tol):
        coords = [0.0]
        for g in gaps:
            coords.append(coords[-1] + g)
        t = general_line(coords, gain, power, 1.0)
        bound = allcast_rate_bound(t)
        r = max_achievable_rate(t, tol)
        # r passes (unless nothing does), and one tolerance above it fails.
        assert r == 0.0 or ordered_line_conditions(t, r).achievable
        assert not ordered_line_conditions(t, min(r + tol, bound)).achievable

    check()


def test_conditions_require_an_ordering():
    square = topology_from_positions(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], constant(), 1.0, 1.0
    )
    with pytest.raises(PreconditionError):
        ordered_line_conditions(square, 0.1)
    with pytest.raises(ValueError):
        ordered_line_conditions(regular_line(3, 1.0, constant(), 1.0, 1.0), -0.1)


# ---------------------------------------------------------------------------
# equal-spacing verifier
# ---------------------------------------------------------------------------


def test_verifier_passes_a_regular_line():
    t = regular_line(6, 1.0, power_law(2.0), 10.0, 1.0)
    check = verify_regular_line_achievability(t, samples=50, seed=3)
    assert check.verified
    assert check.steps == ()
    assert check.conditions_checked > 0
    assert len(check.rates) == 50
    assert all(0.0 <= r < check.bound for r in check.rates)
    assert check.bound == pytest.approx(allcast_rate_bound(t))


@pytest.mark.parametrize("gain", [power_law(2.0), power_law(4.0), exponential(1.0), constant()])
def test_verifier_across_gain_shapes(gain):
    t = regular_line(5, 1.0, gain, 5.0, 1.0)
    assert verify_regular_line_achievability(t, samples=20, seed=1).verified


def test_verifier_agrees_with_the_condition_report():
    t = regular_line(7, 1.5, power_law(3.0), 2.0, 1.0)
    check = verify_regular_line_achievability(t, samples=25, seed=9)
    assert check.verified
    for r in check.rates:
        assert ordered_line_conditions(t, r).achievable


def test_verifier_rejects_unequal_spacing():
    t = general_line([0.0, 1.0, 2.5], power_law(2.0), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        verify_regular_line_achievability(t)


def test_verifier_needs_samples():
    t = regular_line(3, 1.0, power_law(2.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        verify_regular_line_achievability(t, samples=0)
