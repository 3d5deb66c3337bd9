"""Rate ceiling, ordered-line conditions and the equal-spacing verifier."""

import math
import random
import warnings

import numpy as np
import pytest

from omnirelay.errors import PreconditionError
from omnirelay.mac_region import EPS_BITS
from omnirelay.rate_analysis import (
    _line_table,
    _LineTable,
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


def reference_row_margins(joint_count, joint_cap, defer_count, defer_cap, rate):
    """Per-row margins and verdict on Python floats, as the bisection once
    evaluated them row by row; None stands for a sum row's missing branch."""
    joint = joint_cap - joint_count * rate
    if defer_count is None:
        return joint, None, joint > EPS_BITS
    defer = defer_cap - defer_count * rate
    return joint, defer, max(joint, defer) > EPS_BITS


def table_rows(table):
    """The table's rows as Python numbers, a sum row's defer branch as None."""
    for kind, joint_count, joint_cap, defer_count, defer_cap in zip(
        table.kind.tolist(),
        table.joint_count.tolist(),
        table.joint_cap.tolist(),
        table.defer_count.tolist(),
        table.defer_cap.tolist(),
    ):
        if kind == 0:  # a sum row
            yield int(joint_count), joint_cap, None, None
        else:
            yield int(joint_count), joint_cap, int(defer_count), defer_cap


def test_table_verdict_matches_the_rows_property():
    # The bisection's array margins and verdict against the scalar ones, row
    # by row, on the tables of random lines and on random tables, whose caps
    # may sit exactly on the strictness slack.  Rates: random ones, each
    # branch's threshold rate (where its margin meets the slack) and one
    # float either side of it, zero, and rates so large that products
    # overflow.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def line_tables(draw):
        gaps = draw(st.lists(st.floats(0.2, 4.0), min_size=1, max_size=8))
        coords = [0.0]
        for g in gaps:
            coords.append(coords[-1] + g)
        gain = draw(st.sampled_from([power_law(2.0), power_law(4.0), exponential(0.7),
                                     constant()]))
        power = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
        return _line_table(general_line(coords, gain, power, 1.0))

    @st.composite
    def random_tables(draw):
        kind = np.array(draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=12)))
        counts = st.integers(1, 200).map(float)
        caps = st.floats(0.0, 20.0) | st.just(EPS_BITS)
        branches = [
            [draw(counts) for _ in kind],
            [draw(caps) for _ in kind],
            [draw(counts) if k else 0.0 for k in kind],
            [draw(caps) if k else -math.inf for k in kind],
        ]
        labels = np.zeros(len(kind), dtype=np.intp)
        return _LineTable((), labels, kind, labels, labels, *map(np.array, branches))

    @st.composite
    def tables_and_rates(draw):
        table = draw(line_tables() | random_tables())
        rows = list(table_rows(table))
        row = draw(st.sampled_from(rows))
        count, cap = (row[0], row[1]) if row[2] is None or draw(st.booleans()) else row[2:]
        threshold = (cap - EPS_BITS) / count
        rate = draw(
            st.sampled_from([
                0.0,
                threshold,
                math.nextafter(threshold, math.inf),
                math.nextafter(threshold, -math.inf),
            ])
            | st.floats(0.0, 20.0)
            | st.floats(1e300, 1e308)
        )
        return table, rows, max(rate, 0.0)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(tables_and_rates())
    def check(case):
        table, rows, rate = case
        expected = [reference_row_margins(*row, rate) for row in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow is silent, as on floats
            joint, defer = table.margins(rate)
            assert table.holds(rate) == all(holds for _, _, holds in expected)
        assert joint.tolist() == [j for j, _, _ in expected]
        assert [d for d, (_, ref, _) in zip(defer.tolist(), expected) if ref is not None] == [
            ref for _, ref, _ in expected if ref is not None
        ]

    check()


def test_verdict_is_monotone_as_the_rate_falls_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(st.floats(0.2, 4.0), min_size=1, max_size=7),
        st.sampled_from([power_law(2.0), power_law(4.0), exponential(0.7), constant()]),
        st.lists(st.floats(0.0, 1.5), min_size=2, max_size=8),
    )
    def check(gaps, gain, factors):
        coords = [0.0]
        for g in gaps:
            coords.append(coords[-1] + g)
        t = general_line(coords, gain, 10.0, 1.0)
        bound = allcast_rate_bound(t)
        rates = sorted((f * bound for f in factors), reverse=True)
        verdicts = [ordered_line_conditions(t, r).achievable for r in rates]
        # Lowering the rate never turns an achievable verdict unachievable.
        assert verdicts == sorted(verdicts)

    check()


def test_line_table_is_kept_per_topology_object():
    t = regular_line(6, 1.0, power_law(2.0), 10.0, 1.0)
    twin = regular_line(6, 1.0, power_law(2.0), 10.0, 1.0)
    assert t == twin
    table = _line_table(t)
    assert _line_table(t) is table
    assert _line_table(twin) is not table
    assert ordered_line_conditions(twin, 0.3) == ordered_line_conditions(t, 0.3)


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
