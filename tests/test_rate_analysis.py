"""Rate ceiling, ordered-line conditions and the equal-spacing verifier."""

import functools
import gc
import math
import operator
import random
import warnings
import weakref

import numpy as np
import pytest

from omnirelay.errors import PreconditionError
from omnirelay.mac_region import EPS_BITS
from omnirelay.rate_analysis import (
    ConditionEntries,
    ConditionEntry,
    RateReport,
    _chain_sums,
    _line_table,
    _LineTable,
    allcast_rate_bound,
    max_achievable_rate,
    ordered_line_conditions,
    verify_regular_line_achievability,
)
from omnirelay.topology import (
    GainFunction,
    arc,
    build_power_matrix,
    constant,
    exponential,
    general_line,
    power_law,
    regular_line,
    ring,
    topology_from_positions,
)


def assert_entries_read_like_their_tuple(report):
    """The report's lazily built entries against the tuple of the same entries."""
    entries = report.entries
    whole = tuple(entries)
    assert all(type(e) is ConditionEntry for e in whole)
    assert len(entries) == len(whole)
    assert list(entries) == list(whole)
    assert list(reversed(entries)) == list(reversed(whole))
    for k in {0, 1 % len(whole), len(whole) // 2, len(whole) - 1}:
        assert entries[k] == whole[k]
        assert entries[k - len(whole)] == whole[k - len(whole)]
    for bad in (len(whole), -len(whole) - 1):
        with pytest.raises(IndexError):
            entries[bad]
    for part in (slice(1, 5), slice(None, None, -2), slice(-3, None), slice(5, 1), slice(None)):
        assert entries[part] == whole[part]
    assert entries[np.int64(-1)] == whole[-1]
    binding = report.binding_entry()
    assert binding == min(whole, key=ConditionEntry.best_margin)
    assert binding.best_margin() == report.binding_margin


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


def bound_topologies():
    # Sizes either side of numpy's 8-term unrolled and 128-term blocked sums.
    gains = [power_law(2.0), power_law(4.0), exponential(0.5), constant()]
    for n in (2, 3, 8, 9, 17, 100, 129, 257, 400):
        yield regular_line(n, 1.0, gains[n % 4], 10.0, 1.0)
    rng = random.Random(5)
    for _ in range(20):
        coords = [0.0]
        for _ in range(rng.randint(1, 150)):
            coords.append(coords[-1] + rng.uniform(0.05, 3.0))
        yield general_line(coords, rng.choice(gains), rng.choice([1.0, 10.0, 1e6]), 1.0)
    for n in (3, 6, 12, 40, 131):
        yield ring(n, 1.0, gains[n % 4], 10.0, 1.0)
        yield arc(n, 1.0, 4.0 * n, gains[(n + 1) % 4], 3.0, 1.0)


def test_bound_matches_the_per_receiver_totals():
    # The reference takes each receiver's total as its own column sum;
    # the bound's one reduction over all receivers must give the same bits.
    for t in bound_topologies():
        powers = build_power_matrix(t)
        weakest = min(float(powers[:, j].sum()) for j in range(t.n))
        assert allcast_rate_bound(t) == math.log2(1.0 + weakest / t.noise) / (t.n - 1)


def test_three_nodes_leave_only_sum_conditions():
    # No interior receiver has a far group at n=3, so the report reduces to
    # the three sum constraints and the verdict tracks the ceiling exactly.
    t = regular_line(3, 1.0, power_law(2.0), 10.0, 1.0)
    bound = allcast_rate_bound(t)
    report = ordered_line_conditions(t, bound * 0.999)
    assert {e.kind for e in report.entries} == {"sum"}
    assert len(report.entries) == 3
    assert report.achievable
    assert_entries_read_like_their_tuple(report)
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
    assert_entries_read_like_their_tuple(report)


def entry_lines():
    # Regular lines, whose mirrored receivers tie, with a constant gain that
    # ties nearly every row, and uneven lines.
    for n in (2, 3, 5, 8, 13):
        yield regular_line(n, 1.0, power_law(2.0), 10.0, 1.0)
        yield regular_line(n, 1.0, constant(), 2.0, 1.0)
    rng = random.Random(16)
    for _ in range(6):
        coords = [0.0]
        for _ in range(rng.randint(2, 9)):
            coords.append(coords[-1] + rng.uniform(0.3, 3.0))
        yield general_line(coords, power_law(rng.choice([2.0, 4.0])), 10.0, 1.0)
    yield general_line([2.0, 0.0, 3.5, 1.0, 4.5], power_law(4.0), 10.0, 1.0)


@pytest.mark.parametrize("factor", [0.0, 0.5, 0.999, 1.2, None])
def test_entries_read_like_the_tuple_of_entries(factor):
    # None: a rate of 1e308, at which products overflow and margins tie at
    # -inf; the binding entry is still the first of the smallest.
    for t in entry_lines():
        rate = 1e308 if factor is None else factor * allcast_rate_bound(t)
        report = ordered_line_conditions(t, rate)
        assert_entries_read_like_their_tuple(report)
        if factor is None:
            assert report.binding_margin == -math.inf or t.n == 2


def test_a_report_builds_only_the_entries_read(monkeypatch):
    # A 400-node line has 158,406 rows; its verdict, binding margin and
    # entry count come off the margin arrays, and the binding entry is the
    # one entry built.
    t = regular_line(400, 1.0, power_law(2.0), 10.0, 1.0)
    report = ordered_line_conditions(t, 0.999 * allcast_rate_bound(t))
    built = []
    build = ConditionEntries._entry

    def counted(entries, k):
        built.append(k)
        return build(entries, k)

    monkeypatch.setattr(ConditionEntries, "_entry", counted)
    assert len(report.entries) == 158_406
    assert report.achievable and report.binding_margin > EPS_BITS
    assert built == []
    binding = report.binding_entry()
    assert len(built) == 1 and binding.best_margin() == report.binding_margin


def test_a_report_is_freed_without_the_collector():
    # The bisection makes one report per step; a report in a reference
    # cycle would keep its margin arrays until a collection.
    t = regular_line(6, 1.0, power_law(2.0), 10.0, 1.0)
    report = ordered_line_conditions(t, 0.1)
    assert report.entries[0].kind == "sum"
    assert report.binding_entry().best_margin() == report.binding_margin
    freed = weakref.ref(report)
    gc.disable()
    try:
        del report
        assert freed() is None
    finally:
        gc.enable()


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
    assert_entries_read_like_their_tuple(report)
    assert ordered_line_conditions(t, mx * 0.99).achievable


def test_max_rate_is_zero_when_rate_zero_already_fails():
    # At power 1e-12 the margins fall below the strictness slack at rate 0,
    # so the bisection never starts.
    t = regular_line(5, 1.0, power_law(2.0), 1e-12, 1.0)
    assert not ordered_line_conditions(t, 0.0).achievable
    assert max_achievable_rate(t) == 0.0


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
            assert RateReport(rate, table).achievable == all(holds for _, _, holds in expected)
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


def reference_plain_sum(values):
    """``sum()`` of floats before Python 3.12: left to right from the int 0."""
    return functools.reduce(operator.add, values, 0)


def assert_chains_are(rows, chains, total):
    """``chains`` holds ``total`` of every prefix and suffix of every row, bitwise."""
    prefix, suffix = chains
    width = len(rows[0])
    expected_prefix = [[float(total(row[:k])) for k in range(width + 1)] for row in rows]
    expected_suffix = [[float(total(row[s:])) for s in range(width + 1)] for row in rows]
    assert prefix.tobytes() == np.array(expected_prefix).tobytes()
    assert suffix.tobytes() == np.array(expected_suffix).tobytes()


def test_chain_sums_are_sum_of_every_prefix_and_suffix_property():
    # Nonnegative rows with zeros, values across the whole exponent range
    # and near the largest float, so that chains lose low bits and some
    # overflow to inf.  Every chain must be the left-to-right loop from 0,
    # on every Python.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    value = st.just(0.0) | st.floats(1e-300, 1e300) | st.floats(1e300, 1.7976931348623157e308)

    @st.composite
    def row_sets(draw):
        width = draw(st.integers(0, 12))
        row = st.lists(value, min_size=width, max_size=width)
        return draw(st.lists(row, min_size=1, max_size=4))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(row_sets())
    def check(rows):
        array = np.array(rows, dtype=float).reshape(len(rows), -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow is silent, as on floats
            chains = _chain_sums(array)
        assert_chains_are(rows, chains, reference_plain_sum)

    check()


def test_line_table_is_kept_per_topology_object():
    t = regular_line(6, 1.0, power_law(2.0), 10.0, 1.0)
    twin = regular_line(6, 1.0, power_law(2.0), 10.0, 1.0)
    assert t != twin and np.array_equal(t.distances, twin.distances)
    table = _line_table(t)
    assert _line_table(t) is table
    assert _line_table(twin) is not table
    # Reports compare by identity; the twin's reads the same.
    report, twin_report = ordered_line_conditions(t, 0.3), ordered_line_conditions(twin, 0.3)
    assert report != twin_report and report.table is table
    assert tuple(twin_report.entries) == tuple(report.entries)
    assert (twin_report.achievable, twin_report.binding_margin) == (
        report.achievable, report.binding_margin
    )


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
    check = verify_regular_line_achievability(t)
    assert check.verified
    assert check.conditions_checked == len(ordered_line_conditions(t, 0.0).entries)
    assert check.bound == pytest.approx(allcast_rate_bound(t))
    rng = random.Random(3)
    for _ in range(49):
        r = check.bound * rng.random()
        assert 0.0 <= r < check.bound
        assert ordered_line_conditions(t, r).achievable


@pytest.mark.parametrize("gain", [power_law(2.0), power_law(4.0), exponential(1.0), constant()])
def test_verifier_across_gain_shapes(gain):
    t = regular_line(5, 1.0, gain, 5.0, 1.0)
    assert verify_regular_line_achievability(t).verified


def test_verifier_agrees_with_the_condition_report():
    t = regular_line(7, 1.5, power_law(3.0), 2.0, 1.0)
    check = verify_regular_line_achievability(t)
    assert check.verified
    rng = random.Random(9)
    rates = (0.999 * check.bound, *(check.bound * rng.random() for _ in range(24)))
    for r in rates:
        assert ordered_line_conditions(t, r).achievable


def test_verifier_is_the_table_at_0_999_of_the_bound():
    # Seeded regular lines, down to powers where the strictness slack
    # outweighs the capacities: the verdict is the table's at 0.999 * bound.
    rng = random.Random(33)
    gains = ("pl:2", "pl:4", "exp:0.5", "exp:3", "const")
    verdicts = set()
    for _ in range(40):
        n = rng.randint(2, 30)
        power = rng.choice((1e-7, 6e-7, 1e-6, 1e-3, 1.0, 10.0, 1e6))
        t = regular_line(n, 1.0, GainFunction.parse(rng.choice(gains)), power, 1.0)
        check = verify_regular_line_achievability(t)
        verdict = ordered_line_conditions(t, 0.999 * check.bound).achievable
        assert check.verified == verdict, (n, power)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_verifier_rejects_unequal_spacing():
    t = general_line([0.0, 1.0, 2.5], power_law(2.0), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        verify_regular_line_achievability(t)


def test_verifier_needs_a_distance_ordering():
    t = ring(6, 1.0, power_law(2.0), 10.0, 1.0)
    with pytest.raises(PreconditionError, match="^the topology admits no distance ordering$"):
        verify_regular_line_achievability(t)
