"""Geometry, received powers, hop layers, schedules and the text format."""

import math
import warnings

import numpy as np
import pytest

from omnirelay.errors import ModelViolationError, TopologyFormatError
from omnirelay.topology import (
    GainFunction,
    NeighborSets,
    Schedule,
    arc,
    build_power_matrix,
    canonical_text,
    constant,
    coverage_check,
    distance_ordering_check,
    distance_regulated_schedule,
    exponential,
    general_line,
    k_hop_neighbors,
    load_topology_file,
    parse_topology_text,
    power_law,
    regular_line,
    ring,
    schedule_from_sets,
    topology_from_distances,
    topology_from_positions,
    validate_schedule,
)


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------


def test_power_law_is_parameterized_by_received_power():
    g = power_law(2.0)
    assert g(2.0) == pytest.approx(0.5)  # amplitude d^-1, power d^-2
    assert power_law(4.0)(2.0) == pytest.approx(0.25)
    assert g(1.0) == 1.0


def test_exponential_and_constant_gains():
    assert exponential(0.5)(2.0) == pytest.approx(math.exp(-1.0))
    assert constant()(123.4) == 1.0


@pytest.mark.parametrize("label", ["pl:2", "pl:3.5", "exp:0.25", "const"])
def test_gain_label_round_trip(label):
    assert GainFunction.parse(label).label() == label


def test_gain_parse_rejects_junk():
    for bad in ["pl", "pl:x", "foo:1", "2.0", "pl:nan", "pl:inf", "exp:inf"]:
        with pytest.raises(ValueError):
            GainFunction.parse(bad)
    with pytest.raises(ValueError):
        power_law(-1.0)
    with pytest.raises(ValueError):
        exponential(-0.5)


# ---------------------------------------------------------------------------
# topology construction
# ---------------------------------------------------------------------------


def test_regular_line_distances():
    t = regular_line(4, 2.0, constant(), 1.0, 1.0)
    assert t.n == 4
    assert t.distance(0, 3) == pytest.approx(6.0)
    assert t.distance(2, 1) == pytest.approx(2.0)


def test_general_line_uses_coordinates():
    t = general_line([0.0, 1.0, 3.5], constant(), 1.0, 1.0)
    assert t.distance(1, 2) == pytest.approx(2.5)


def test_ring_chord_lengths():
    t = ring(4, 1.0, constant(), 1.0, 1.0)
    r = 4.0 / (2.0 * math.pi)
    assert t.distance(0, 1) == pytest.approx(2.0 * r * math.sin(math.pi / 4.0))
    assert t.distance(0, 2) == pytest.approx(2.0 * r)


def test_arc_approaches_a_line_for_large_radius():
    t = arc(3, 1.0, 1000.0, constant(), 1.0, 1.0)
    assert t.distance(0, 2) == pytest.approx(2.0, abs=1e-5)
    assert t.distance(0, 2) < 2.0  # chord is shorter than the arc
    with pytest.raises(ValueError):
        arc(10, 1.0, 2.0, constant(), 1.0, 1.0)  # subtends more than pi


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0, 1.0], [1.0, 0.1]],  # nonzero diagonal
        [[0.0, 1.0], [2.0, 0.0]],  # asymmetric
        [[0.0, -1.0], [-1.0, 0.0]],  # negative
        [[0.0, 0.0], [0.0, 0.0]],  # coinciding nodes
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],  # not square
    ],
)
def test_bad_distance_matrices_rejected(matrix):
    with pytest.raises(ValueError):
        topology_from_distances(matrix, constant(), 1.0, 1.0)


def test_bad_scalars_rejected():
    with pytest.raises(ValueError):
        regular_line(1, 1.0, constant(), 1.0, 1.0)
    with pytest.raises(ValueError):
        regular_line(3, 1.0, constant(), 0.0, 1.0)
    with pytest.raises(ValueError):
        regular_line(3, 1.0, constant(), 1.0, -1.0)
    with pytest.raises(ValueError):
        regular_line(3, 0.0, constant(), 1.0, 1.0)


@pytest.mark.parametrize("power, noise", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_non_finite_power_and_noise_rejected(power, noise):
    with pytest.raises(ValueError, match="finite"):
        regular_line(3, 1.0, constant(), power, noise)


@pytest.mark.parametrize("row", ["power nan", "power inf", "noise nan", "noise inf"])
def test_parse_rejects_non_finite_power_and_noise(row):
    key = row.split()[0]
    other = "noise 1" if key == "power" else "power 1"
    text = f"nodes 2\ngain const\n{row}\n{other}\npos 1 0\npos 2 1\n"
    with pytest.raises(TopologyFormatError, match=f"line 3: {key} must be finite"):
        parse_topology_text(text)


def test_positions_must_share_dimension():
    with pytest.raises(ValueError):
        topology_from_positions([(0.0,), (1.0, 2.0)], constant(), 1.0, 1.0)


@pytest.mark.parametrize("positions", [[], [0.0], [(1.0, 2.0)]])
def test_positions_need_two_nodes(positions):
    with pytest.raises(ValueError, match="at least two nodes"):
        topology_from_positions(positions, constant(), 1.0, 1.0)


@pytest.mark.parametrize(
    "positions",
    [[0.0, math.inf], [0.0, math.nan, 2.0], [(0.0, 0.0), (1.0, -math.inf)]],
)
def test_positions_must_be_finite(positions):
    # Rejected before any arithmetic, so numpy emits no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positions must be finite"):
            topology_from_positions(positions, constant(), 1.0, 1.0)


# ---------------------------------------------------------------------------
# received power
# ---------------------------------------------------------------------------


def test_received_power_squares_the_gain():
    t = regular_line(4, 1.0, power_law(2.0), 10.0, 1.0)
    pm = build_power_matrix(t)
    assert pm.pair(0, 1) == pytest.approx(10.0)
    assert pm.pair(0, 2) == pytest.approx(2.5)
    assert pm.pair(0, 3) == pytest.approx(10.0 / 9.0)
    assert pm.total_into(1) == pytest.approx(10.0 + 10.0 + 2.5)
    np.testing.assert_allclose(pm.into(1), [10.0, 0.0, 10.0, 2.5])


def test_received_power_symmetric_for_shared_gain():
    t = general_line([0.0, 0.7, 1.9, 4.0], exponential(0.3), 2.0, 1.0)
    pm = build_power_matrix(t)
    for i in range(4):
        assert pm.pair(i, i) == 0.0
        for j in range(4):
            assert pm.pair(i, j) == pytest.approx(pm.pair(j, i))


def test_growing_gain_rejected():
    t = regular_line(3, 1.0, lambda d: d, 1.0, 1.0)
    with pytest.raises(ModelViolationError):
        build_power_matrix(t)


def test_negative_gain_rejected():
    t = regular_line(3, 1.0, lambda d: -0.5, 1.0, 1.0)
    with pytest.raises(ModelViolationError):
        build_power_matrix(t)


def test_power_matrix_is_kept_per_topology_object():
    t = regular_line(5, 1.0, power_law(2.0), 10.0, 1.0)
    twin = regular_line(5, 1.0, power_law(2.0), 10.0, 1.0)
    assert t == twin
    pm = build_power_matrix(t)
    assert build_power_matrix(t) is pm
    # Equal but separately built topologies do not share a matrix.
    assert build_power_matrix(twin) is not pm
    np.testing.assert_array_equal(build_power_matrix(twin).received, pm.received)


def test_kept_power_matrix_is_read_only():
    t = regular_line(4, 1.0, power_law(2.0), 10.0, 1.0)
    pm = build_power_matrix(t)
    with pytest.raises(ValueError):
        pm.received[0, 1] = 1.0
    assert build_power_matrix(t).pair(0, 1) == pytest.approx(10.0)
    column = pm.into(1)  # a copy, free to change
    column[0] = 0.0
    assert pm.pair(0, 1) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# hop layers
# ---------------------------------------------------------------------------


def adjacency(n):
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


def test_line_layers():
    nb = k_hop_neighbors(adjacency(5))
    assert nb.sets(0) == (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}))
    assert nb.sets(2) == (frozenset({1, 3}), frozenset({0, 4}))
    assert nb.horizon(0) == 4
    assert nb.horizon(2) == 2
    assert nb.k_set(2, 5) == frozenset()
    assert nb.reachable(2) == frozenset({0, 1, 3, 4})
    with pytest.raises(ValueError):
        nb.k_set(0, 0)


def test_layers_partition_the_reachable_set():
    # Random-ish graph: ring plus one chord.
    one_hop = [set(s) for s in adjacency(6)]
    one_hop[0] |= {5}
    one_hop[5] |= {0}
    one_hop[1] |= {4}
    one_hop[4] |= {1}
    nb = k_hop_neighbors(one_hop)
    for i in range(6):
        seen = set()
        for layer in nb.sets(i):
            assert layer, "layers are never empty"
            assert not (layer & seen)
            assert i not in layer
            seen |= layer
    assert all(coverage_check(nb))


def test_coverage_reports_unreachable_nodes():
    nb = k_hop_neighbors([{1}, {0}, set()])
    assert coverage_check(nb) == (False, False, False)
    assert nb.horizon(2) == 0


def test_one_hop_validation():
    with pytest.raises(ValueError):
        k_hop_neighbors([{0}, {0}])  # self loop
    with pytest.raises(ValueError):
        k_hop_neighbors([{5}, {0}])  # out of range
    with pytest.raises(ValueError):
        k_hop_neighbors({0: {1}, 2: {0}})  # mapping with a gap


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_distance_regulated_schedule_matches_layers():
    nb = k_hop_neighbors(adjacency(4))
    s = distance_regulated_schedule(nb)
    assert s.decode_sets == nb.hop_sets
    assert s.encode_sets == nb.hop_sets
    assert validate_schedule(s) == []
    assert s.decode_lag(0) == {1: 1, 2: 2, 3: 3}
    assert s.horizon == 3


def test_ragged_rows_read_as_empty():
    s = schedule_from_sets([[{1}], [{0}, {2}], []], [[{1}], [], []])
    assert s.decode_set(1, 2) == frozenset({2})
    assert s.decode_set(2, 1) == frozenset()
    assert s.encode_set(1, 1) == frozenset()
    assert s.decode_set(0, 9) == frozenset()


def test_decode_lag_rejects_duplicate_sources():
    s = schedule_from_sets([[{1}, {1}], []], [[], []])
    with pytest.raises(ValueError):
        s.decode_lag(0)


def test_schedule_rules():
    def violations(dec, enc):
        return validate_schedule(schedule_from_sets(dec, enc))

    # Encode lag 1 outside decode lag 1.
    v = violations([[{1}], [{0}]], [[{1}], [{0, 1}]])
    assert any(x.node == 1 and x.hop == 1 for x in v)

    # Node inside its own decode set.
    v = violations([[{0, 1}], [{0}]], [[], []])
    assert any("itself" in x.message for x in v)

    # Repeated source at a deeper lag.
    v = violations([[{1}, {1}], [{0}]], [[], []])
    assert any(x.hop == 2 and "repeats" in x.message for x in v)

    # Encode draws on a source never decoded.
    v = violations([[{1}], [{0}], [{1}]], [[{1}], [{0}], [set(), {0}]])
    assert any(x.node == 2 and x.hop == 2 for x in v)

    # Encode repeats an earlier encode member.
    v = violations([[{1}, {2}], [], []], [[{1}, {1}], [], []])
    assert any(x.node == 0 and x.hop == 2 for x in v)

    # Out-of-range member.
    v = violations([[{7}], []], [[], []])
    assert any("out of range" in x.message for x in v)


def test_relay_after_decode_is_legal():
    # Decoding at lag 1 and repeating at lag 2 is the canonical relay pattern.
    s = schedule_from_sets([[{1}, {2}], [{0, 2}], [{1}, {0}]],
                           [[{1}], [{0, 2}], [{1}, {0}]])
    assert validate_schedule(s) == []


def test_mismatched_rows_rejected():
    with pytest.raises(ValueError):
        Schedule((tuple(),), tuple())


# ---------------------------------------------------------------------------
# distance ordering
# ---------------------------------------------------------------------------


def test_line_orderings():
    t = regular_line(5, 1.0, constant(), 1.0, 1.0)
    assert distance_ordering_check(t) == (0, 1, 2, 3, 4)
    t2 = general_line([0.0, 0.3, 1.4, 1.5], constant(), 1.0, 1.0)
    assert distance_ordering_check(t2) == (0, 1, 2, 3)


def test_ordering_orientation_is_canonical():
    # Reversed coordinates still report the orientation with the smaller
    # endpoint first.
    t = general_line([3.0, 2.0, 0.0], constant(), 1.0, 1.0)
    order = distance_ordering_check(t)
    assert order is not None
    assert order[0] < order[-1]


def test_equilateral_triangle_is_ordered():
    t = topology_from_distances(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], constant(), 1.0, 1.0
    )
    assert distance_ordering_check(t) is not None


def test_square_has_no_ordering():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    t = topology_from_positions(pts, constant(), 1.0, 1.0)
    assert distance_ordering_check(t) is None


def test_exhaustive_fallback_finds_scrambled_lines():
    # Shuffled labels defeat the axis heuristic only if the projection were
    # degenerate; the permutation scan must still locate the line order.
    coords = {0: 4.0, 1: 0.0, 2: 2.5, 3: 1.0}
    t = general_line([coords[i] for i in range(4)], constant(), 1.0, 1.0)
    assert distance_ordering_check(t) == (0, 2, 3, 1)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


SAMPLE = """\
# four nodes on a line
nodes 4
gain pl 2.0
power 10.0
noise 1.0
pos 1 0.0
pos 2 1.0
pos 3 2.0
pos 4 3.0
hop 1 2
hop 2 1 3
hop 3 2 4
hop 4 3
"""


def test_parse_positions_and_hops():
    topo, one_hop = parse_topology_text(SAMPLE)
    assert topo.n == 4
    assert topo.power == 10.0
    assert topo.distance(0, 3) == pytest.approx(3.0)
    assert one_hop == tuple(adjacency(4))


def test_parse_distance_rows():
    text = "nodes 3\ngain const\npower 1\nnoise 1\ndist 1 2 1.0\ndist 1 3 2.0\ndist 2 3 1.0\n"
    topo, one_hop = parse_topology_text(text)
    assert one_hop is None
    assert topo.distance(0, 2) == pytest.approx(2.0)


def test_canonical_text_round_trip():
    t = general_line([0.0, 1.25, 2.0], exponential(0.5), 3.0, 0.5)
    text = canonical_text(t, adjacency(3))
    back, one_hop = parse_topology_text(text)
    assert back.distances == t.distances
    assert back.gain == t.gain
    assert (back.power, back.noise) == (t.power, t.noise)
    assert one_hop == tuple(adjacency(3))
    assert canonical_text(back, one_hop) == text


def test_canonical_text_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    nonnegative = st.floats(min_value=0.0, allow_infinity=False)
    gains = st.just(constant()) | nonnegative.map(power_law) | nonnegative.map(exponential)

    @st.composite
    def topologies(draw):
        gain, power, noise = draw(gains), draw(positive), draw(positive)
        shape = draw(st.sampled_from(["line", "ring", "arc"]))
        try:
            # Builds that fail, on huge coordinates too, fail without a warning.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if shape == "line":
                    coords = draw(st.lists(finite, min_size=2, max_size=7, unique=True))
                    t = general_line(coords, gain, power, noise)
                else:
                    n, spacing = draw(st.integers(2, 7)), draw(positive)
                    if shape == "ring":
                        t = ring(n, spacing, gain, power, noise)
                    else:
                        t = arc(n, spacing, draw(positive), gain, power, noise)
        except ValueError:  # coinciding or overflowing positions, or a too-wide arc
            hypothesis.reject()
        one_hop = None
        if draw(st.booleans()):
            one_hop = tuple(
                frozenset(draw(st.sets(st.sampled_from([j for j in range(t.n) if j != i]))))
                for i in range(t.n)
            )
        return t, one_hop

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(topologies())
    def check(case):
        t, one_hop = case
        text = canonical_text(t, one_hop)
        back, back_hop = parse_topology_text(text)
        assert back.distances == t.distances
        assert back.gain == t.gain
        assert (back.power, back.noise) == (t.power, t.noise)
        assert back_hop == one_hop
        assert canonical_text(back, back_hop) == text

    check()


def test_load_topology_file(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(SAMPLE, encoding="utf-8")
    topo, one_hop = load_topology_file(str(path))
    assert topo.n == 4 and one_hop is not None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("gain const\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "missing 'nodes'"),
        ("nodes 2\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "required"),
        ("nodes 2\ngain const\npower 1\nnoise 1\n", "no pos or dist"),
        (
            "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\ndist 1 2 1\n",
            "not both",
        ),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 3 1\n", "1..n"),
        (
            "nodes 3\ngain const\npower 1\nnoise 1\ndist 1 2 1\ndist 1 3 2\n",
            "missing dist row",
        ),
        (
            "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\nhop 1 2\n",
            "hop rows",
        ),
        ("nodes 2\ngain pl inf\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "line 2: malformed 'gain'"),
    ],
)
def test_parse_structural_errors(text, fragment):
    with pytest.raises(TopologyFormatError, match=fragment):
        parse_topology_text(text)


def test_parse_errors_carry_line_numbers():
    text = "nodes 2\ngain pl two\npower 1\nnoise 1\npos 1 0\npos 2 1\n"
    with pytest.raises(TopologyFormatError, match="line 2"):
        parse_topology_text(text)
    text = "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\nwhat 2 1\n"
    with pytest.raises(TopologyFormatError, match="line 6: unknown directive"):
        parse_topology_text(text)
    text = "nodes 2\ngain const\npower 1\nnoise 1\ndist 1 1 1.0\n"
    with pytest.raises(TopologyFormatError, match="line 5"):
        parse_topology_text(text)


def test_conflicting_dist_rows_rejected():
    text = (
        "nodes 2\ngain const\npower 1\nnoise 1\n"
        "dist 1 2 1.0\ndist 2 1 3.0\n"
    )
    with pytest.raises(TopologyFormatError, match="conflicting"):
        parse_topology_text(text)
