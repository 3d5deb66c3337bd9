"""Geometry, received powers, hop layers, schedules and the text format."""

import math
import operator
import re
import tracemalloc
import warnings
from functools import reduce
from itertools import permutations

import numpy as np
import pytest

from omnirelay.errors import ModelViolationError, TopologyFormatError
from omnirelay.topology import (
    _DIST_TOL,
    _is_distance_ordered,
    GainFunction,
    Schedule,
    ScheduleViolation,
    Topology,
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
    with pytest.raises(ValueError, match="^unknown gain kind 'foo'$"):
        GainFunction("foo")(1.0)


# ---------------------------------------------------------------------------
# topology construction
# ---------------------------------------------------------------------------


def test_regular_line_distances():
    t = regular_line(4, 2.0, constant(), 1.0, 1.0)
    assert t.n == 4
    assert t.distances[0, 3] == pytest.approx(6.0)
    assert t.distances[2, 1] == pytest.approx(2.0)


def test_general_line_uses_coordinates():
    t = general_line([0.0, 1.0, 3.5], constant(), 1.0, 1.0)
    assert t.distances[1, 2] == pytest.approx(2.5)


def test_ring_chord_lengths():
    t = ring(4, 1.0, constant(), 1.0, 1.0)
    r = 4.0 / (2.0 * math.pi)
    assert t.distances[0, 1] == pytest.approx(2.0 * r * math.sin(math.pi / 4.0))
    assert t.distances[0, 2] == pytest.approx(2.0 * r)


def test_distance_matrix_is_converted_once_and_read_only():
    t = ring(5, 1.0, constant(), 1.0, 1.0)
    first = t.distances
    assert t.distances is first
    assert not hasattr(t, "distance") and not hasattr(t, "distance_matrix")
    assert first.dtype == np.float64 and first.shape == (5, 5)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 1] = 2.0
    # A caller's array is copied: it stays writable, and writing to it
    # moves nothing in the topology.
    given = np.array(first)
    built = topology_from_distances(given, constant(), 1.0, 1.0)
    assert given.flags.writeable and not np.shares_memory(built.distances, given)
    given[0, 1] = given[1, 0] = 9.0
    assert built.distances[0, 1] == first[0, 1]


def test_arc_approaches_a_line_for_large_radius():
    t = arc(3, 1.0, 1000.0, constant(), 1.0, 1.0)
    assert t.distances[0, 2] == pytest.approx(2.0, abs=1e-5)
    assert t.distances[0, 2] < 2.0  # chord is shorter than the arc
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
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0]],  # ragged, short last row
    ],
)
def test_bad_distance_matrices_rejected(matrix):
    with pytest.raises(ValueError):
        topology_from_distances(matrix, constant(), 1.0, 1.0)


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0]],
        [[0.0, 1.0, 1.0], [1.0, 0.0], [1.0, 1.0, 0.0]],
        [[0.0, 1.0], [1.0, 0.0, 1.0]],
        # Row lengths are checked before any value: the bad diagonal of row 0
        # and the asymmetry of row 1 are not reported.
        [[5.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0]],
        # Cells that are rows themselves.
        [[[0.0], [1.0]], [[1.0], [0.0]]],
    ],
)
def test_ragged_distance_matrices_are_not_square(matrix):
    # A short later row used to be read past by the symmetry check of an
    # earlier row, which raised IndexError instead.
    with pytest.raises(ValueError, match="^distance matrix must be square$"):
        topology_from_distances(matrix, constant(), 1.0, 1.0)


def reference_distance_fault(distances):
    """The scalar validation loop ``Topology`` ran before its checks became
    array operations, copied verbatim apart from its name and the return:
    the first fault of a square matrix, in row-major order, with each row's
    diagonal checked ahead of its cells."""
    n = len(distances)
    for i, row in enumerate(distances):
        if len(row) != n:
            raise ValueError("distance matrix must be square")
        if abs(row[i]) > 0:
            raise ValueError("distance matrix diagonal must be zero")
        for j in range(n):
            if row[j] < 0 or not math.isfinite(row[j]):
                raise ValueError("distances must be finite and nonnegative")
            if i != j and row[j] == 0:
                raise ValueError(f"nodes {i} and {j} coincide")
            if abs(row[j] - distances[j][i]) > _DIST_TOL * max(1.0, row[j]):
                raise ValueError("distance matrix must be symmetric")


def test_distance_validation_matches_the_scalar_loop_property():
    # Valid symmetric matrices with faults written into them; the array
    # validator must raise the loop's first error, type and message.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def asymmetry(factor, step):
        # Move a cell off its mirror by factor * the tolerance at the moved
        # value, then by `step` floats, so that it lands just inside or just
        # beyond the symmetry tolerance.
        def fault(mirror):
            value = mirror + factor * _DIST_TOL * max(1.0, mirror)
            for _ in range(abs(step)):
                value = math.nextafter(value, math.copysign(math.inf, step))
            return value
        return fault

    cell_faults = st.sampled_from([
        lambda v: -v,
        lambda v: -0.0,
        lambda v: math.nan,
        lambda v: math.inf,
        lambda v: -math.inf,
        lambda v: 0.0,
    ]) | st.builds(
        asymmetry,
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
        st.integers(-2, 2),
    )
    diagonal_faults = st.sampled_from([1e-300, 1.0, -1.0, math.inf, -math.inf, math.nan, -0.0])

    @st.composite
    def faulty_matrices(draw):
        n = draw(st.integers(2, 5))
        values = st.floats(1e-3, 1e3) | st.sampled_from([1.0, 1e-9, 1e9, 1e300])
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = draw(values)
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            d[i][j] = draw(diagonal_faults) if i == j else draw(cell_faults)(d[j][i])
        return d

    def outcome(check, matrix):
        try:
            check(matrix)
        except ValueError as exc:
            return str(exc)
        return None

    @hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
    @hypothesis.given(faulty_matrices())
    # Cells exactly the tolerance apart (2e-9 - 1e-9 is exact), which pass,
    # and one float farther, which do not.
    @hypothesis.example([[0.0, 2e-9], [1e-9, 0.0]])
    @hypothesis.example([[0.0, math.nextafter(2e-9, 1.0)], [1e-9, 0.0]])
    def check(matrix):
        expected = outcome(reference_distance_fault, matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda m: topology_from_distances(m, constant(), 1.0, 1.0), matrix)
        assert got == expected

    check()


def test_bad_scalars_rejected():
    with pytest.raises(ValueError):
        regular_line(1, 1.0, constant(), 1.0, 1.0)
    with pytest.raises(ValueError):
        regular_line(3, 1.0, constant(), 0.0, 1.0)
    with pytest.raises(ValueError):
        regular_line(3, 1.0, constant(), 1.0, -1.0)
    with pytest.raises(ValueError):
        regular_line(3, 0.0, constant(), 1.0, 1.0)
    with pytest.raises(ValueError, match="positions must cover every node"):
        Topology([[0.0, 1.0], [1.0, 0.0]], constant(), 1.0, 1.0, positions=((0.0,),))
    with pytest.raises(ValueError, match="spacing must be positive"):
        ring(4, 0.0, constant(), 1.0, 1.0)
    with pytest.raises(ValueError, match="spacing and radius must be positive"):
        arc(4, 1.0, -1.0, constant(), 1.0, 1.0)
    with pytest.raises(ValueError, match="^topology needs at least two nodes$"):
        Topology(np.zeros((1, 1)), constant(), 1.0, 1.0)


@pytest.mark.parametrize("power, noise", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_non_finite_power_and_noise_rejected(power, noise):
    with pytest.raises(ValueError, match="finite"):
        regular_line(3, 1.0, constant(), power, noise)


@pytest.mark.parametrize("row", [
    "power nan", "power inf", "noise nan", "noise inf",
    "power -1", "power 0", "noise 0", "noise -2.5",
])
def test_parse_rejects_non_finite_power_and_noise(row):
    # A value that is finite but not positive is reported at its row too,
    # not by the Topology constructor without a line.
    key, token = row.split()
    fault = "finite" if not math.isfinite(float(token)) else "positive"
    other = "noise 1" if key == "power" else "power 1"
    text = f"nodes 2\ngain const\n{row}\n{other}\npos 1 0\npos 2 1\n"
    with pytest.raises(TopologyFormatError, match=f"^line 3: {key} must be {fault}$"):
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
    assert float(pm[0, 1]) == pytest.approx(10.0)
    assert float(pm[0, 2]) == pytest.approx(2.5)
    assert float(pm[0, 3]) == pytest.approx(10.0 / 9.0)
    assert float(pm[:, 1].sum()) == pytest.approx(10.0 + 10.0 + 2.5)
    np.testing.assert_allclose(pm[:, 1], [10.0, 0.0, 10.0, 2.5])


def test_received_power_symmetric_for_shared_gain():
    t = general_line([0.0, 0.7, 1.9, 4.0], exponential(0.3), 2.0, 1.0)
    pm = build_power_matrix(t)
    for i in range(4):
        assert float(pm[i, i]) == 0.0
        for j in range(4):
            assert float(pm[i, j]) == pytest.approx(float(pm[j, i]))


def test_an_overflowing_total_is_the_left_to_right_sum():
    # Each receiver's total adds its column left to right from 0, the loop
    # below; an overflow over the noise prints the first such total.
    rng = np.random.default_rng(5)
    other_bits = 0
    for _ in range(10):
        coords = rng.permutation(np.cumsum(rng.uniform(0.1, 2.0, 40))).tolist()
        column = build_power_matrix(general_line(coords, power_law(2.0), 1e300, 1.0))[:, 0]
        total = reduce(operator.add, column.tolist(), 0)
        other_bits += total != column.sum()  # numpy's pairwise sum
        tiny_noise = general_line(coords, power_law(2.0), 1e300, 1e-300)
        with pytest.raises(ModelViolationError, match=re.escape(f"node 0 overflows: total {total} ")):
            build_power_matrix(tiny_noise)
    assert other_bits


def test_an_overflowing_received_power_is_reported():
    # The gain at 1e-160 is 1e160; its square overflows a float.
    t = topology_from_distances([[0, 1e-160], [1e-160, 0]], power_law(2.0), 1.0, 1.0)
    with pytest.raises(ModelViolationError, match="^received power at node 0 overflows: total inf "):
        build_power_matrix(t)
    # Under power_law(4.0) the gain itself, 1e320, overflows.
    t = topology_from_distances([[0, 1e-160], [1e-160, 0]], power_law(4.0), 1.0, 1.0)
    with pytest.raises(
        ModelViolationError, match=r"^gain at distance 1e-160 is inf; must be finite and >= 0$"
    ):
        build_power_matrix(t)


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
    assert t != twin and np.array_equal(t.distances, twin.distances)
    pm = build_power_matrix(t)
    assert build_power_matrix(t) is pm
    # Topologies built from equal inputs do not share a matrix.
    assert build_power_matrix(twin) is not pm
    np.testing.assert_array_equal(build_power_matrix(twin), pm)


def test_kept_power_matrix_is_read_only():
    t = regular_line(4, 1.0, power_law(2.0), 10.0, 1.0)
    pm = build_power_matrix(t)
    assert pm.dtype == np.float64 and pm.shape == (4, 4)
    with pytest.raises(ValueError):
        pm[0, 1] = 1.0
    assert float(build_power_matrix(t)[0, 1]) == pytest.approx(10.0)
    column = pm[:, 1].copy()  # a copy, free to change
    column[0] = 0.0
    assert float(pm[0, 1]) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# hop layers
# ---------------------------------------------------------------------------


def adjacency(n):
    return [frozenset(x for x in (i - 1, i + 1) if 0 <= x < n) for i in range(n)]


def reference_layers(one_hop):
    """The frozenset BFS that ``k_hop_neighbors`` replaced: per node, its
    k-hop layers as one tuple of frozensets, stopping at the first empty
    layer."""
    sets = [frozenset(s) for s in one_hop]
    all_layers = []
    for i in range(len(sets)):
        layers = []
        seen = {i} | set(sets[i])
        frontier = sets[i]
        if frontier:
            layers.append(frontier)
        while frontier:
            nxt = set()
            for l in frontier:
                nxt |= sets[l]
            nxt -= seen
            if not nxt:
                break
            frontier = frozenset(nxt)
            layers.append(frontier)
            seen |= nxt
        all_layers.append(tuple(layers))
    return tuple(all_layers)


def layers_of(hops):
    """Each row of a hop matrix as the sets of nodes at 1, 2, ... hops, up
    to the row's largest."""
    return tuple(
        tuple(frozenset(j for j, h in enumerate(row) if h == k) for k in range(1, max(row, default=0) + 1))
        for row in hops.tolist()
    )


def test_line_layers():
    hops = k_hop_neighbors(adjacency(5))
    assert hops.dtype == np.int64 and hops.shape == (5, 5)
    assert hops.tolist()[0] == [0, 1, 2, 3, 4]
    assert hops.tolist()[2] == [2, 1, 0, 1, 2]
    nb = layers_of(hops)
    assert nb[0] == (frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4}))
    assert nb[2] == (frozenset({1, 3}), frozenset({0, 4}))
    assert frozenset().union(*nb[2]) == frozenset({0, 1, 3, 4})


def test_layers_partition_the_reachable_set():
    # Random-ish graph: ring plus one chord.
    one_hop = [set(s) for s in adjacency(6)]
    one_hop[0] |= {5}
    one_hop[5] |= {0}
    one_hop[1] |= {4}
    one_hop[4] |= {1}
    hops = k_hop_neighbors(one_hop)
    nb = layers_of(hops)
    for i in range(6):
        seen = set()
        for layer in nb[i]:
            assert layer, "layers are never empty"
            assert not (layer & seen)
            assert i not in layer
            seen |= layer
    assert all(coverage_check(hops))


def test_coverage_reports_unreachable_nodes():
    hops = k_hop_neighbors([{1}, {0}, set()])
    assert coverage_check(hops) == (False, False, False)
    assert hops.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    # One-way links towards larger ids: node 0 reaches every node, node 4 none.
    hops = k_hop_neighbors([{1}, {2}, {3}, {4}, set()])
    assert hops.tolist()[0] == [0, 1, 2, 3, 4]
    assert hops.tolist()[4] == [0] * 5
    assert coverage_check(hops) == (True, False, False, False, False)


def test_one_hop_validation():
    with pytest.raises(ValueError, match="^node 0 lists itself as a one-hop neighbor$"):
        k_hop_neighbors([{0}, {0}])  # self loop
    with pytest.raises(ValueError, match="^one-hop neighbor 5 of node 0 out of range$"):
        k_hop_neighbors([{5}, {0}])  # out of range


def test_hop_matrix_matches_the_layer_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def directed_one_hop(draw):
        n = draw(st.integers(1, 9))
        links = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return [{j for j in range(n) if j != i and links[i * n + j]} for i in range(n)]

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(directed_one_hop())
    def check(one_hop):
        hops = k_hop_neighbors(one_hop)
        reference = reference_layers(one_hop)
        assert layers_of(hops) == reference
        everyone = frozenset(range(len(one_hop)))
        assert coverage_check(hops) == tuple(
            frozenset().union(*row) == everyone - {i} for i, row in enumerate(reference)
        )

    check()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def reference_validate(decode_sets, encode_sets):
    """The row walk that ``validate_schedule`` replaced, on decode and encode
    rows of per-lag sets."""
    total = len(decode_sets)
    out = []
    for i in range(total):
        depth = max(len(decode_sets[i]), len(encode_sets[i]))
        rows = [
            (
                frozenset(decode_sets[i][k]) if k < len(decode_sets[i]) else frozenset(),
                frozenset(encode_sets[i][k]) if k < len(encode_sets[i]) else frozenset(),
            )
            for k in range(depth)
        ]
        dec_union = set()
        enc_union = set()
        for k, (d, e) in enumerate(rows, start=1):
            for j in d | e:
                if not (0 <= j < total):
                    out.append(ScheduleViolation(i, k, f"member {j} out of range"))
            if i in d:
                out.append(ScheduleViolation(i, k, "decode set contains the node itself"))
            if k == 1:
                if not e <= d:
                    out.append(
                        ScheduleViolation(i, 1, "lag-1 encode set not within lag-1 decode set")
                    )
            else:
                overlap = d & (dec_union | {i})
                if overlap:
                    out.append(
                        ScheduleViolation(
                            i, k, f"decode set repeats {sorted(overlap)} from earlier lags"
                        )
                    )
            dec_union |= d
            if k >= 2:
                allowed = dec_union - enc_union
                if not e <= allowed:
                    out.append(
                        ScheduleViolation(
                            i,
                            k,
                            f"encode set members {sorted(e - allowed)} not available at lag {k}",
                        )
                    )
            enc_union |= e
    return out


def test_distance_regulated_schedule_matches_layers():
    hops = k_hop_neighbors(adjacency(4))
    s = distance_regulated_schedule(hops)
    assert np.array_equal(s.lags, np.stack((hops, hops)))
    assert s.decode_sets == reference_layers(adjacency(4))
    assert s.encode_sets == s.decode_sets
    assert validate_schedule(s) == []
    assert s.decode_lag(0) == {1: 1, 2: 2, 3: 3}
    assert max(len(row) for row in s.decode_sets + s.encode_sets) == 3


def test_schedule_keeps_one_read_only_lag_array():
    lags = [[[0, 1], [1, 0]], [[0, 2], [1, 0]]]
    s = Schedule(np.array(lags, dtype=np.int32))
    assert s.lags.dtype == np.int64 and s.lags.tolist() == lags
    assert not s.lags.flags.writeable
    assert s.n == 2
    source = np.array(lags)
    t = Schedule(source)
    source[0, 0, 1] = 5
    assert t.lags[0, 0, 1] == 1
    assert s != Schedule(lags)  # compared by identity
    with pytest.raises(ValueError, match="shape"):
        Schedule(np.zeros((2, 2, 3), dtype=int))
    with pytest.raises(ValueError, match="shape"):
        Schedule(np.zeros((3, 2, 2), dtype=int))
    with pytest.raises(ValueError, match="integers"):
        Schedule(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        Schedule(-np.ones((2, 2, 2), dtype=int))


def test_ragged_rows_read_as_empty():
    f = frozenset
    s = Schedule.from_rows([[{1}], [{0}, {2}], []], [[{1}], [], []])
    padded = Schedule.from_rows([[{1}, ()], [{0}, {2}, set()], [()]], [[{1}], [(), ()], []])
    assert np.array_equal(s.lags, padded.lags)
    # Rows read back without trailing empty sets, which carry no lag.
    assert s.decode_sets == padded.decode_sets == ((f({1}),), (f({0}), f({2})), ())
    assert s.encode_sets == padded.encode_sets == ((f({1}),), (), ())
    # Missing entries validate as empty sets: the same violations as on
    # rows padded to one length.
    dec, enc = [[{1}], [{0}], [{1}]], [[{1, 2}], [(), {0}], []]
    padded = Schedule.from_rows([[{1}, ()], [{0}, ()], [{1}]], [[{1, 2}, ()], [(), {0}], [()]])
    assert validate_schedule(Schedule.from_rows(dec, enc)) == validate_schedule(padded)
    assert [(v.node, v.hop) for v in validate_schedule(padded)] == [(0, 1)]
    # What a lag array cannot hold raises, the first fault by node, on
    # ragged and padded rows alike.
    dec, enc = [[{1}, {1}], [{0}], [{7}]], [[{1, 2}], [{0}, {0}], []]
    padded = [[{1}, {1}], [{0}, set()], [{7}]], [[{1, 2}, set()], [{0}, {0}], [set()]]
    for rows in ((dec, enc), padded):
        with pytest.raises(ValueError, match=r"^node 0 lag 2: decode set repeats \[1\] from earlier lags$"):
            Schedule.from_rows(*rows)
    with pytest.raises(
        ValueError, match=r"^node 1 lag 2: encode set members \[0\] not available at lag 2$"
    ):
        Schedule.from_rows([[{1}], [{0}], [{7}]], enc)
    with pytest.raises(ValueError, match=r"^node 2 lag 1: member 7 out of range$"):
        Schedule.from_rows([[{1}], [{0}], [{7}]], [[{1, 2}], [{0}], []])


def test_from_rows_rejects_duplicate_sources():
    with pytest.raises(ValueError, match=r"^node 0 lag 2: decode set repeats \[1\] from earlier lags$"):
        Schedule.from_rows([[{1}, {1}], []], [[], []])
    with pytest.raises(
        ValueError, match=r"^node 1 lag 3: encode set members \[0\] not available at lag 3$"
    ):
        Schedule.from_rows([[{1}], [{0}]], [[], [{0}, (), {0}]])


def test_schedule_rules():
    def violations(dec, enc):
        return validate_schedule(Schedule.from_rows(dec, enc))

    # Encode lag 1 outside decode lag 1.
    v = violations([[{1}], [{0}]], [[{1}], [{0, 1}]])
    assert v == [ScheduleViolation(1, 1, "lag-1 encode set not within lag-1 decode set")]

    # Node inside its own decode set.
    v = violations([[{0, 1}], [{0}]], [[], []])
    assert v == [ScheduleViolation(0, 1, "decode set contains the node itself")]

    # Node inside a deeper decode set: it also repeats the node's own id.
    v = violations([[{1}, {0}], [{0}]], [[], []])
    assert v == [
        ScheduleViolation(0, 2, "decode set contains the node itself"),
        ScheduleViolation(0, 2, "decode set repeats [0] from earlier lags"),
    ]

    # Repeated source at a deeper lag.
    with pytest.raises(ValueError, match=r"^node 0 lag 2: decode set repeats \[1\] from earlier lags$"):
        violations([[{1}, {1}], [{0}]], [[], []])

    # Encode draws on a source never decoded.
    v = violations([[{1}], [{0}], [{1}]], [[{1}], [{0}], [set(), {0}]])
    assert v == [ScheduleViolation(2, 2, "encode set members [0] not available at lag 2")]

    # Encode draws on a source decoded later.
    v = violations([[{1}, (), {2}], [], []], [[{1}, {0, 2}], [], []])
    assert v == [ScheduleViolation(0, 2, "encode set members [0, 2] not available at lag 2")]

    # Encode repeats an earlier encode member.
    with pytest.raises(
        ValueError, match=r"^node 0 lag 2: encode set members \[1\] not available at lag 2$"
    ):
        violations([[{1}, {2}], [], []], [[{1}, {1}], [], []])

    # Out-of-range member, in a decode or an encode row.
    with pytest.raises(ValueError, match=r"^node 0 lag 1: member 7 out of range$"):
        violations([[{7}], []], [[], []])
    with pytest.raises(ValueError, match=r"^node 1 lag 2: member -1 out of range$"):
        violations([[{1}], [{0}, {-1}]], [[], []])
    with pytest.raises(ValueError, match=r"^node 0 lag 1: member 2 out of range$"):
        violations([[{1}], [{0}]], [[{2}], []])


def test_validate_schedule_matches_the_row_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def lag_arrays(draw):
        n = draw(st.integers(1, 6))
        cells = draw(st.lists(st.integers(0, 4), min_size=2 * n * n, max_size=2 * n * n))
        lags = np.array(cells, dtype=np.int64).reshape(2, n, n)
        if draw(st.booleans()):
            # A valid schedule: no self-decode, every repeat at or after
            # its decode.
            np.fill_diagonal(lags[0], 0)
            lags[1] = np.where(lags[0] > 0, np.maximum(lags[0], lags[1]), 0)
        return lags

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(lag_arrays())
    def check(lags):
        s = Schedule(lags)
        expected = reference_validate(s.decode_sets, s.encode_sets)
        assert validate_schedule(s) == expected
        # The rows carry the array: reading them back gives it again.
        assert np.array_equal(Schedule.from_rows(s.decode_sets, s.encode_sets).lags, lags)

    check()


def test_relay_after_decode_is_legal():
    # Decoding at lag 1 and repeating at lag 2 is the canonical relay pattern.
    s = Schedule.from_rows([[{1}, {2}], [{0, 2}], [{1}, {0}]],
                           [[{1}], [{0, 2}], [{1}, {0}]])
    assert validate_schedule(s) == []


def test_mismatched_rows_rejected():
    with pytest.raises(ValueError, match="^decode and encode rows must cover the same nodes$"):
        Schedule.from_rows((tuple(),), tuple())


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


def reference_is_distance_ordered(dist, order):
    """The scalar check: from each anchor, distances must be non-decreasing
    moving outward, with ``_DIST_TOL`` of slack."""
    n = len(order)
    for a in range(n):
        for t in range(a + 2, n):
            if dist[order[a]][order[t - 1]] > dist[order[a]][order[t]] + _DIST_TOL:
                return False
        for t in range(a - 2, -1, -1):
            if dist[order[a]][order[t + 1]] > dist[order[a]][order[t]] + _DIST_TOL:
                return False
    return True


def shuffled_line(rng, n):
    """Coordinates of a line with uneven gaps, in a random labeling, and
    the labels from one end to the other."""
    coords = np.cumsum(rng.uniform(0.2, 3.0, n))
    labels = rng.permutation(n)
    placed = np.empty(n)
    placed[labels] = coords
    return placed.tolist(), tuple(labels.tolist())


def canonical(order):
    return order if order[0] <= order[-1] else order[::-1]


def test_array_predicate_matches_the_scalar_check():
    rng = np.random.default_rng(2024)
    verdicts = set()
    for n in range(2, 10):
        for _ in range(15):
            coords, labels = shuffled_line(rng, n)
            d = np.abs(np.subtract.outer(coords, coords))
            if rng.random() < 0.5:  # off the line, so that more labelings fail
                bend = np.triu(rng.uniform(0.0, 0.5, (n, n)), 1)
                d = d + bend + bend.T
            orders = [labels, labels[::-1]]
            for _ in range(10):
                near = list(labels)
                s = int(rng.integers(n - 1))
                near[s], near[s + 1] = near[s + 1], near[s]
                orders += [tuple(near), tuple(rng.permutation(n).tolist())]
            got = _is_distance_ordered(d, np.array(orders))
            rows = d.tolist()
            for order, verdict in zip(orders, got.tolist()):
                assert verdict == reference_is_distance_ordered(rows, order)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_array_predicate_across_chunks():
    # 3,000 labelings of an 8-node line: three chunks of 1,024 rows, with
    # the passing orders on both sides of each chunk boundary.
    rng = np.random.default_rng(11)
    coords, labels = shuffled_line(rng, 8)
    d = np.abs(np.subtract.outer(coords, coords))
    orders = rng.permuted(np.tile(np.arange(8), (3000, 1)), axis=1)
    for row in (0, 1023, 1024, 2047, 2048, 2999):
        orders[row] = labels if row % 2 else labels[::-1]
    got = _is_distance_ordered(d, orders).tolist()
    rows = d.tolist()
    assert got == [reference_is_distance_ordered(rows, o) for o in orders.tolist()]
    assert got.count(True) >= 6


def test_the_largest_labeling_scan_runs_in_bounded_memory():
    # A ring of 8 has no ordering, so every one of its 20,160 labelings is
    # checked; gathered as one (k, n, n) array they took about 23 MB.
    t = ring(8, 1.0, power_law(2.0), 10.0, 1.0)
    tracemalloc.start()
    try:
        assert distance_ordering_check(t) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("side", ["right", "left"])
def test_array_predicate_at_the_tolerance_edge(side):
    # On a line in its own order, one anchor's step is set to exactly
    # _DIST_TOL against the direction of travel, then one ulp beyond.
    rng = np.random.default_rng(7)
    verdicts = []
    for n in range(3, 9):
        for _ in range(10):
            base = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
            if side == "right":
                a = int(rng.integers(n - 2))
                t = int(rng.integers(a + 2, n))
                near, far = t - 1, t
            else:
                a = int(rng.integers(2, n))
                t = int(rng.integers(a - 1))
                near, far = t + 1, t
            for value in (base[a, far] + _DIST_TOL, math.nextafter(base[a, far] + _DIST_TOL, math.inf)):
                d = base.copy()
                d[a, near] = d[near, a] = value
                order = tuple(range(n))
                orders = np.array([order, tuple(rng.permutation(n).tolist())])
                got = _is_distance_ordered(d, orders).tolist()
                assert got == [reference_is_distance_ordered(d.tolist(), o) for o in orders.tolist()]
                verdicts.append(got[0])
    assert verdicts == [True, False] * (len(verdicts) // 2)


def test_shuffled_tie_free_lines_and_arcs_return_their_order():
    rng = np.random.default_rng(99)
    for n in [2, 3, 4, 5, 8, 9, 12, 20, 33, 47, 60]:
        for _ in range(4):
            coords, labels = shuffled_line(rng, n)
            expected = canonical(labels)
            assert distance_ordering_check(general_line(coords, constant(), 1.0, 1.0)) == expected
            d = np.abs(np.subtract.outer(coords, coords))
            assert distance_ordering_check(topology_from_distances(d, constant(), 1.0, 1.0)) == expected
            # A shallow arc: angles with uneven gaps, spanning under pi.
            span = rng.uniform(0.1, 3.0)
            angles = np.array(coords) / max(coords) * span
            pts = list(zip(np.cos(angles).tolist(), np.sin(angles).tolist()))
            assert distance_ordering_check(topology_from_positions(pts, constant(), 1.0, 1.0)) == expected


def test_small_integer_distances_match_an_exhaustive_reference():
    rng = np.random.default_rng(5)
    found = set()
    for n in range(2, 7):
        for _ in range(40):
            upper = np.triu(rng.integers(1, 4, (n, n)), 1).astype(float)
            d = upper + upper.T
            t = topology_from_distances(d, constant(), 1.0, 1.0)
            rows = d.tolist()
            passing = [p for p in permutations(range(n)) if reference_is_distance_ordered(rows, p)]
            order = distance_ordering_check(t)
            found.add(order is None)
            if order is None:
                assert passing == []
            else:
                assert order in passing and order[0] < order[-1]
            # The rule itself: the sort from the first farthest node from
            # node 0, else the first passing labeling in permutation order.
            end = rows[0].index(max(rows[0]))
            candidate = tuple(sorted(range(n), key=lambda j: (rows[end][j], j)))
            if reference_is_distance_ordered(rows, candidate):
                assert order == canonical(candidate)
            else:
                assert order == (passing[0] if passing else None)
    assert found == {True, False}


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 0.0), (1.0, 0.1), (2.5, 0.0), (3.1, 0.3), (4.0, 0.0)],
        [(3.0, 1.0), (0.0, 0.0), (1.0, 0.2), (2.0, 0.5)],
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        [(math.cos(k), math.sin(k)) for k in (0.0, 2.0, 0.5, 2.5, 1.0)],
    ],
)
def test_positions_and_distances_give_the_same_ordering(points):
    from_positions = topology_from_positions(points, constant(), 1.0, 1.0)
    from_distances = topology_from_distances(from_positions.distances, constant(), 1.0, 1.0)
    assert distance_ordering_check(from_positions) == distance_ordering_check(from_distances)


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
    assert topo.distances[0, 3] == pytest.approx(3.0)
    assert one_hop == tuple(adjacency(4))


def test_parse_distance_rows():
    text = "nodes 3\ngain const\npower 1\nnoise 1\ndist 1 2 1.0\ndist 1 3 2.0\ndist 2 3 1.0\n"
    topo, one_hop = parse_topology_text(text)
    assert one_hop is None
    assert topo.distances[0, 2] == pytest.approx(2.0)


def test_canonical_text_round_trip():
    t = general_line([0.0, 1.25, 2.0], exponential(0.5), 3.0, 0.5)
    text = canonical_text(t, adjacency(3))
    back, one_hop = parse_topology_text(text)
    assert np.array_equal(back.distances, t.distances)
    assert back.gain == t.gain
    assert (back.power, back.noise) == (t.power, t.noise)
    assert one_hop == tuple(adjacency(3))
    assert canonical_text(back, one_hop) == text


def test_int_and_float_power_and_noise_give_one_text():
    # Power and noise are kept as floats, so an int given for either writes
    # the text, and the topology hash, of the float of the same value.
    d = [[0.0, 1.0], [1.0, 0.0]]
    ints = Topology(d, constant(), 10, 1)
    assert (type(ints.power), type(ints.noise)) == (float, float)
    text = canonical_text(ints)
    assert text == canonical_text(topology_from_distances(d, constant(), 10.0, 1.0))
    assert "power 10.0\nnoise 1.0\n" in text
    assert canonical_text(parse_topology_text(text)[0]) == text


def test_canonical_text_rejects_a_gain_without_a_text_form():
    # A gain that is not a GainFunction has no file form; writing its repr
    # put a memory address into the text, and so into the topology hash.
    gain = lambda d: 1.0 / d  # noqa: E731
    t = regular_line(3, 1.0, gain, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"^gain {re.escape(gain.__qualname__)} has no text form"):
        canonical_text(t)


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
        shape = draw(st.sampled_from(["line", "ring", "arc", "dist"]))
        try:
            # Builds that fail, on huge coordinates too, fail without a warning.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if shape == "line":
                    coords = draw(st.lists(finite, min_size=2, max_size=7, unique=True))
                    t = general_line(coords, gain, power, noise)
                elif shape == "dist":
                    # Distance rows only: any symmetric matrix of positive floats.
                    n = draw(st.integers(2, 7))
                    d = [[0.0] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i + 1, n):
                            d[i][j] = d[j][i] = draw(positive)
                    t = topology_from_distances(d, gain, power, noise)
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

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(topologies())
    def check(case):
        t, one_hop = case
        text = canonical_text(t, one_hop)
        back, back_hop = parse_topology_text(text)
        assert np.array_equal(back.distances, t.distances)
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
        # A fixed-width row with a token too many.
        ("nodes 2\ngain pl 2 9\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "line 2: malformed 'gain' row"),
        ("nodes 2\ngain const 7\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "line 2: malformed 'gain' row"),
        ("nodes 2 3\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "line 1: malformed 'nodes' row"),
        ("nodes 2\ngain const\npower 1 2\nnoise 1\npos 1 0\npos 2 1\n", "line 3: malformed 'power' row"),
        ("nodes 2\ngain const\npower 1\nnoise 1 2\npos 1 0\npos 2 1\n", "line 4: malformed 'noise' row"),
        ("nodes 2\ngain const\npower 1\nnoise 1\ndist 1 2 1.0 5\n", "line 5: malformed 'dist' row"),
        # A header given twice.
        ("nodes 2\nnodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "line 2: duplicate 'nodes' row"),
        ("nodes 2\ngain const\ngain pl 2\npower 1\nnoise 1\npos 1 0\npos 2 1\n", "line 3: duplicate 'gain' row"),
        ("nodes 2\ngain const\npower 10\npower 20\nnoise 1\npos 1 0\npos 2 1\n", "line 4: duplicate 'power' row"),
        ("nodes 2\ngain const\npower 1\nnoise 1\nnoise 1\npos 1 0\npos 2 1\n", "line 5: duplicate 'noise' row"),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 0 1 2\npos 2 1\n", "line 5: pos rows take one or two coordinates"),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 1 1\n", "line 6: duplicate pos row for node 1"),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1 1\n", "pos rows must share one dimension"),
        (
            "nodes 2\ngain const\npower 1\nnoise 1\ndist 1 2 1\ndist 1 3 1\n",
            r"dist row node out of range in pair \(1, 3\)",
        ),
        (
            "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\nhop 1 9\nhop 2 1\n",
            "hop row of node 1 references node 9",
        ),
        (
            "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\nhop 1 1\nhop 2 1\n",
            "hop row of node 1 references itself",
        ),
        # A bad value, at its row and with the file's node ids.
        ("nodes 1\ngain const\npower 1\nnoise 1\npos 1 0\n", "^line 1: topology needs at least two nodes$"),
        ("nodes 2\ngain const\npower 1\nnoise 1\ndist 1 2 nan\n", "^line 5: distances must be finite and nonnegative$"),
        ("nodes 2\ngain const\npower 1\nnoise 1\ndist 2 1 -1\n", "^line 5: distances must be finite and nonnegative$"),
        ("nodes 2\ngain const\npower 1\nnoise 1\ndist 2 1 0\n", "^line 5: nodes 1 and 2 coincide$"),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 inf\n", "^line 6: positions must be finite$"),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 nan 0\npos 2 1 0\n", "^line 5: positions must be finite$"),
        ("nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 -0.0\n", "^line 6: nodes 1 and 2 coincide$"),
        (
            "nodes 3\ngain const\npower 1\nnoise 1\npos 3 0 1\npos 1 5 5\npos 2 0 1\n",
            "^line 7: nodes 2 and 3 coincide$",
        ),
        # Distinct points whose distance overflows to inf.
        (
            "nodes 2\ngain const\npower 1\nnoise 1\npos 1 -1e308\npos 2 1e308\n",
            "^line 6: nodes 1 and 2 are too far apart for a float distance$",
        ),
        (
            "nodes 4\ngain const\npower 1\nnoise 1\n"
            "pos 3 0\npos 2 5\npos 4 -1e308\npos 1 1e308\n",
            "^line 8: nodes 1 and 4 are too far apart for a float distance$",
        ),
        # A dimension that differs from the first pos row's, at its row.
        (
            "nodes 3\ngain const\npower 1\nnoise 1\npos 2 0 0\npos 1 1 0\npos 3 2\n",
            "^line 7: pos rows must share one dimension$",
        ),
        (
            "nodes 3\ngain const\npower 1\nnoise 1\npos 3 5\npos 1 0 0\npos 2 1 1\n",
            "^line 6: pos rows must share one dimension$",
        ),
        # Pairs (1, 2) and (2, 3) both complete at line 7; (2, 3)'s earlier
        # row comes first.
        (
            "nodes 3\ngain const\npower 1\nnoise 1\npos 3 0 1e154\npos 1 5 5\npos 2 1.5e308 -1.5e308\n",
            "^line 7: nodes 2 and 3 are too far apart for a float distance$",
        ),
    ],
)
def test_parse_structural_errors(text, fragment):
    with pytest.raises(TopologyFormatError, match=fragment):
        parse_topology_text(text)


HEADER = "gain const\npower 1\nnoise 1\n"


@pytest.mark.parametrize(
    "rows, apart",
    [
        ("pos 1 0\npos 2 1e-320\n", 1e-320),
        ("pos 1 0\npos 2 1e200\n", 1e200),
        ("pos 1 0 1e154\npos 2 0 -1e154\n", 2e154),
        ("pos 1 0 0\npos 2 3e-170 4e-170\n", 5e-170),
    ],
)
def test_distinct_points_get_their_float_distance(rows, apart):
    # Each difference squares to 0 or to inf, which once read as
    # "too close together" or "too far apart".
    topo, _ = parse_topology_text("nodes 2\n" + HEADER + rows)
    assert topo.distances[0, 1] == topo.distances[1, 0] == pytest.approx(apart, rel=1e-15)


@pytest.mark.parametrize("apart", [3e-162, 1e-160, 2e-155, 5e-324])
def test_a_subnormal_squared_distance_keeps_its_precision(apart):
    # The squared form of these distances is subnormal (or 0), so it keeps
    # fewer bits than the distance itself.
    topo = topology_from_positions([0.0, apart], constant(), 1.0, 1.0)
    assert abs(topo.distances[0, 1] - apart) <= math.ulp(apart)
    assert topo.distances[1, 0] == topo.distances[0, 1]


@pytest.mark.parametrize(
    "topo",
    [
        regular_line(30, 0.7, power_law(2.0), 1.0, 1.0),
        general_line([0.0, 1e-3, 2.5, 1e5, 1e5 + 0.1], power_law(2.0), 1.0, 1.0),
        ring(20, 1.0, power_law(2.0), 1.0, 1.0),
        ring(7, 1e-150, power_law(2.0), 1.0, 1.0),
        arc(12, 1.0, 40.0, power_law(2.0), 1.0, 1.0),
    ],
    ids=["line", "uneven-line", "ring", "tiny-ring", "arc"],
)
def test_preset_distances_are_the_squared_form(topo):
    # Only a pair whose squared form is inf or below the smallest normal
    # float is taken again, scaled; no preset at these sizes has one, so
    # every distance keeps its bits.
    pts = np.array(topo.positions)
    diff = pts[:, None, :] - pts[None, :, :]
    assert np.array_equal(topo.distances, np.sqrt((diff * diff).sum(axis=2)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("nodes 3000\n" + HEADER + "dist 1 2 1.0\n", r"missing dist row for pair \(1, 3\)"),
        ("nodes 3000000\n" + HEADER + "pos 1 0\npos 2 1\n", r"pos rows must cover node ids 1\.\.n"),
    ],
    ids=["dist", "pos"],
)
def test_a_large_node_count_is_checked_before_allocating(text, message):
    # An n x n matrix (about 72 MB at n = 3000) or a list of every node id
    # (about 120 MB at n = 3,000,000) used to be built before these checks.
    tracemalloc.start()
    try:
        with pytest.raises(TopologyFormatError, match=message):
            parse_topology_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_the_first_missing_dist_pair_is_reported_in_row_order():
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5)]
    rows = "".join(f"dist {b} {a} 1.0\n" for a, b in pairs)
    with pytest.raises(TopologyFormatError, match=r"missing dist row for pair \(1, 5\)"):
        parse_topology_text("nodes 5\n" + HEADER + rows)
    rows += "dist 1 5 1.0\n"
    with pytest.raises(TopologyFormatError, match=r"missing dist row for pair \(2, 4\)"):
        parse_topology_text("nodes 5\n" + HEADER + rows)
    # A row out of range is reported at its row, before a missing pair.
    with pytest.raises(
        TopologyFormatError, match=r"^line 5: dist row node out of range in pair \(1, 3\)$"
    ):
        parse_topology_text("nodes 2\n" + HEADER + "dist 1 3 1.0\n")


POS3 = "pos 1 0\npos 2 1\npos 3 2\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("pos 1 0\npos 4 2\npos 5 3\n", "^line 5: pos row node 4 is out of range 1..n$"),
        ("dist 1 2 1\ndist 2 7 1\ndist 0 1 1\n",
         r"^line 5: dist row node out of range in pair \(2, 7\)$"),
        (POS3 + "hop 1 2\nhop 5 2\n", "^line 8: hop row node 5 is out of range 1..n$"),
        (POS3 + "hop 2 1 9\nhop 1 0\n", "^line 7: hop row of node 2 references node 9$"),
        ("hop 1 4\npos 5 0\n", "^line 4: hop row of node 1 references node 4$"),
    ],
    ids=["pos", "dist", "hop", "hop-member", "file-order"],
)
def test_an_out_of_range_node_id_is_reported_at_its_row(rows, message):
    # The nodes row comes after the rows it bounds, and every file also
    # misses a node or a pair: the first row out of range is reported, in
    # file order across row kinds, before any coverage check.
    with pytest.raises(TopologyFormatError, match=message):
        parse_topology_text(HEADER + rows + "nodes 3\n")


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
    text = "nodes 2\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\nhop 1 1\n"
    with pytest.raises(TopologyFormatError, match="^line 7: hop row of node 1 references itself$"):
        parse_topology_text(text)


def test_conflicting_dist_rows_rejected():
    text = (
        "nodes 2\ngain const\npower 1\nnoise 1\n"
        "dist 1 2 1.0\ndist 2 1 3.0\n"
    )
    with pytest.raises(TopologyFormatError, match="conflicting"):
        parse_topology_text(text)


def test_duplicate_hop_rows_rejected():
    text = (
        "nodes 3\ngain const\npower 1\nnoise 1\npos 1 0\npos 2 1\npos 3 2\n"
        "hop 1 2\nhop 2 1 3\nhop 3 2\nhop 1 3\n"
    )
    with pytest.raises(TopologyFormatError, match="line 11: duplicate hop row for node 1"):
        parse_topology_text(text)
