"""Network geometry, the received-power model, k-hop neighborhoods, and relay schedules.

Nodes are indexed 0..n-1.  A topology couples pairwise distances with a
non-increasing amplitude gain g(d), a common transmit power P and a common
noise level N; the only channel quantity used downstream is the received
power g(d_ij)^2 * P.  On top of that sit the hop-distance matrix of one-hop
sets, the schedule as one array of decode and repeat lags, and the
distance-ordering test used by the line-network analysis.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ModelViolationError, TopologyFormatError

GainLike = Callable[[float], float]

_DIST_TOL = 1e-9
# Largest n for which distance_ordering_check tries every labeling (n! work).
_EXHAUSTIVE_ORDER_LIMIT = 8
# Distances one chunk of the ordering check gathers (half a megabyte).
_GATHER_CELLS = 1 << 16


# ---------------------------------------------------------------------------
# gain functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GainFunction:
    """Named distance-to-amplitude-gain map.

    ``power-law`` is parameterized so that the *received power* decays as
    d^-parameter, i.e. the amplitude gain is d^(-parameter/2).
    """

    kind: str
    parameter: float = 0.0

    def __call__(self, distance: float) -> float:
        d = float(distance)
        if self.kind == "power-law":
            return d ** (-self.parameter / 2.0)
        if self.kind == "exponential":
            return math.exp(-self.parameter * d)
        if self.kind == "constant":
            return 1.0
        raise ValueError(f"unknown gain kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "power-law":
            return f"pl:{self.parameter:g}"
        if self.kind == "exponential":
            return f"exp:{self.parameter:g}"
        return "const"

    @staticmethod
    def parse(text: str) -> "GainFunction":
        """Parse a label of the form ``pl:<alpha>``, ``exp:<gamma>`` or ``const``."""
        text = text.strip()
        if text == "const":
            return constant()
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"bad gain spec {text!r}; expected pl:<a>, exp:<g> or const")
        try:
            value = float(tail)
        except ValueError as exc:
            raise ValueError(f"bad gain parameter in {text!r}") from exc
        if head == "pl":
            return power_law(value)
        if head == "exp":
            return exponential(value)
        raise ValueError(f"unknown gain preset {head!r}")


def power_law(alpha: float) -> GainFunction:
    """Received power decays as d^-alpha (amplitude gain d^(-alpha/2))."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("power-law exponent must be finite and nonnegative")
    return GainFunction("power-law", float(alpha))


def exponential(gamma: float) -> GainFunction:
    """Amplitude gain exp(-gamma * d)."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("exponential decay rate must be finite and nonnegative")
    return GainFunction("exponential", float(gamma))


def constant() -> GainFunction:
    """Distance-independent unit amplitude gain."""
    return GainFunction("constant", 0.0)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable network description: distances, gain map, power P, noise N.

    ``distances`` is kept as a read-only n x n float array, converted (and
    copied) once from any square nested sequence or array, and ``power``
    and ``noise`` as floats, so that an int and a float of one value give
    one file form.  Topologies compare and hash by identity.  Only the file
    form (``canonical_text``, hence the hash) reads ``positions``.
    """

    distances: np.ndarray
    gain: GainLike
    power: float
    noise: float
    positions: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.distances)
        if n < 2:
            raise ValueError("topology needs at least two nodes")
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError("transmit power must be finite and positive")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ValueError("noise power must be finite and positive")
        if any(len(row) != n for row in self.distances):
            raise ValueError("distance matrix must be square")
        matrix = np.array(self.distances, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("distance matrix must be square")
        _check_distances(matrix)
        if self.positions is not None and len(self.positions) != n:
            raise ValueError("positions must cover every node")
        matrix.flags.writeable = False
        object.__setattr__(self, "distances", matrix)
        object.__setattr__(self, "power", float(self.power))
        object.__setattr__(self, "noise", float(self.noise))

    @property
    def n(self) -> int:
        return len(self.distances)

    @cached_property
    def _derived(self) -> dict:
        # Values computed from this object alone and kept after their first
        # use: its power matrix (build_power_matrix), its distance ordering
        # (distance_ordering_check) and its line table (rate_analysis).
        return {}


def _check_distances(d: np.ndarray) -> None:
    """Raise the first fault of a square distance matrix, in row-major order.

    Row i is checked at its diagonal first, then cell by cell: a value that
    is negative or not finite, then a zero off the diagonal, then a value
    farther from its mirror than ``_DIST_TOL`` relative.  A mirror that is
    not finite is reported as an asymmetry, unless it is NaN.
    """
    off_diagonal = ~np.eye(len(d), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        bad_value = ~(np.isfinite(d) & (d >= 0))
        coincide = (d == 0) & off_diagonal
        asymmetric = np.abs(d - d.T) > _DIST_TOL * np.maximum(1.0, d)
    cell_fault = bad_value | coincide | asymmetric
    diagonal_fault = np.abs(np.diagonal(d)) > 0
    row_fault = diagonal_fault | cell_fault.any(axis=1)
    if not row_fault.any():
        return
    i = int(np.argmax(row_fault))
    if diagonal_fault[i]:
        raise ValueError("distance matrix diagonal must be zero")
    j = int(np.argmax(cell_fault[i]))
    if bad_value[i, j]:
        raise ValueError("distances must be finite and nonnegative")
    if coincide[i, j]:
        raise ValueError(f"nodes {i} and {j} coincide")
    raise ValueError("distance matrix must be symmetric")


def topology_from_positions(
    positions: Sequence[Sequence[float] | float],
    gain: GainLike,
    power: float,
    noise: float,
) -> Topology:
    """Build a topology from node coordinates (1-D scalars or coordinate tuples)."""
    pts = []
    for p in positions:
        if isinstance(p, (int, float)):
            pts.append((float(p),))
        else:
            pts.append(tuple(float(x) for x in p))
    if len(pts) < 2:
        raise ValueError("topology needs at least two nodes")
    dims = {len(p) for p in pts}
    if len(dims) > 1:
        raise ValueError("all positions must share one dimension")
    if not all(math.isfinite(x) for p in pts for x in p):
        raise ValueError("node positions must be finite")
    return Topology(_pairwise_distances(pts), gain, power, noise, tuple(pts))


def _pairwise_distances(pts: Sequence[tuple[float, ...]]) -> np.ndarray:
    """Euclidean distances between points of one dimension.

    Each is the root of the sum of squared coordinate differences, unless
    that sum overflows to inf or falls below the smallest normal float
    (where it loses precision, down to 0) for distinct points: then the
    differences are first divided by the largest of them, which multiplies
    the root.  Only a distance too large for a float is inf, without a
    numpy warning; the callers report it.
    """
    arr = np.asarray(pts, dtype=float)
    with np.errstate(over="ignore"):
        diff = arr[:, None, :] - arr[None, :, :]
        squared = (diff * diff).sum(axis=2)
        dist = np.sqrt(squared)
        scale = np.abs(diff).max(axis=2)
        tiny = np.finfo(float).tiny
        redo = ((squared < tiny) | (squared == math.inf)) & (0 < scale) & (scale < math.inf)
        s = scale[redo]
        unit = diff[redo] / s[:, None]
        dist[redo] = s * np.sqrt((unit * unit).sum(axis=1))
    return dist


def topology_from_distances(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    gain: GainLike,
    power: float,
    noise: float,
) -> Topology:
    """Build a topology from a symmetric distance matrix (no coordinates kept)."""
    return Topology(matrix, gain, power, noise, None)


def regular_line(n: int, spacing: float, gain: GainLike, power: float, noise: float) -> Topology:
    """n nodes on a line with equal spacing."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return topology_from_positions([i * spacing for i in range(n)], gain, power, noise)


def general_line(
    coordinates: Sequence[float], gain: GainLike, power: float, noise: float
) -> Topology:
    """Nodes on a line at arbitrary (distinct) coordinates."""
    return topology_from_positions(list(coordinates), gain, power, noise)


def ring(n: int, spacing: float, gain: GainLike, power: float, noise: float) -> Topology:
    """n nodes evenly spaced on a circle; ``spacing`` is the arc length between neighbors."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    radius = n * spacing / (2.0 * math.pi)
    pts = [
        (radius * math.cos(2.0 * math.pi * k / n), radius * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    ]
    return topology_from_positions(pts, gain, power, noise)


def arc(
    n: int,
    spacing: float,
    radius: float,
    gain: GainLike,
    power: float,
    noise: float,
) -> Topology:
    """n nodes with equal arc spacing on a circle of the given radius.

    With ``radius >> n * spacing`` this is a shallow near-line arrangement;
    the total subtended angle must stay below pi so that chord lengths grow
    with arc separation.
    """
    if spacing <= 0 or radius <= 0:
        raise ValueError("spacing and radius must be positive")
    if (n - 1) * spacing / radius >= math.pi:
        raise ValueError("arc subtends an angle >= pi; increase radius")
    pts = []
    for k in range(n):
        theta = k * spacing / radius
        pts.append((radius * math.sin(theta), radius * (1.0 - math.cos(theta))))
    return topology_from_positions(pts, gain, power, noise)


# ---------------------------------------------------------------------------
# received power
# ---------------------------------------------------------------------------


def build_power_matrix(topology: Topology) -> np.ndarray:
    """Evaluate the gain on every pairwise distance and square into received power.

    Returns the read-only n x n array whose ``[i, j]`` is the power node j
    receives from node i, with a zero diagonal.  The array is built on the
    first call for a topology object and kept on that object, so later calls
    return the same one.

    Raises ModelViolationError if the sampled gain is negative, non-finite, or
    increases anywhere over the sorted pairwise distances, or if a received
    power, a receiver's total, or that total over the noise is not finite.
    """
    derived = topology._derived
    if "power_matrix" not in derived:
        derived["power_matrix"] = _received_powers(topology)
    return derived["power_matrix"]


def _received_powers(topology: Topology) -> np.ndarray:
    n = topology.n
    off_diagonal = ~np.eye(n, dtype=bool)
    # The gain, its square and the received power are Python float
    # operations, once per distinct distance; ``where`` spreads them out.
    unique, where = np.unique(topology.distances[off_diagonal], return_inverse=True)
    gains = []
    for d in unique:
        try:
            g = float(topology.gain(d))
        except OverflowError:
            g = math.inf
        if not math.isfinite(g) or g < 0:
            raise ModelViolationError(f"gain at distance {d} is {g}; must be finite and >= 0")
        gains.append(g)
    for k in range(1, len(gains)):
        if gains[k] > gains[k - 1] + 1e-12 * max(1.0, gains[k - 1]):
            raise ModelViolationError(
                f"gain increases from distance {unique[k - 1]} to {unique[k]}; "
                "the model requires a non-increasing gain"
            )
    powers = []
    for g in gains:
        try:
            powers.append(g ** 2 * topology.power)
        except OverflowError:
            powers.append(math.inf)
    received = np.zeros((n, n))
    received[off_diagonal] = np.array(powers)[where]
    # Every receiver's total adds its column left to right from 0, one sender
    # row at a time, so each is bitwise the plain Python loop on every
    # version; an overflow to inf is what the check below reports.
    totals = np.zeros(n)
    with np.errstate(over="ignore"):
        for row in received:
            totals += row
    for j, total in enumerate(totals.tolist()):
        if not math.isfinite(total / topology.noise):
            raise ModelViolationError(
                f"received power at node {j} overflows: total {total} over noise "
                f"{topology.noise} is not finite"
            )
    received.flags.writeable = False
    return received


# ---------------------------------------------------------------------------
# k-hop neighborhoods
# ---------------------------------------------------------------------------


def k_hop_neighbors(one_hop: Sequence[Iterable[int]]) -> np.ndarray:
    """Hop distances along one-hop sets, as an n x n int64 array: ``[i, j]``
    is the number of hops in which node i first reaches node j (its k-hop
    layer is the j at k), 0 on the diagonal and where j is never reached.
    Each step moves every node's frontier one hop by a boolean matrix product."""
    sets = [frozenset(s) for s in one_hop]
    n = len(sets)
    adjacent = np.zeros((n, n), dtype=bool)
    for i, s in enumerate(sets):
        for j in s:
            if not (0 <= j < n):
                raise ValueError(f"one-hop neighbor {j} of node {i} out of range")
            adjacent[i, j] = True
        if i in s:
            raise ValueError(f"node {i} lists itself as a one-hop neighbor")
    hops = adjacent.astype(np.int64)
    reached = adjacent | np.eye(n, dtype=bool)
    frontier, k = adjacent, 1
    while frontier.any():
        k += 1
        frontier = (frontier @ adjacent) & ~reached
        hops[frontier] = k
        reached |= frontier
    return hops


def coverage_check(hops: np.ndarray) -> tuple[bool, ...]:
    """Per node: does its row of the hop matrix ``hops`` reach every other node?"""
    return tuple(((hops > 0) | np.eye(len(hops), dtype=bool)).all(axis=1).tolist())


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per node, the lag at which it decodes and at which it repeats each source.

    ``lags`` is kept as a read-only ``(2, n, n)`` int64 array, copied once
    from any integer array or nested sequence: ``lags[0, i, j]`` is the lag
    at which node i decodes source j, ``lags[1, i, j]`` the lag at which it
    repeats j, and 0 means never.  Schedules compare and hash by identity.
    """

    lags: np.ndarray

    def __post_init__(self) -> None:
        lags = np.array(self.lags)
        if lags.ndim != 3 or lags.shape[0] != 2 or lags.shape[1] != lags.shape[2]:
            raise ValueError("schedule lags must have shape (2, n, n)")
        if not np.issubdtype(lags.dtype, np.integer):
            raise ValueError("schedule lags must be integers")
        lags = lags.astype(np.int64, copy=False)
        if (lags < 0).any():
            raise ValueError("schedule lags must be nonnegative")
        lags.flags.writeable = False
        object.__setattr__(self, "lags", lags)

    @classmethod
    def from_rows(cls, decode_sets: Iterable, encode_sets: Iterable) -> Schedule:
        """The schedule whose node i decodes (repeats) the sources of entry
        k-1 of ``decode_sets[i]`` (``encode_sets[i]``) at lag k; missing
        entries of ragged rows are empty.  Raises ValueError, naming the
        node and lag, on what a lag array cannot hold: a member out of
        range, or a source in two decode or two encode sets of one row.
        """
        decode_sets, encode_sets = tuple(decode_sets), tuple(encode_sets)
        if len(decode_sets) != len(encode_sets):
            raise ValueError("decode and encode rows must cover the same nodes")
        n = len(decode_sets)
        lags = np.zeros((2, n, n), dtype=np.int64)
        for i in range(n):
            for part, row in enumerate((decode_sets[i], encode_sets[i])):
                for k, members in enumerate(row, start=1):
                    for j in sorted(set(members)):
                        if not (0 <= j < n):
                            raise ValueError(f"node {i} lag {k}: member {j} out of range")
                        if lags[part, i, j]:
                            fault = (
                                f"encode set members [{j}] not available at lag {k}"
                                if part
                                else f"decode set repeats [{j}] from earlier lags"
                            )
                            raise ValueError(f"node {i} lag {k}: {fault}")
                        lags[part, i, j] = k
        return cls(lags)

    @property
    def n(self) -> int:
        return self.lags.shape[1]

    @cached_property
    def decode_sets(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """Per node, the sources it decodes at lag 1, 2, ... up to its last."""
        return _lag_rows(self.lags[0])

    @cached_property
    def encode_sets(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """Per node, the sources it repeats at lag 1, 2, ... up to its last."""
        return _lag_rows(self.lags[1])

    def decode_lag(self, node: int) -> dict[int, int]:
        """Map each source ``node`` decodes to its decode lag, in id order."""
        row = self.lags[0, node]
        sources = np.flatnonzero(row)
        return dict(zip(sources.tolist(), row[sources].tolist()))


def _lag_rows(lags: np.ndarray) -> tuple[tuple[frozenset[int], ...], ...]:
    """Each row of the n x n lag matrix ``lags`` as the sets of its nodes at
    lag 1, 2, ... up to the row's largest lag."""
    return tuple(
        tuple(frozenset(np.flatnonzero(row == k).tolist()) for k in range(1, top + 1))
        for row, top in zip(lags, lags.max(axis=1, initial=0).tolist())
    )


def distance_regulated_schedule(hops: np.ndarray) -> Schedule:
    """Schedule that decodes and repeats each node's hop-k nodes at lag k."""
    return Schedule(np.stack((hops, hops)))


@dataclass(frozen=True)
class ScheduleViolation:
    node: int
    hop: int
    message: str


def validate_schedule(schedule: Schedule) -> list[ScheduleViolation]:
    """Check the schedule rules; return one entry per violation, by node, then lag.

    Rules per node i: it never decodes itself (at lag 2 or later, reported
    also as a repeat of i), and it repeats a source at lag e only if it
    decodes it at a lag d with 0 < d <= e, reported once per lag (listing
    the sources from lag 2 on).  A node's own decode comes first at its lag.
    """
    decode, encode = schedule.lags
    late = (encode > 0) & ((decode == 0) | (decode > encode))
    out: list[ScheduleViolation] = []
    for i in np.flatnonzero((np.diagonal(decode) > 0) | late.any(axis=1)).tolist():
        found = []
        own = int(decode[i, i])
        if own:
            found.append((own, "decode set contains the node itself"))
        if own >= 2:
            found.append((own, f"decode set repeats [{i}] from earlier lags"))
        bad = np.flatnonzero(late[i])
        for e in sorted(set(encode[i, bad].tolist())):
            if e == 1:
                found.append((1, "lag-1 encode set not within lag-1 decode set"))
            else:
                members = bad[encode[i, bad] == e].tolist()
                found.append((e, f"encode set members {members} not available at lag {e}"))
        found.sort(key=lambda entry: entry[0])
        out += [ScheduleViolation(i, k, message) for k, message in found]
    return out


# ---------------------------------------------------------------------------
# distance ordering
# ---------------------------------------------------------------------------


def _is_distance_ordered(d: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Per row of the ``(k, n)`` labelings ``orders``, whether every node sees
    distances ``d`` that do not decrease moving outward along it.  The rows
    go in chunks of about ``_GATHER_CELLS`` distances, at least one row."""
    n = orders.shape[1]
    step, anchor = np.arange(n - 1), np.arange(n)[:, None]
    rows = max(1, _GATHER_CELLS // (n * n))
    verdicts = []
    for first in range(0, len(orders), rows):
        chunk = orders[first : first + rows]
        # seen[r, a, t]: the distance the node at place a of row r sees to
        # place t.  Step t -> t + 1 is checked right of the anchor, t + 1 -> t left.
        seen = d[chunk[:, :, None], chunk[:, None, :]]
        inner, outer = seen[:, :, :-1], seen[:, :, 1:]
        right = (inner > outer + _DIST_TOL) & (step >= anchor + 1)
        left = (outer > inner + _DIST_TOL) & (step <= anchor - 2)
        verdicts.append(~(right | left).any(axis=(1, 2)))
    return np.concatenate(verdicts)


def _canonical(order: Sequence[int]) -> tuple[int, ...]:
    order = tuple(order)
    return order if order[0] <= order[-1] else order[::-1]


def distance_ordering_check(topology: Topology) -> tuple[int, ...] | None:
    """Find a labeling under which every node sees non-decreasing distances outward.

    Reads the distance matrix only.  The one candidate sorts the nodes by
    distance from ``e``, the first farthest node from node 0, ties broken
    by index.  If an ordering exists, ``e`` is one of its ends, and when no
    node sees two others within ``_DIST_TOL`` of the same distance the sort
    rebuilds it, so a None is then exact at every n.  If the candidate fails
    and n is at most ``_EXHAUSTIVE_ORDER_LIMIT``, the first passing labeling
    with first node id below last, in ``itertools.permutations`` order, is
    returned, exact with ties too.  Above the limit, tied distances can hide
    an ordering the candidate misses.

    Returns the labeling (oriented so its first node id is the smaller
    endpoint), or None.  The check runs on the first call for a topology
    object, and later calls return its result.
    """
    derived = topology._derived
    if "ordering" not in derived:
        derived["ordering"] = _find_distance_ordering(topology)
    return derived["ordering"]


def _find_distance_ordering(topology: Topology) -> tuple[int, ...] | None:
    d = topology.distances
    end = int(np.argmax(d[0]))
    candidate = np.argsort(d[end], kind="stable")
    if _is_distance_ordered(d, candidate[None, :])[0]:
        return _canonical(candidate.tolist())
    n = topology.n
    if n <= _EXHAUSTIVE_ORDER_LIMIT:
        labelings = np.fromiter(chain.from_iterable(permutations(range(n))), np.intp)
        labelings = labelings.reshape(-1, n)
        labelings = labelings[labelings[:, 0] < labelings[:, -1]]  # reversal is equivalent
        passed = _is_distance_ordered(d, labelings)
        if passed.any():
            return tuple(labelings[int(np.argmax(passed))].tolist())
    return None


# ---------------------------------------------------------------------------
# topology files
# ---------------------------------------------------------------------------


def parse_topology_text(
    text: str,
) -> tuple[Topology, tuple[frozenset[int], ...] | None]:
    """Parse a structured-text topology description.

    Format (one directive per line, ``#`` comments allowed)::

        nodes 4
        gain pl 2.0          # pl <alpha> | exp <gamma> | const
        power 10.0
        noise 1.0
        pos 1 0.0            # node ids are 1..n in files; or use dist rows
        dist 1 2 1.0
        hop 1 2 3            # optional explicit one-hop sets

    Returns the topology and, when ``hop`` rows are present, the one-hop sets
    (0-based).  Exactly one of ``pos``/``dist`` must be used.  A bad value is
    reported at the row that holds it, with the file's node ids; a node id
    outside 1..n, at the first such row, wherever the ``nodes`` row is; two
    nodes that coincide, at the later of their rows.
    """
    n = None
    gain: GainFunction | None = None
    power = None
    noise = None
    pos_rows: dict[int, tuple[float, ...]] = {}
    pos_line: dict[int, int] = {}
    node_at: dict[tuple[float, ...], int] = {}
    dist_rows: dict[tuple[int, int], float] = {}
    hop_rows: dict[int, frozenset[int]] = {}
    # (line, key, node ids as written) of every pos, dist and hop row, in
    # file order; the ids are checked once n is known.
    id_rows: list[tuple[int, str, tuple[int, ...]]] = []
    headers: set[str] = set()

    def fail(lineno: int, msg: str) -> TopologyFormatError:
        return TopologyFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        # A fixed-width row unpacks its tokens, so a missing or extra one is
        # a ValueError and reads as malformed below.
        try:
            if key in ("nodes", "gain", "power", "noise"):
                if key in headers:
                    raise fail(lineno, f"duplicate {key!r} row")
                headers.add(key)
            if key == "nodes":
                (count,) = parts[1:]
                n = int(count)
                if n < 2:
                    raise fail(lineno, "topology needs at least two nodes")
            elif key == "gain":
                kind, *args = parts[1:]
                if kind == "const":
                    if args:
                        raise fail(lineno, "malformed 'gain' row")
                    gain = constant()
                elif kind in ("pl", "exp"):
                    (parameter,) = args
                    gain = (power_law if kind == "pl" else exponential)(float(parameter))
                else:
                    raise fail(lineno, f"unknown gain preset {kind!r}")
            elif key in ("power", "noise"):
                (token,) = parts[1:]
                value = float(token)
                if not math.isfinite(value):
                    raise fail(lineno, f"{key} must be finite")
                if value <= 0:
                    raise fail(lineno, f"{key} must be positive")
                if key == "power":
                    power = value
                else:
                    noise = value
            elif key == "pos":
                node = int(parts[1])
                coords = tuple(float(x) for x in parts[2:])
                if not 1 <= len(coords) <= 2:
                    raise fail(lineno, "pos rows take one or two coordinates")
                if not all(map(math.isfinite, coords)):
                    raise fail(lineno, "positions must be finite")
                if node in pos_rows:
                    raise fail(lineno, f"duplicate pos row for node {node}")
                other = node_at.setdefault(coords, node)
                if other != node:
                    raise fail(lineno, f"nodes {min(node, other)} and {max(node, other)} coincide")
                pos_rows[node] = coords
                pos_line[node] = lineno
                id_rows.append((lineno, key, (node,)))
            elif key == "dist":
                a, b, value = parts[1:]
                a, b, value = int(a), int(b), float(value)
                if a == b:
                    raise fail(lineno, "dist rows need two distinct nodes")
                pair = (min(a, b), max(a, b))
                if not (math.isfinite(value) and value >= 0):
                    raise fail(lineno, "distances must be finite and nonnegative")
                if value == 0:
                    raise fail(lineno, f"nodes {pair[0]} and {pair[1]} coincide")
                if pair in dist_rows and abs(dist_rows[pair] - value) > _DIST_TOL:
                    raise fail(lineno, f"conflicting dist rows for pair {pair}")
                dist_rows[pair] = value
                id_rows.append((lineno, key, pair))
            elif key == "hop":
                node = int(parts[1])
                if node in hop_rows:
                    raise fail(lineno, f"duplicate hop row for node {node}")
                members = tuple(int(x) for x in parts[2:])
                if node in members:
                    raise fail(lineno, f"hop row of node {node} references itself")
                hop_rows[node] = frozenset(members)
                id_rows.append((lineno, key, (node, *members)))
            else:
                raise fail(lineno, f"unknown directive {key!r}")
        except TopologyFormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise fail(lineno, f"malformed {key!r} row") from exc

    if n is None:
        raise TopologyFormatError("missing 'nodes' header")
    if gain is None or power is None or noise is None:
        raise TopologyFormatError("gain, power and noise are all required")
    if pos_rows and dist_rows:
        raise TopologyFormatError("use either pos rows or dist rows, not both")
    if not pos_rows and not dist_rows:
        raise TopologyFormatError("no pos or dist rows found")
    for lineno, key, ids in id_rows:
        bad = [i for i in ids if not 1 <= i <= n]
        if not bad:
            continue
        if key == "dist":
            raise fail(lineno, f"dist row node out of range in pair {ids}")
        if bad[0] == ids[0]:
            raise fail(lineno, f"{key} row node {ids[0]} is out of range 1..n")
        raise fail(lineno, f"hop row of node {ids[0]} references node {bad[0]}")

    # Coverage is checked from the rows given, so that a large node count
    # allocates nothing before the file is known to list every node or pair.
    # Every id is in 1..n and none is given twice, so a count is coverage.
    if pos_rows:
        if len(pos_rows) != n:
            raise TopologyFormatError("pos rows must cover node ids 1..n exactly")
        # pos_rows is in file order: the first row whose dimension differs
        # from the first row's is reported.
        dim = len(next(iter(pos_rows.values())))
        for node, coords in pos_rows.items():
            if len(coords) != dim:
                raise fail(pos_line[node], "pos rows must share one dimension")
        pts = [pos_rows[i] for i in range(1, n + 1)]
        dist = _pairwise_distances(pts)
        # Points too far apart for a float distance: reported at the row
        # where the first such pair is complete.
        bad = np.triu(np.isinf(dist), 1)
        if bad.any():
            at = [pos_line[i] for i in range(1, n + 1)]
            # The pair whose later row comes first, then whose earlier row does.
            a, b = min(np.argwhere(bad).tolist(), key=lambda p: sorted((at[p[0]], at[p[1]]))[::-1])
            message = f"nodes {a + 1} and {b + 1} are too far apart for a float distance"
            raise fail(max(at[a], at[b]), message)
        topo = Topology(dist, gain, power, noise, tuple(pts))
    else:
        # Row a misses a pair when it has fewer than n - a; the first missing
        # b is found within its count + 1 tries.
        row_counts = Counter(a for a, _ in dist_rows)
        a = next((a for a in range(1, n) if row_counts[a] < n - a), None)
        if a is not None:
            b = next(b for b in range(a + 1, n + 1) if (a, b) not in dist_rows)
            raise TopologyFormatError(f"missing dist row for pair ({a}, {b})")
        matrix = [[0.0] * n for _ in range(n)]
        for (a, b), value in dist_rows.items():
            matrix[a - 1][b - 1] = matrix[b - 1][a - 1] = value
        topo = topology_from_distances(matrix, gain, power, noise)

    one_hop = None
    if hop_rows:
        if len(hop_rows) != n:
            raise TopologyFormatError("hop rows, when present, must cover node ids 1..n")
        one_hop = tuple(frozenset(j - 1 for j in hop_rows[i]) for i in range(1, n + 1))
    return topo, one_hop


def load_topology_file(path: str) -> tuple[Topology, tuple[frozenset[int], ...] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology_text(fh.read())


def canonical_text(
    topology: Topology, one_hop: Sequence[Iterable[int]] | None = None
) -> str:
    """Deterministic textual form of a topology, reusable as a file and for hashing.

    Raises ValueError when the gain is not a ``GainFunction``: the file format
    has no form for any other gain.
    """
    g = topology.gain
    if not isinstance(g, GainFunction):
        name = getattr(g, "__qualname__", type(g).__qualname__)
        raise ValueError(f"gain {name} has no text form; only pl, exp and const gains do")
    lines = [f"nodes {topology.n}"]
    if g.kind == "constant":
        lines.append("gain const")
    else:
        short = {"power-law": "pl", "exponential": "exp"}[g.kind]
        lines.append(f"gain {short} {g.parameter!r}")
    lines.append(f"power {topology.power!r}")
    lines.append(f"noise {topology.noise!r}")
    if topology.positions is not None:
        for i, p in enumerate(topology.positions, start=1):
            coords = " ".join(repr(x) for x in p)
            lines.append(f"pos {i} {coords}")
    else:
        for i, row in enumerate(topology.distances.tolist()):
            for j in range(i + 1, topology.n):
                lines.append(f"dist {i + 1} {j + 1} {row[j]!r}")
    if one_hop is not None:
        for i, members in enumerate(one_hop, start=1):
            tail = " ".join(str(j + 1) for j in sorted(members))
            lines.append(f"hop {i} {tail}".rstrip())
    return "\n".join(lines) + "\n"
