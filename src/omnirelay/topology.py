"""Network geometry, the received-power model, k-hop neighborhoods, and relay schedules.

Nodes are indexed 0..n-1.  A topology couples pairwise distances with a
non-increasing amplitude gain g(d), a common transmit power P and a common
noise level N; the only channel quantity used downstream is the received
power g(d_ij)^2 * P.  On top of that sit the k-hop neighbor recursion, the
decode/encode schedule structures, and the distance-ordering test used by
the line-network analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ModelViolationError, TopologyFormatError

GainLike = Callable[[float], float]

_DIST_TOL = 1e-9
# Largest n for which distance_ordering_check tries every labeling (n! work).
_EXHAUSTIVE_ORDER_LIMIT = 8


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


@dataclass(frozen=True)
class Topology:
    """Immutable network description: distances, gain map, power P, noise N."""

    distances: tuple[tuple[float, ...], ...]
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
        for i, row in enumerate(self.distances):
            if len(row) != n:
                raise ValueError("distance matrix must be square")
            if abs(row[i]) > 0:
                raise ValueError("distance matrix diagonal must be zero")
            for j in range(n):
                if row[j] < 0 or not math.isfinite(row[j]):
                    raise ValueError("distances must be finite and nonnegative")
                if i != j and row[j] == 0:
                    raise ValueError(f"nodes {i} and {j} coincide")
                if abs(row[j] - self.distances[j][i]) > _DIST_TOL * max(1.0, row[j]):
                    raise ValueError("distance matrix must be symmetric")
        if self.positions is not None and len(self.positions) != n:
            raise ValueError("positions must cover every node")

    @property
    def n(self) -> int:
        return len(self.distances)

    def distance(self, i: int, j: int) -> float:
        return self.distances[i][j]

    def distance_matrix(self) -> np.ndarray:
        return np.asarray(self.distances, dtype=float)

    @cached_property
    def _derived(self) -> dict:
        # Values computed from this object alone and kept after their first
        # use: its power matrix (build_power_matrix) and its line table
        # (rate_analysis).  Equal but distinct topologies keep their own.
        return {}


def _distance_tuple(matrix: Iterable[Iterable[float]]) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in matrix)


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
    arr = np.asarray(pts, dtype=float)
    # A distance too large for a float overflows to inf here, and Topology
    # rejects it; numpy must not also print a RuntimeWarning.
    with np.errstate(over="ignore"):
        diff = arr[:, None, :] - arr[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
    return Topology(_distance_tuple(dist), gain, float(power), float(noise), tuple(pts))


def topology_from_distances(
    matrix: Iterable[Iterable[float]],
    gain: GainLike,
    power: float,
    noise: float,
) -> Topology:
    """Build a topology from a symmetric distance matrix (no coordinates kept)."""
    return Topology(_distance_tuple(matrix), gain, float(power), float(noise), None)


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


@dataclass(frozen=True, eq=False)
class PowerMatrix:
    """Received powers; ``received[i, j]`` is the power node j sees from node i.

    The diagonal is unused and stored as zero.
    """

    received: np.ndarray

    @property
    def n(self) -> int:
        return self.received.shape[0]

    def pair(self, sender: int, receiver: int) -> float:
        return float(self.received[sender, receiver])

    def into(self, receiver: int) -> np.ndarray:
        """Column of powers arriving at ``receiver`` (own entry zero)."""
        return self.received[:, receiver].copy()

    def total_into(self, receiver: int) -> float:
        return float(self.received[:, receiver].sum())


def build_power_matrix(topology: Topology) -> PowerMatrix:
    """Evaluate the gain on every pairwise distance and square into received power.

    The matrix is built on the first call for a topology object and kept on
    that object, so later calls return the same, read-only, matrix.

    Raises ModelViolationError if the sampled gain is negative, non-finite, or
    increases anywhere over the sorted pairwise distances, or if a received
    power, a receiver's total, or that total over the noise is not finite.
    """
    derived = topology._derived
    if "power_matrix" not in derived:
        derived["power_matrix"] = _received_powers(topology)
    return derived["power_matrix"]


def _received_powers(topology: Topology) -> PowerMatrix:
    n = topology.n
    off_diagonal = ~np.eye(n, dtype=bool)
    # The gain, its square and the received power are Python float
    # operations, once per distinct distance; ``where`` spreads them out.
    unique, where = np.unique(topology.distance_matrix()[off_diagonal], return_inverse=True)
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
    for j in range(n):
        # Checked in Python, before a numpy reduction can overflow with a warning.
        total = sum(received[:, j].tolist())
        if not math.isfinite(total / topology.noise):
            raise ModelViolationError(
                f"received power at node {j} overflows: total {total} over noise "
                f"{topology.noise} is not finite"
            )
    received.flags.writeable = False
    return PowerMatrix(received)


# ---------------------------------------------------------------------------
# k-hop neighborhoods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeighborSets:
    """Per-node layered neighbor sets; layer k holds the nodes first reached in k hops."""

    hop_sets: tuple[tuple[frozenset[int], ...], ...]

    @property
    def n(self) -> int:
        return len(self.hop_sets)

    def horizon(self, node: int) -> int:
        """Number of nonempty layers of ``node`` (0 for an isolated node)."""
        return len(self.hop_sets[node])

    def sets(self, node: int) -> tuple[frozenset[int], ...]:
        return self.hop_sets[node]

    def k_set(self, node: int, k: int) -> frozenset[int]:
        """Layer k (1-based); empty beyond the node's horizon."""
        if k < 1:
            raise ValueError("hop index is 1-based")
        layers = self.hop_sets[node]
        return layers[k - 1] if k <= len(layers) else frozenset()

    def reachable(self, node: int) -> frozenset[int]:
        out: set[int] = set()
        for layer in self.hop_sets[node]:
            out |= layer
        return frozenset(out)


def _normalize_one_hop(
    one_hop: Sequence[Iterable[int]] | Mapping[int, Iterable[int]],
) -> list[frozenset[int]]:
    if isinstance(one_hop, Mapping):
        n = len(one_hop)
        if sorted(one_hop) != list(range(n)):
            raise ValueError("one-hop mapping must have keys 0..n-1")
        sets = [frozenset(one_hop[i]) for i in range(n)]
    else:
        sets = [frozenset(s) for s in one_hop]
        n = len(sets)
    for i, s in enumerate(sets):
        for j in s:
            if not (0 <= j < n):
                raise ValueError(f"one-hop neighbor {j} of node {i} out of range")
        if i in s:
            raise ValueError(f"node {i} lists itself as a one-hop neighbor")
    return sets


def k_hop_neighbors(
    one_hop: Sequence[Iterable[int]] | Mapping[int, Iterable[int]],
) -> NeighborSets:
    """Unroll one-hop sets into layers of first-time-reachable nodes.

    Layer k of node i collects every j that is a one-hop neighbor of some
    layer-(k-1) member and has not appeared in an earlier layer (nor is i
    itself).  Layers stop as soon as one comes up empty.
    """
    sets = _normalize_one_hop(one_hop)
    n = len(sets)
    all_layers = []
    for i in range(n):
        layers: list[frozenset[int]] = []
        seen = {i} | set(sets[i])
        frontier = sets[i]
        if frontier:
            layers.append(frontier)
        while frontier:
            nxt: set[int] = set()
            for l in frontier:
                nxt |= sets[l]
            nxt -= seen
            if not nxt:
                break
            frontier = frozenset(nxt)
            layers.append(frontier)
            seen |= nxt
        all_layers.append(tuple(layers))
    return NeighborSets(tuple(all_layers))


def coverage_check(neighbors: NeighborSets, n: int | None = None) -> tuple[bool, ...]:
    """Per node: do the layers jointly reach every other node?"""
    if n is not None and n != neighbors.n:
        raise ValueError("node count does not match the neighbor sets")
    total = neighbors.n
    result = []
    for i in range(total):
        result.append(neighbors.reachable(i) == frozenset(range(total)) - {i})
    return tuple(result)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Per-node decode-set and encode-set sequences, both indexed by hop lag.

    ``decode_sets[i][k-1]`` is the set of sources whose lag-k message node i
    decodes each block; ``encode_sets[i][k-1]`` is the set whose lag-k message
    node i re-transmits.  Rows may be ragged; missing entries mean empty.
    """

    decode_sets: tuple[tuple[frozenset[int], ...], ...]
    encode_sets: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        if len(self.decode_sets) != len(self.encode_sets):
            raise ValueError("decode and encode rows must cover the same nodes")

    @property
    def n(self) -> int:
        return len(self.decode_sets)

    @property
    def horizon(self) -> int:
        return max(
            (len(row) for row in self.decode_sets + self.encode_sets),
            default=0,
        )

    def decode_set(self, node: int, k: int) -> frozenset[int]:
        row = self.decode_sets[node]
        return row[k - 1] if 1 <= k <= len(row) else frozenset()

    def encode_set(self, node: int, k: int) -> frozenset[int]:
        row = self.encode_sets[node]
        return row[k - 1] if 1 <= k <= len(row) else frozenset()

    def decode_lag(self, node: int) -> dict[int, int]:
        """Map each scheduled source to its (unique) decode lag for ``node``."""
        lag: dict[int, int] = {}
        for k, members in enumerate(self.decode_sets[node], start=1):
            for j in members:
                if j in lag:
                    raise ValueError(f"source {j} appears in two decode sets of node {node}")
                lag[j] = k
        return lag


def schedule_from_sets(
    decode_sets: Sequence[Sequence[Iterable[int]]],
    encode_sets: Sequence[Sequence[Iterable[int]]],
) -> Schedule:
    dec = tuple(tuple(frozenset(s) for s in row) for row in decode_sets)
    enc = tuple(tuple(frozenset(s) for s in row) for row in encode_sets)
    return Schedule(dec, enc)


def distance_regulated_schedule(neighbors: NeighborSets) -> Schedule:
    """Schedule that decodes and re-transmits layer k at lag k for every node."""
    rows = tuple(neighbors.hop_sets)
    return Schedule(rows, rows)


@dataclass(frozen=True)
class ScheduleViolation:
    node: int
    hop: int
    message: str


def validate_schedule(schedule: Schedule, n: int | None = None) -> list[ScheduleViolation]:
    """Check the schedule containment rules; return one entry per violation.

    Rules per node i: encode lag-1 within decode lag-1; decode lag-1 excludes
    i; each deeper decode set is disjoint from i and all shallower decode
    sets; each encode set draws only from decode sets up to the same lag and
    never repeats an earlier encode member.
    """
    total = schedule.n
    if n is not None and n != total:
        raise ValueError("node count does not match the schedule")
    out: list[ScheduleViolation] = []
    for i in range(total):
        dec = schedule.decode_sets[i]
        enc = schedule.encode_sets[i]
        horizon = max(len(dec), len(enc))
        dec_union: set[int] = set()
        enc_union: set[int] = set()
        for k in range(1, horizon + 1):
            d = schedule.decode_set(i, k)
            e = schedule.encode_set(i, k)
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


# ---------------------------------------------------------------------------
# distance ordering
# ---------------------------------------------------------------------------


def _is_distance_ordered(dist: Sequence[Sequence[float]], order: Sequence[int]) -> bool:
    # From each anchor, distances must be non-decreasing moving outward.
    n = len(order)
    for a in range(n):
        for t in range(a + 2, n):
            if dist[order[a]][order[t - 1]] > dist[order[a]][order[t]] + _DIST_TOL:
                return False
        for t in range(a - 2, -1, -1):
            if dist[order[a]][order[t + 1]] > dist[order[a]][order[t]] + _DIST_TOL:
                return False
    return True


def _principal_axis_order(topology: Topology) -> list[int]:
    if topology.positions is not None:
        arr = np.asarray(topology.positions, dtype=float)
        centered = arr - arr.mean(axis=0)
        if centered.shape[1] == 1:
            proj = centered[:, 0]
        else:
            _, _, vt = np.linalg.svd(centered, full_matrices=False)
            proj = centered @ vt[0]
    else:
        # Classical MDS: first coordinate of the double-centered squared distances.
        d2 = topology.distance_matrix() ** 2
        n = topology.n
        j = np.eye(n) - np.ones((n, n)) / n
        b = -0.5 * j @ d2 @ j
        vals, vecs = np.linalg.eigh(b)
        proj = vecs[:, -1] * math.sqrt(max(vals[-1], 0.0))
    return sorted(range(topology.n), key=lambda i: (proj[i], i))


def _canonical(order: Sequence[int]) -> tuple[int, ...]:
    order = tuple(order)
    return order if order[0] <= order[-1] else order[::-1]


def distance_ordering_check(topology: Topology) -> tuple[int, ...] | None:
    """Find a labeling under which every node sees non-decreasing distances outward.

    Tries the two principal-axis orders first; for n up to
    ``_EXHAUSTIVE_ORDER_LIMIT`` falls back to trying every labeling.  Returns the
    labeling (oriented so its first node id is the smaller endpoint), or None.
    """
    dist = topology.distances
    axis = _principal_axis_order(topology)
    for cand in (axis, axis[::-1]):
        if _is_distance_ordered(dist, cand):
            return _canonical(cand)
    if topology.n <= _EXHAUSTIVE_ORDER_LIMIT:
        for perm in permutations(range(topology.n)):
            if perm[0] > perm[-1]:
                continue  # reversal is equivalent
            if _is_distance_ordered(dist, perm):
                return perm
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
    (0-based).  Exactly one of ``pos``/``dist`` must be used.
    """
    n = None
    gain: GainFunction | None = None
    power = None
    noise = None
    pos_rows: dict[int, tuple[float, ...]] = {}
    dist_rows: dict[tuple[int, int], float] = {}
    hop_rows: dict[int, frozenset[int]] = {}

    def fail(lineno: int, msg: str) -> TopologyFormatError:
        return TopologyFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "nodes":
                n = int(parts[1])
            elif key == "gain":
                if parts[1] == "const":
                    gain = constant()
                elif parts[1] == "pl":
                    gain = power_law(float(parts[2]))
                elif parts[1] == "exp":
                    gain = exponential(float(parts[2]))
                else:
                    raise fail(lineno, f"unknown gain preset {parts[1]!r}")
            elif key in ("power", "noise"):
                value = float(parts[1])
                if not math.isfinite(value):
                    raise fail(lineno, f"{key} must be finite")
                if key == "power":
                    power = value
                else:
                    noise = value
            elif key == "pos":
                node = int(parts[1])
                coords = tuple(float(x) for x in parts[2:])
                if not 1 <= len(coords) <= 2:
                    raise fail(lineno, "pos rows take one or two coordinates")
                if node in pos_rows:
                    raise fail(lineno, f"duplicate pos row for node {node}")
                pos_rows[node] = coords
            elif key == "dist":
                a, b = int(parts[1]), int(parts[2])
                value = float(parts[3])
                if a == b:
                    raise fail(lineno, "dist rows need two distinct nodes")
                pair = (min(a, b), max(a, b))
                if pair in dist_rows and abs(dist_rows[pair] - value) > _DIST_TOL:
                    raise fail(lineno, f"conflicting dist rows for pair {pair}")
                dist_rows[pair] = value
            elif key == "hop":
                node = int(parts[1])
                hop_rows[node] = frozenset(int(x) for x in parts[2:])
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

    if pos_rows:
        if sorted(pos_rows) != list(range(1, n + 1)):
            raise TopologyFormatError("pos rows must cover node ids 1..n exactly")
        dims = {len(c) for c in pos_rows.values()}
        if len(dims) > 1:
            raise TopologyFormatError("pos rows must share one dimension")
        topo = topology_from_positions(
            [pos_rows[i] for i in range(1, n + 1)], gain, power, noise
        )
    else:
        matrix = [[0.0] * n for _ in range(n)]
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if (a, b) not in dist_rows:
                    raise TopologyFormatError(f"missing dist row for pair ({a}, {b})")
                matrix[a - 1][b - 1] = matrix[b - 1][a - 1] = dist_rows[(a, b)]
        for (a, b) in dist_rows:
            if not (1 <= a <= n and 1 <= b <= n):
                raise TopologyFormatError(f"dist row node out of range in pair ({a}, {b})")
        topo = topology_from_distances(matrix, gain, power, noise)

    one_hop = None
    if hop_rows:
        if sorted(hop_rows) != list(range(1, n + 1)):
            raise TopologyFormatError("hop rows, when present, must cover node ids 1..n")
        sets = []
        for i in range(1, n + 1):
            members = hop_rows[i]
            for j in members:
                if not 1 <= j <= n:
                    raise TopologyFormatError(f"hop row of node {i} references node {j}")
                if j == i:
                    raise TopologyFormatError(f"hop row of node {i} references itself")
            sets.append(frozenset(j - 1 for j in members))
        one_hop = tuple(sets)
    return topo, one_hop


def load_topology_file(path: str) -> tuple[Topology, tuple[frozenset[int], ...] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology_text(fh.read())


def canonical_text(
    topology: Topology, one_hop: Sequence[Iterable[int]] | None = None
) -> str:
    """Deterministic textual form of a topology, reusable as a file and for hashing."""
    lines = [f"nodes {topology.n}"]
    if isinstance(topology.gain, GainFunction):
        g = topology.gain
        if g.kind == "constant":
            lines.append("gain const")
        else:
            short = {"power-law": "pl", "exponential": "exp"}[g.kind]
            lines.append(f"gain {short} {g.parameter!r}")
    else:
        lines.append(f"gain custom {topology.gain!r}")
    lines.append(f"power {topology.power!r}")
    lines.append(f"noise {topology.noise!r}")
    if topology.positions is not None:
        for i, p in enumerate(topology.positions, start=1):
            coords = " ".join(repr(x) for x in p)
            lines.append(f"pos {i} {coords}")
    else:
        for i in range(topology.n):
            for j in range(i + 1, topology.n):
                lines.append(f"dist {i + 1} {j + 1} {topology.distances[i][j]!r}")
    if one_hop is not None:
        for i, members in enumerate(one_hop, start=1):
            tail = " ".join(str(j + 1) for j in sorted(members))
            lines.append(f"hop {i} {tail}".rstrip())
    return "\n".join(lines) + "\n"
