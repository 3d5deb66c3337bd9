"""Multiple-access rate-region tests and decodable-subset searches.

Everything here works on abstract instances: per-sender rates and received
powers at one receiver, a noise floor, and optional static interference.
Feasibility of a rate tuple is the usual simultaneous-decoding region (every
nonempty sender subset satisfies its sum-rate constraint); on top of that sit
searches for the largest decodable subset when the full set is out of reach,
a two-block region in which later transmissions help earlier messages, and a
multi-block generalization of it used by the protocol simulator.

All constraints are evaluated strictly with a fixed slack of ``EPS_BITS``
bits, so boundary points count as infeasible on either route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityLimitError

EPS_BITS = 1e-9

_FEASIBLE_LIMIT = 24
_EXACT_SUBSET_LIMIT = 16
_TWO_BLOCK_LIMIT = 20


def _as_floats(values: Iterable[float], label: str, minimum: float = 0.0) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v) or v < minimum:
            raise ValueError(f"{label} must be finite and >= {minimum}")
    return out


@dataclass(frozen=True)
class MacInstance:
    """One receiver, several senders: rates, received powers, noise, interference."""

    rates: tuple[float, ...]
    powers: tuple[float, ...]
    noise: float
    interference: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", _as_floats(self.rates, "rates"))
        object.__setattr__(self, "powers", _as_floats(self.powers, "powers"))
        if len(self.rates) != len(self.powers):
            raise ValueError("rates and powers must have equal length")
        if not self.rates:
            raise ValueError("an instance needs at least one sender")
        if self.noise <= 0:
            raise ValueError("noise must be positive")
        if self.interference < 0:
            raise ValueError("interference must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.rates)


def _subset_sums(values: Sequence[float]) -> np.ndarray:
    """sums[mask] = sum of values over the bits of mask."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def _power_thresholds(rate_sums: np.ndarray) -> np.ndarray:
    """Per-mask minimum signal-to-denominator ratio for a strict constraint.

    ``R < log2(1 + p/d) - EPS_BITS``  is equivalent to  ``p > t * d`` with
    ``t = 2 ** (R + EPS_BITS) - 1``; the multiplicative form avoids a log per
    subset check.
    """
    return np.exp2(rate_sums + EPS_BITS) - 1.0


def mac_feasible(instance: MacInstance) -> bool:
    """Whole-set simultaneous decodability of the rate tuple."""
    m = instance.m
    if m > _FEASIBLE_LIMIT:
        raise CapacityLimitError(f"{m} senders exceeds the exact limit of {_FEASIBLE_LIMIT}")
    rate_sums = _subset_sums(instance.rates)
    power_sums = _subset_sums(instance.powers)
    need = _power_thresholds(rate_sums)
    denom = instance.noise + instance.interference
    return bool(np.all(power_sums[1:] > need[1:] * denom))


def self_decodable(instance: MacInstance, subset: Iterable[int]) -> bool:
    """Can ``subset`` be decoded with the rest of the senders left as noise?"""
    members = sorted(set(subset))
    m = instance.m
    for j in members:
        if not 0 <= j < m:
            raise ValueError(f"sender index {j} out of range")
    if not members:
        return False
    if len(members) > _FEASIBLE_LIMIT:
        raise CapacityLimitError(
            f"{len(members)} senders exceeds the exact limit of {_FEASIBLE_LIMIT}"
        )
    outside = sum(instance.powers[j] for j in range(m) if j not in set(members))
    denom = instance.noise + instance.interference + outside
    rate_sums = _subset_sums([instance.rates[j] for j in members])
    power_sums = _subset_sums([instance.powers[j] for j in members])
    need = _power_thresholds(rate_sums)
    return bool(np.all(power_sums[1:] > need[1:] * denom))


def decodable_subset(instance: MacInstance) -> tuple[int, ...]:
    """Largest sender subset decodable with its complement treated as noise.

    Exhaustive over subsets in descending cardinality; among equal-size
    candidates the one earliest in index-lexicographic order wins, which also
    makes the result deterministic.  Empty tuple when nothing is decodable.
    """
    m = instance.m
    if m > _EXACT_SUBSET_LIMIT:
        raise CapacityLimitError(f"{m} senders exceeds the exact limit of {_EXACT_SUBSET_LIMIT}")
    rate_sums = _subset_sums(instance.rates)
    power_sums = _subset_sums(instance.powers)
    need = (_power_thresholds(rate_sums) * 1.0).tolist()
    psums = power_sums.tolist()
    total_power = psums[-1]
    base = instance.noise + instance.interference
    for size in range(m, 0, -1):
        for combo in combinations(range(m), size):
            s = 0
            for j in combo:
                s |= 1 << j
            denom = base + (total_power - psums[s])
            t = s
            ok = True
            while t:
                if psums[t] <= need[t] * denom:
                    ok = False
                    break
                t = (t - 1) & s
            if ok:
                return combo
    return ()


def peel_decodable_subset(instance: MacInstance) -> tuple[int, ...]:
    """Decodable subset found by peeling off most-violating groups.

    Repeatedly drop the subset with the largest constraint violation,
    crediting its power to the noise seen by the survivors, until every
    remaining constraint holds.  When the whole-set sum-rate constraint holds
    the survivors are nonempty; each peel can erode the feasibility margin by
    at most EPS_BITS, which is negligible away from region boundaries.  This
    is the one-round case of :func:`multi_block_decodable_subset`.
    """
    single_round = MultiBlockInstance(
        instance.rates,
        instance.powers,
        instance.noise,
        blocks=(0,) * instance.m,
        interference=instance.interference,
    )
    return multi_block_decodable_subset(single_round).decoded


# ---------------------------------------------------------------------------
# two-block region
# ---------------------------------------------------------------------------


def _normalize_helps(
    helps: Mapping[int, Iterable[int]] | Sequence[Iterable[int]] | None,
    m: int,
) -> tuple[frozenset[int], ...]:
    if helps is None:
        return tuple(frozenset() for _ in range(m))
    if isinstance(helps, Mapping):
        rows = [frozenset(helps.get(j, ())) for j in range(m)]
    else:
        rows = [frozenset(s) for s in helps]
        if len(rows) != m:
            raise ValueError("helps must have one entry per sender")
    return tuple(rows)


@dataclass(frozen=True)
class TwoBlockInstance:
    """Two transmission rounds at one receiver; round-2 senders may help round-1 messages.

    ``helps[j]`` lists the earlier-round senders whose messages sender j's
    transmission also carries.  Round-1 senders are decoded against the base
    noise; round-2 constraints see the whole round-1 power as interference.
    """

    rates: tuple[float, ...]
    powers: tuple[float, ...]
    noise: float
    block1: frozenset[int]
    block2: frozenset[int]
    helps: tuple[frozenset[int], ...] = field(default=())
    interference: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", _as_floats(self.rates, "rates"))
        object.__setattr__(self, "powers", _as_floats(self.powers, "powers"))
        object.__setattr__(self, "block1", frozenset(self.block1))
        object.__setattr__(self, "block2", frozenset(self.block2))
        m = len(self.rates)
        if len(self.powers) != m:
            raise ValueError("rates and powers must have equal length")
        if m == 0:
            raise ValueError("an instance needs at least one sender")
        if self.noise <= 0:
            raise ValueError("noise must be positive")
        if self.interference < 0:
            raise ValueError("interference must be nonnegative")
        if self.block1 & self.block2:
            raise ValueError("round sets must be disjoint")
        if self.block1 | self.block2 != frozenset(range(m)):
            raise ValueError("round sets must cover all senders")
        helps = _normalize_helps(self.helps if self.helps else None, m)
        object.__setattr__(self, "helps", helps)
        for j, targets in enumerate(helps):
            if targets and j not in self.block2:
                raise ValueError(f"sender {j} is not in round 2 and cannot help")
            if not targets <= self.block1:
                raise ValueError(f"help targets of sender {j} must be round-1 senders")

    @property
    def m(self) -> int:
        return len(self.rates)

    def helped_by(self) -> dict[int, frozenset[int]]:
        """Inverse help map: round-1 sender -> round-2 senders helping it."""
        out: dict[int, set[int]] = {i: set() for i in self.block1}
        for j, targets in enumerate(self.helps):
            for i in targets:
                out[i].add(j)
        return {i: frozenset(s) for i, s in out.items()}

    @classmethod
    def from_maps(
        cls,
        rates: Iterable[float],
        powers: Iterable[float],
        noise: float,
        block1: Iterable[int],
        block2: Iterable[int],
        helps: Mapping[int, Iterable[int]] | Sequence[Iterable[int]] | None = None,
        helped_by: Mapping[int, Iterable[int]] | None = None,
        interference: float = 0.0,
    ) -> "TwoBlockInstance":
        """Build from either direction of the help relation, cross-checking both."""
        rates = tuple(float(r) for r in rates)
        m = len(rates)
        if helps is None and helped_by is None:
            raise ValueError("provide helps, helped_by, or both")
        forward = _normalize_helps(helps, m) if helps is not None else None
        if helped_by is not None:
            derived = [set() for _ in range(m)]
            for i, senders in helped_by.items():
                for j in senders:
                    if not 0 <= j < m:
                        raise ValueError(f"helper index {j} out of range")
                    derived[j].add(i)
            backward = tuple(frozenset(s) for s in derived)
            if forward is not None and forward != backward:
                raise ValueError("helps and helped_by describe different relations")
            forward = backward
        return cls(
            rates,
            tuple(float(p) for p in powers),
            float(noise),
            frozenset(block1),
            frozenset(block2),
            forward,
            float(interference),
        )


def two_block_feasible(instance: TwoBlockInstance) -> bool:
    """Check every subset constraint of the two-round region.

    For a subset S the useful round-2 power covers S's own round-2 senders
    plus every round-2 sender whose help targets meet S's round-1 part.
    """
    m = instance.m
    if m > _TWO_BLOCK_LIMIT:
        raise CapacityLimitError(f"{m} senders exceeds the exact limit of {_TWO_BLOCK_LIMIT}")
    mask1 = 0
    for i in instance.block1:
        mask1 |= 1 << i
    mask2 = 0
    for j in instance.block2:
        mask2 |= 1 << j

    rate_sums = _subset_sums(instance.rates)
    power_sums = _subset_sums(instance.powers)

    # active[s] = round-2 senders whose help targets meet s (round-1 bits only).
    contrib = [0] * m
    for j, targets in enumerate(instance.helps):
        for i in targets:
            contrib[i] |= 1 << j
    active = np.zeros(1 << m, dtype=np.int64)
    for b in range(m):
        if contrib[b]:
            view = active.reshape(-1, 2, 1 << b)
            view[:, 1, :] |= contrib[b]

    masks = np.arange(1 << m, dtype=np.int64)
    part1 = masks & mask1
    part2 = (masks & mask2) | active
    d1 = instance.noise + instance.interference
    d2 = d1 + float(power_sums[mask1])
    rhs = np.log2(1.0 + power_sums[part1] / d1) + np.log2(1.0 + power_sums[part2] / d2)
    return bool(np.all(rate_sums[1:] < rhs[1:] - EPS_BITS))


# ---------------------------------------------------------------------------
# multi-block region
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HelperCarrier:
    """A pure relay transmission: no message of its own, it only repeats others'.

    ``helps`` names the member indices whose messages the transmission
    carries; ``block`` is the round it was sent in.
    """

    block: int
    power: float
    helps: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "helps", frozenset(self.helps))
        if self.power < 0 or not math.isfinite(self.power):
            raise ValueError("carrier power must be finite and nonnegative")
        if not self.helps:
            raise ValueError("a carrier must help at least one member")


@dataclass(frozen=True)
class MultiBlockInstance:
    """Joint-decoding instance spanning several transmission rounds.

    Member j is one wanted message: transmitted in round ``blocks[j]`` with
    received power ``powers[j]`` at rate ``rates[j]``, bundled together with
    repeats of the earlier-round members in ``helps[j]``.  ``usable[j]``
    False means the receiver cannot exploit that transmission (its bundle
    mixes in unknown extraneous content); its power must then be accounted in
    ``block_interference`` by the caller.  Carriers are additional pure-relay
    transmissions.  ``block_interference`` holds per-round interference from
    transmissions that never become decodable; ``interference`` is static
    across rounds.  Senders of earlier-round members also keep transmitting
    fresh content in later rounds, so each round constraint adds the summed
    power of all earlier-round members to its noise.
    """

    rates: tuple[float, ...]
    powers: tuple[float, ...]
    noise: float
    blocks: tuple[int, ...]
    helps: tuple[frozenset[int], ...] = ()
    carriers: tuple[HelperCarrier, ...] = ()
    interference: float = 0.0
    block_interference: tuple[tuple[int, float], ...] = ()
    usable: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", _as_floats(self.rates, "rates"))
        object.__setattr__(self, "powers", _as_floats(self.powers, "powers"))
        m = len(self.rates)
        if len(self.powers) != m or len(self.blocks) != m:
            raise ValueError("rates, powers and blocks must have equal length")
        if m == 0:
            raise ValueError("an instance needs at least one member")
        if self.noise <= 0:
            raise ValueError("noise must be positive")
        if self.interference < 0:
            raise ValueError("interference must be nonnegative")
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        object.__setattr__(self, "helps", _normalize_helps(self.helps or None, m))
        object.__setattr__(self, "carriers", tuple(self.carriers))
        usable = self.usable or tuple(True for _ in range(m))
        if len(usable) != m:
            raise ValueError("usable must have one flag per member")
        object.__setattr__(self, "usable", tuple(bool(u) for u in usable))
        if isinstance(self.block_interference, Mapping):
            pairs = tuple(sorted(self.block_interference.items()))
        else:
            pairs = tuple(sorted((int(b), float(p)) for b, p in self.block_interference))
        for _, p in pairs:
            if p < 0:
                raise ValueError("block interference must be nonnegative")
        object.__setattr__(self, "block_interference", pairs)
        for j, targets in enumerate(self.helps):
            for h in targets:
                if not 0 <= h < m:
                    raise ValueError(f"help target {h} of member {j} out of range")
                if self.blocks[h] >= self.blocks[j]:
                    raise ValueError(
                        f"member {j} helps member {h} from the same or a later round"
                    )
        for c in self.carriers:
            for h in c.helps:
                if not 0 <= h < m:
                    raise ValueError(f"carrier help target {h} out of range")
                if self.blocks[h] >= c.block:
                    raise ValueError("carriers can only help strictly earlier rounds")

    @property
    def m(self) -> int:
        return len(self.rates)

    def round_ids(self) -> tuple[int, ...]:
        ids = set(self.blocks)
        ids.update(c.block for c in self.carriers)
        ids.update(b for b, _ in self.block_interference)
        return tuple(sorted(ids))


@dataclass(frozen=True)
class MultiBlockResult:
    """Outcome of a decodable-subset search on a multi-block instance.

    ``guarantee_based`` flags results whose nonemptiness rests on the peel
    argument for more than two rounds rather than the exactly analyzed one-
    and two-round cases.
    """

    decoded: tuple[int, ...]
    sum_rate_ok: bool
    guarantee_based: bool


class _MultiBlockEvaluator:
    """Constraint evaluation with a mutable removed/deadened state for peeling."""

    def __init__(self, instance: MultiBlockInstance):
        self.inst = instance
        self.rounds = instance.round_ids()
        self.members_in: dict[int, list[int]] = {k: [] for k in self.rounds}
        for j, b in enumerate(instance.blocks):
            self.members_in[b].append(j)
        self.carriers_in: dict[int, list[int]] = {k: [] for k in self.rounds}
        for c_idx, c in enumerate(instance.carriers):
            self.carriers_in[c.block].append(c_idx)
        block_noise = dict(instance.block_interference)
        # Earlier-round senders keep transmitting; their power loads every
        # later round regardless of decoding outcomes.
        self.base_noise: dict[int, float] = {}
        cross = 0.0
        per_round_member_power = {
            k: sum(instance.powers[j] for j in self.members_in[k]) for k in self.rounds
        }
        for k in self.rounds:
            self.base_noise[k] = (
                instance.noise + instance.interference + block_noise.get(k, 0.0) + cross
            )
            cross += per_round_member_power[k]
        self.removed: set[int] = set()
        self.deadened: set[int] = set()
        self.extra_noise: dict[int, float] = {k: 0.0 for k in self.rounds}

    def survivors(self) -> list[int]:
        return [j for j in range(self.inst.m) if j not in self.removed]

    def rhs(self, subset: frozenset[int]) -> float:
        """Capacity sum available to ``subset`` under the current state."""
        inst = self.inst
        total = 0.0
        for k in self.rounds:
            q = 0.0
            for j in self.members_in[k]:
                if j in self.removed or not inst.usable[j]:
                    continue
                if j in subset or inst.helps[j] & subset:
                    q += inst.powers[j]
            for c_idx in self.carriers_in[k]:
                if c_idx in self.deadened:
                    continue
                if inst.carriers[c_idx].helps & subset:
                    q += inst.carriers[c_idx].power
            if q > 0.0:
                total += math.log2(1.0 + q / (self.base_noise[k] + self.extra_noise[k]))
        return total

    def margin(self, subset: frozenset[int]) -> float:
        return sum(self.inst.rates[j] for j in subset) - self.rhs(subset)

    def margins(self, members: Sequence[int]) -> np.ndarray:
        """``margin`` of every subset of ``members`` at once.

        Entry ``mask`` is the subset holding ``members[b]`` for each set bit
        b.  A transmission adds its power to the masks that meet its trigger:
        its own member bit plus the bits of the members it repeats.  Powers
        are summed in the order ``rhs`` uses and every distinct per-round
        power goes through ``math.log2``, so the capacity side is bitwise
        equal to ``rhs``.
        """
        inst = self.inst
        bit = {j: 1 << b for b, j in enumerate(members)}

        def trigger(targets: Iterable[int]) -> int:
            out = 0
            for h in targets:
                out |= bit.get(h, 0)
            return out

        masks = np.arange(1 << len(members), dtype=np.int64)
        total = np.zeros(len(masks))
        for k in self.rounds:
            sends = [
                (inst.powers[j], bit.get(j, 0) | trigger(inst.helps[j]))
                for j in self.members_in[k]
                if j not in self.removed and inst.usable[j]
            ]
            sends.extend(
                (inst.carriers[c_idx].power, trigger(inst.carriers[c_idx].helps))
                for c_idx in self.carriers_in[k]
                if c_idx not in self.deadened
            )
            if not sends:
                continue
            q = np.zeros(len(masks))
            for p, t in sends:
                q += p * ((masks & t) != 0)
            values, inverse = np.unique(q, return_inverse=True)
            d = self.base_noise[k] + self.extra_noise[k]
            logs = [math.log2(1.0 + v / d) if v > 0.0 else 0.0 for v in values.tolist()]
            total += np.array(logs)[inverse]
        return _subset_sums([inst.rates[j] for j in members]) - total

    def remove_closure(self, subset: Iterable[int]) -> None:
        """Drop a violating subset plus everything its loss contaminates.

        A surviving member whose bundle repeats a removed message can no
        longer be reconstructed, so it is removed too (ascending rounds make
        one sweep per fixpoint round enough); carriers helping removed
        members turn into round noise, as do usable removed members' own
        transmissions.  Unusable members are already counted as noise.
        """
        newly = set(subset) - self.removed
        while newly:
            self.removed |= newly
            nxt = set()
            for j in self.survivors():
                if self.inst.helps[j] & self.removed:
                    nxt.add(j)
            for j in newly:
                if self.inst.usable[j]:
                    self.extra_noise[self.inst.blocks[j]] += self.inst.powers[j]
            newly = nxt
        for c_idx, c in enumerate(self.inst.carriers):
            if c_idx not in self.deadened and c.helps & self.removed:
                self.deadened.add(c_idx)
                self.extra_noise[c.block] += c.power

    def worst_violator(self) -> tuple[int, ...] | None:
        """Survivor subset with the largest margin at or above ``-EPS_BITS``.

        Exact ties go to the lexicographically smallest member tuple.  Up to
        ``_EXACT_SUBSET_LIMIT`` survivors every subset is scored; beyond it a
        heuristic family of prefixes and index ranges is scanned.
        """
        surv = sorted(self.survivors())
        k = len(surv)
        if k == 0:
            return None
        if k <= _EXACT_SUBSET_LIMIT:
            margins = self.margins(surv)[1:]
            top = margins.max()
            if top < -EPS_BITS:
                return None
            ties = (np.flatnonzero(margins == top) + 1).tolist()
            return min(tuple(surv[b] for b in range(k) if mask >> b & 1) for mask in ties)

        best: tuple[float, tuple[int, ...]] | None = None

        def consider(subset: tuple[int, ...]) -> None:
            nonlocal best
            margin = self.margin(frozenset(subset))
            if margin < -EPS_BITS:
                return
            if best is None or margin > best[0] or (margin == best[0] and subset < best[1]):
                best = (margin, subset)

        seen: set[tuple[int, ...]] = set()
        by_rate = sorted(surv, key=lambda j: (-self.inst.rates[j], j))
        by_margin = sorted(surv, key=lambda j: (self.margin(frozenset([j])), j), reverse=True)
        for chain in (by_rate, by_margin):
            for end in range(1, k + 1):
                seen.add(tuple(sorted(chain[:end])))
        for lo in range(k):
            for hi in range(lo + 1, k + 1):
                seen.add(tuple(surv[lo:hi]))
        for subset in sorted(seen):
            consider(subset)
        return None if best is None else best[1]


def multi_block_feasible(instance: MultiBlockInstance) -> bool:
    """Whole-set feasibility across every member-subset constraint."""
    if instance.m > _TWO_BLOCK_LIMIT:
        raise CapacityLimitError(
            f"{instance.m} members exceeds the exact limit of {_TWO_BLOCK_LIMIT}"
        )
    margins = _MultiBlockEvaluator(instance).margins(range(instance.m))
    return bool(np.all(margins[1:] < -EPS_BITS))


def multi_block_decodable_subset(instance: MultiBlockInstance) -> MultiBlockResult:
    """Largest member subset the receiver can decode, found by peeling.

    Violating groups are peeled off (with closure over bundles that repeat
    them) until the remaining constraints hold.  ``sum_rate_ok`` reports the
    whole-set sum-rate constraint of the untouched instance, a quick
    diagnostic for why decoding fell short.
    """
    ev = _MultiBlockEvaluator(instance)
    full = frozenset(range(instance.m))
    sum_rate_ok = ev.margin(full) < -EPS_BITS
    guarantee = len({instance.blocks[j] for j in range(instance.m)}) > 2
    while True:
        worst = ev.worst_violator()
        if worst is None:
            break
        ev.remove_closure(worst)
    return MultiBlockResult(tuple(sorted(ev.survivors())), sum_rate_ok, guarantee)
