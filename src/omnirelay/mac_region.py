"""Multiple-access rate-region tests and decodable-subset searches.

Everything here works on abstract instances: per-sender rates and received
powers at one receiver, a noise floor, and optional static interference.
Feasibility of a rate tuple is the usual simultaneous-decoding region (every
nonempty sender subset satisfies its sum-rate constraint); on top of that sits
a peel that finds a decodable subset when the full set is out of reach.
There is one region model, the multi-block region in which later
transmissions repeat earlier messages; the one-receiver multiple-access
region is its one-round case, ``MultiBlockInstance(rates, powers, noise,
blocks=(0,) * m, interference=i)``.

All constraints are evaluated strictly with a fixed slack of ``EPS_BITS``
bits, so boundary points count as infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityLimitError

EPS_BITS = 1e-9

_FEASIBLE_LIMIT = 20
_EXACT_SUBSET_LIMIT = 16


def _as_floats(values: Iterable[float], label: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"{label} must be finite and >= 0.0")
    return out


def _subset_sums(values: Sequence[float]) -> np.ndarray:
    """sums[mask] = sum of values over the bits of mask."""
    sums = np.zeros(1)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


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
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ValueError("noise must be finite and positive")
        if not (math.isfinite(self.interference) and self.interference >= 0):
            raise ValueError("interference must be finite and nonnegative")
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        helps = tuple(frozenset(s) for s in self.helps) or (frozenset(),) * m
        if len(helps) != m:
            raise ValueError("helps must have one entry per sender")
        object.__setattr__(self, "helps", helps)
        object.__setattr__(self, "carriers", tuple(self.carriers))
        usable = self.usable or tuple(True for _ in range(m))
        if len(usable) != m:
            raise ValueError("usable must have one flag per member")
        object.__setattr__(self, "usable", tuple(bool(u) for u in usable))
        pairs = tuple(sorted((int(b), float(p)) for b, p in self.block_interference))
        for _, p in pairs:
            if not (math.isfinite(p) and p >= 0):
                raise ValueError("block interference must be finite and nonnegative")
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
    """Outcome of a decodable-subset search on a multi-block instance."""

    decoded: tuple[int, ...]
    sum_rate_ok: bool


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
    if instance.m > _FEASIBLE_LIMIT:
        raise CapacityLimitError(
            f"{instance.m} members exceeds the exact limit of {_FEASIBLE_LIMIT}"
        )
    margins = _MultiBlockEvaluator(instance).margins(range(instance.m))
    return bool(np.all(margins[1:] < -EPS_BITS))


def multi_block_decodable_subset(instance: MultiBlockInstance) -> MultiBlockResult:
    """Largest member subset the receiver can decode, found by peeling.

    Violating groups are peeled off (with closure over bundles that repeat
    them) until the remaining constraints hold.  When the whole-set sum-rate
    constraint holds the survivors are nonempty; each peel can erode the
    feasibility margin by at most ``EPS_BITS``, which is negligible away from
    region boundaries.  ``sum_rate_ok`` reports the whole-set sum-rate
    constraint of the untouched instance, a quick diagnostic for why decoding
    fell short.
    """
    ev = _MultiBlockEvaluator(instance)
    full = frozenset(range(instance.m))
    sum_rate_ok = ev.margin(full) < -EPS_BITS
    while True:
        worst = ev.worst_violator()
        if worst is None:
            break
        ev.remove_closure(worst)
    return MultiBlockResult(tuple(sorted(ev.survivors())), sum_rate_ok)
