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
    """sums[mask] = sum of values over the bits of mask.

    A sum past the float maximum is inf, which every margin then treats as
    a rate no round can carry, so the overflow is not warned about.
    """
    sums = np.zeros(1)
    with np.errstate(over="ignore"):
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
    """Constraint evaluation with a mutable removed state for peeling.

    Each transmission the receiver can use is one send, a ``(power,
    trigger)`` pair whose power counts for every subset that meets its
    trigger: a usable member's send triggers on the member and the members
    it repeats, a carrier's on the members it repeats.  ``sends[k]`` lists
    round k's live sends, the members' in member order, then the carriers'.
    """

    def __init__(self, instance: MultiBlockInstance):
        self.inst = instance
        self.rounds = instance.round_ids()
        self.sends: dict[int, list[tuple[float, frozenset[int]]]] = {k: [] for k in self.rounds}
        member_power = {k: 0.0 for k in self.rounds}
        for j, b in enumerate(instance.blocks):
            member_power[b] += instance.powers[j]
            if instance.usable[j]:
                self.sends[b].append((instance.powers[j], instance.helps[j] | {j}))
        for c in instance.carriers:
            self.sends[c.block].append((c.power, c.helps))
        block_noise = dict(instance.block_interference)
        # Earlier-round senders keep transmitting; their power loads every
        # later round regardless of decoding outcomes.
        self.base_noise: dict[int, float] = {}
        cross = 0.0
        for k in self.rounds:
            self.base_noise[k] = (
                instance.noise + instance.interference + block_noise.get(k, 0.0) + cross
            )
            cross += member_power[k]
        self.removed: set[int] = set()
        self.extra_noise: dict[int, float] = {k: 0.0 for k in self.rounds}

    def survivors(self) -> list[int]:
        return [j for j in range(self.inst.m) if j not in self.removed]

    def rhs(self, subset: frozenset[int]) -> float:
        """Capacity sum available to ``subset`` under the current state."""
        total = 0.0
        for k in self.rounds:
            q = 0.0
            for p, trigger in self.sends[k]:
                if not trigger.isdisjoint(subset):
                    q += p
            if q > 0.0:
                total += math.log2(1.0 + q / (self.base_noise[k] + self.extra_noise[k]))
        return total

    def margin(self, subset: frozenset[int]) -> float:
        return sum(self.inst.rates[j] for j in subset) - self.rhs(subset)

    def margins(self, members: Sequence[int]) -> np.ndarray:
        """``margin`` of every subset of ``members`` at once.

        Entry ``mask`` is the subset holding ``members[b]`` for each set bit
        b.  A send adds its power to the masks that meet its trigger, whose
        bits are the trigger's members among ``members``.  A round
        with sends ``0..s-1`` gives each mask a pattern code whose bit i is
        set when send i fires, and builds the ``2**s`` pattern powers by
        doubling in send order, so each entry is the left-to-right sum that
        ``rhs`` takes.  ``math.log2`` runs once per pattern and the masks
        gather their round's capacity by code; the capacity side is bitwise
        equal to ``rhs``.  A round instead finds the distinct powers with one
        ``np.unique`` sort when its table would outnumber the masks (more
        sends than member bits, as when carriers outnumber the survivors),
        or would exceed a quarter of them while two sends share a power:
        then most patterns repeat a sum, and the sort takes far fewer
        logarithms than the table.
        """
        bit = {j: 1 << b for b, j in enumerate(members)}
        masks = np.arange(1 << len(members), dtype=np.int64)
        total = np.zeros(len(masks))
        for k in self.rounds:
            sends = [(p, sum(bit.get(h, 0) for h in trigger)) for p, trigger in self.sends[k]]
            if not sends:
                continue
            patterns = 1 << len(sends)
            if patterns > len(masks) or (
                4 * patterns > len(masks) and len({p for p, _ in sends}) < len(sends)
            ):
                q = np.zeros(len(masks))
                for p, t in sends:
                    q += p * ((masks & t) != 0)
                values, code = np.unique(q, return_inverse=True)
                table = values.tolist()
            else:
                code = ((masks & sends[0][1]) != 0).astype(np.int64)
                table = [0.0, sends[0][0]]
                for i, (p, t) in enumerate(sends[1:], 1):
                    code += ((masks & t) != 0) << i
                    table += [v + p for v in table]
            d = self.base_noise[k] + self.extra_noise[k]
            logs = [math.log2(1.0 + v / d) if v > 0.0 else 0.0 for v in table]
            total += np.array(logs)[code]
        return _subset_sums([self.inst.rates[j] for j in members]) - total

    def remove_closure(self, subset: Iterable[int]) -> None:
        """Drop a violating subset plus everything its loss contaminates.

        A surviving member whose bundle repeats a removed message can no
        longer be reconstructed, so it is removed too (ascending rounds make
        one sweep per fixpoint round enough).  Then every send whose trigger
        meets a removed member leaves its round's list and turns into that
        round's noise, in list order.  Unusable members have no send: the
        caller already counts them as noise.
        """
        newly = set(subset) - self.removed
        while newly:
            self.removed |= newly
            newly = {j for j in self.survivors() if self.inst.helps[j] & self.removed}
        for k in self.rounds:
            live = []
            for p, trigger in self.sends[k]:
                if trigger.isdisjoint(self.removed):
                    live.append((p, trigger))
                else:
                    self.extra_noise[k] += p
            self.sends[k] = live

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
