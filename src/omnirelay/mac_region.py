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

Both rest on one search, the most violated subset constraint.  It is exact
at every member count: up to 16 survivors every subset is scored at once,
and above that one submodular minimization finds the same subset, since
each round's capacity is a concave function of the power a subset triggers.

All constraints are evaluated strictly with a fixed slack of ``EPS_BITS``
bits, so boundary points count as infeasible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

EPS_BITS = 1e-9

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
        # The rates add left to right from 0, as in margins, on every Python:
        # the builtin sum() compensates float rounding from 3.12 on.
        return reduce(operator.add, (self.inst.rates[j] for j in subset), 0) - self.rhs(subset)

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
        ``_EXACT_SUBSET_LIMIT`` survivors every subset is scored at once
        (``enumerated_violator``); above it one submodular minimization finds
        the same subset (``min_norm_violator``).
        """
        surv = sorted(self.survivors())
        if not surv:
            return None
        if len(surv) <= _EXACT_SUBSET_LIMIT:
            return self.enumerated_violator(surv)
        return self.min_norm_violator(surv)

    def enumerated_violator(self, surv: list[int]) -> tuple[int, ...] | None:
        """``worst_violator`` over the sorted survivors ``surv`` by scoring
        every subset with ``margins``."""
        margins = self.margins(surv)[1:]
        top = margins.max()
        if top < -EPS_BITS:
            return None
        ties = (np.flatnonzero(margins == top) + 1).tolist()
        return min(tuple(surv[b] for b in range(len(surv)) if mask >> b & 1) for mask in ties)

    def min_norm_violator(self, surv: list[int]) -> tuple[int, ...] | None:
        """``worst_violator`` over the sorted survivors ``surv`` by submodular
        minimization (see ``_SubmodularSearch``)."""
        f, members = _SubmodularSearch(self, surv).minimize((), np.arange(len(surv)), EPS_BITS)
        return None if f > EPS_BITS else tuple(surv[i] for i in members)


# Greedy vertices, the base points built from them and the lower bounds read
# off those points are float sums accurate to about this many bits; the
# min-norm-point search stops once its duality gap is this small.
_GAP_BITS = 1e-12
# A base-point entry this close to zero leaves open whether its member is in
# a minimizer: a tie, or a set within the EPS_BITS slack, may turn on it.
_OPEN_BITS = 2 * EPS_BITS
_TINY = np.finfo(float).tiny


class _SubmodularSearch:
    """Exact worst violator by submodular function minimization.

    ``f(S) = rhs(S) - sum(rates over S)`` is submodular: a round's capacity
    ``log2(1 + q(S)/d)`` is a concave nondecreasing function of ``q(S)``, the
    power of the sends whose trigger meets S, which is a weighted coverage
    function, and the rate term is modular (the polymatroid structure of the
    Gaussian multiple-access region, Tse & Hanly 1998).  The worst violator
    is the lexicographically smallest nonempty minimizer of ``f``, kept when
    ``f <= EPS_BITS``.

    Members are the survivors' positions ``0..m-1``.  A problem fixes a set
    ``fixed`` in and minimizes ``g(T) = f(fixed | T) - f(fixed)`` over the
    subsets T of ``ground``.  Its base polytope's minimum-norm point x, found
    by Wolfe's algorithm (Fujishige, Hayashi & Isotani 2006), gives the
    minimizers ``{x < 0}`` and ``{x <= 0}``; every point of the polytope also
    bounds ``g(T) >= max(x[j], 0) + sum(min(x, 0))`` for each T holding j.
    Candidates are scored by the evaluator's scalar ``margin``.  Where an
    entry of x is within ``_OPEN_BITS`` of zero, or float rounding stopped
    the search before its gap closed, the members are tried in index order,
    each as the next member with the smaller ones left out, as long as the
    bound lets that branch beat the best set so far; this finds the
    lexicographically smallest of tied sets.
    """

    def __init__(self, ev: _MultiBlockEvaluator, surv: list[int]):
        self.ev = ev
        self.surv = surv
        col = {j: i for i, j in enumerate(surv)}
        powers, rounds, noise = [], [], []
        triggers = np.zeros((sum(len(ev.sends[k]) for k in ev.rounds), len(surv)), dtype=bool)
        for k in ev.rounds:
            for p, trigger in ev.sends[k]:
                triggers[len(powers), [col[h] for h in trigger]] = True
                powers.append(p)
                rounds.append(len(noise))
            noise.append(ev.base_noise[k] + ev.extra_noise[k])
        self.triggers = triggers
        self.power = np.array(powers)
        self.round = np.array(rounds, dtype=np.intp)
        self.noise = np.array(noise)[:, None]
        self.rates = np.array([ev.inst.rates[j] for j in surv])

    def score(self, members: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        """``(f, members)`` with f from the scalar ``margin``; keys compare
        by value, then lexicographically."""
        return -self.ev.margin(frozenset(self.surv[i] for i in members)), members

    def chain(self, fixed: tuple[int, ...], ground: np.ndarray, order: np.ndarray) -> np.ndarray:
        """``f(fixed | ground[order[:i]])`` for ``i = 0..len(order)``.

        A send fires at the first step whose member meets its trigger (step
        0 for ``fixed``), so one sum per round and step gives every round's
        received power along the chain.
        """
        never = len(order) + 1
        step = np.full(len(self.surv), never)
        step[list(fixed)] = 0
        step[ground[order]] = np.arange(1, never)
        first = np.where(self.triggers, step, never).min(axis=1)
        q = np.bincount(self.round * (never + 1) + first, self.power, len(self.noise) * (never + 1))
        q = q.reshape(len(self.noise), never + 1)[:, :-1].cumsum(axis=1)
        rhs = np.log2(1.0 + q / self.noise).sum(axis=0)
        rates = np.concatenate(([self.rates[list(fixed)].sum()], self.rates[ground[order]]))
        return rhs - rates.cumsum()

    def min_norm_point(
        self, fixed: tuple[int, ...], ground: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wolfe's min-norm point x of the problem's base polytope, the
        order that sorts it and the ``chain`` along that order.

        Stops when the best set of the chain is within ``_GAP_BITS`` of the
        lower bound ``sum(min(x, 0))`` of ``g``, or when float rounding
        leaves no step that shortens x: then the chain's best set is as
        close to the minimum as float sums can tell.
        """

        def vertex(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            values = self.chain(fixed, ground, order)
            q = np.empty(len(order))
            q[order] = np.diff(values)
            return q, values

        x = vertex(np.arange(len(ground)))[0]
        corral, weights = x[None, :], np.ones(1)
        norm = math.inf
        while True:
            order = np.argsort(x, kind="stable")
            q, values = vertex(order)
            gap = values.min() - values[0] - np.minimum(x, 0.0).sum()
            if gap <= _GAP_BITS or x @ (x - q) <= 0.0 or x @ x >= norm:
                return x, order, values
            norm = x @ x
            corral, weights = np.vstack([corral, q]), np.append(weights, 0.0)
            # Minor cycle: move to the affine min-norm point of the corral,
            # dropping vertices until it lies inside their convex hull.  The
            # affine point is a least-squares solve over differences of
            # vertices, which stays accurate when they nearly coincide.
            while True:
                step = np.linalg.lstsq((corral[1:] - corral[0]).T, -corral[0], rcond=None)[0]
                alpha = np.concatenate(([1.0 - step.sum()], step))
                if (alpha > 0.0).all():
                    weights = alpha
                    break
                out = np.flatnonzero(alpha <= 0.0)
                # A vertex with no weight either way leaves at theta = 0.
                ratios = weights[out] / np.maximum(weights[out] - alpha[out], _TINY)
                theta = ratios.min()
                weights = theta * alpha + (1.0 - theta) * weights
                keep = weights > 0.0
                keep[out[ratios.argmin()]] = False
                corral, weights = corral[keep], weights[keep] / weights[keep].sum()
            x = weights @ corral

    def minimize(
        self, fixed: tuple[int, ...], ground: np.ndarray, limit: float
    ) -> tuple[float, tuple[int, ...]]:
        """Smallest ``score`` of a nonempty set ``fixed | T``, T a subset of
        the ascending ``ground``.  Sets scoring above ``limit`` need not be
        found: a branch whose bound exceeds it is not searched."""
        x, order, values = self.min_norm_point(fixed, ground)
        ranked = ground[order].tolist()
        inside = int(np.count_nonzero(x < -_OPEN_BITS))
        reach = int(np.count_nonzero(x <= _OPEN_BITS))
        start = 0 if fixed else 1
        # Chain prefixes: both ends of the open band, the chain's best and
        # ``fixed`` alone, each nonempty.
        argmin = start + int(values[start:].argmin())
        sizes = {s for s in (inside, reach, argmin, 0) if s >= start}
        best = min(self.score(tuple(sorted(fixed + tuple(ranked[:s])))) for s in sizes)
        # Lower bound on f over every set fixed | T.  With the gap closed
        # and no open entry, {x < 0} is the only minimizer.
        base = values[0] + np.minimum(x, 0.0).sum()
        if inside == reach and values.min() - base <= _GAP_BITS:
            return best
        for i, j in enumerate(ground.tolist()):
            bound = base + max(x[i], 0.0)
            branch = fixed + (j,)
            if bound > min(limit, best[0]) + _GAP_BITS:
                continue
            if bound >= best[0] - _GAP_BITS and branch > best[1][: len(branch)]:
                continue
            best = min(best, self.minimize(branch, ground[i + 1 :], limit))
        return best


def multi_block_feasible(instance: MultiBlockInstance) -> bool:
    """Whole-set feasibility: every nonempty member subset meets its
    constraint with ``EPS_BITS`` to spare, exactly at any member count."""
    return _MultiBlockEvaluator(instance).worst_violator() is None


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
