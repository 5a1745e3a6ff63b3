"""Closed frequent itemset mining over transaction databases.

Items are opaque integer ids. The main miner works level-wise over
generators: candidate generators of size k+1 are joined from the surviving
size-k generators, pruned when a subset is missing or when the candidate is
already inside a subset's closure (same closure, nothing new), and each
surviving generator is closed by intersecting the transactions that contain
it. The result is exactly the set of closed itemsets whose support meets
the threshold, each with its exact support.

``mine_bruteforce`` is an intentionally naive oracle: it enumerates every
non-empty subset of the item universe, counts supports by direct scan, and
keeps the subsets no single-item extension of which preserves support. It
shares no machinery with ``mine_closed`` so the two can check each other.

Transaction ids and item positions are packed into integer bitmasks, which
keeps support counting and closure intersection cheap for workload-sized
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Union

BRUTE_FORCE_MAX_ITEMS = 20

# Fractional thresholds are interpreted at this decimal precision, so that
# e.g. 0.1 of 30 transactions resolves to ceil(3) = 3, not ceil(3.0000000004).
_FRACTION_PRECISION = 10**9


@dataclass(frozen=True)
class ClosedItemset:
    """A closed itemset with its absolute support count."""

    items: tuple[int, ...]
    support: int


@dataclass(frozen=True)
class TransactionDatabase:
    transactions: tuple[frozenset[int], ...]
    universe: tuple[int, ...]

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Iterable[int]]
    ) -> "TransactionDatabase":
        rows = tuple(frozenset(t) for t in transactions)
        universe = tuple(sorted(set().union(*rows))) if rows else ()
        return cls(transactions=rows, universe=universe)


@dataclass(frozen=True)
class MinSupport:
    """Minimum support: an absolute count (int >= 1) or a fraction in (0, 1]."""

    value: Union[int, float, Fraction]

    def __post_init__(self):
        if isinstance(self.value, bool):
            raise ValueError("minimum support must be a count or a fraction")
        if isinstance(self.value, int):
            if self.value < 1:
                raise ValueError("absolute minimum support must be >= 1")
        elif isinstance(self.value, (float, Fraction)):
            if not 0 < self.value <= 1:
                raise ValueError("fractional minimum support must be in (0, 1]")
        else:
            raise ValueError(f"unsupported minimum support value {self.value!r}")

    def resolve(self, n_transactions: int) -> int:
        """Absolute threshold over ``n_transactions``; fractions round up."""
        if isinstance(self.value, int):
            return self.value
        frac = Fraction(self.value).limit_denominator(_FRACTION_PRECISION)
        return math.ceil(frac * n_transactions)


def canonical_order(itemsets: Iterable[ClosedItemset]) -> list[ClosedItemset]:
    """Descending support, then lexicographic item tuples."""
    return sorted(itemsets, key=lambda c: (-c.support, c.items))


def closure(items: Iterable[int], db: TransactionDatabase) -> frozenset[int] | None:
    """Intersection of all transactions containing ``items``.

    Returns None when no transaction contains the itemset (including the
    empty itemset over an empty database), instead of the vacuous full
    universe.
    """
    itemset = frozenset(items)
    unknown = itemset - set(db.universe)
    if unknown:
        raise ValueError(f"items outside the universe: {sorted(unknown)}")
    covering = [t for t in db.transactions if itemset <= t]
    if not covering:
        return None
    out = set(covering[0])
    for t in covering[1:]:
        out &= t
    return frozenset(out)


def mine_closed(db: TransactionDatabase, minsup: MinSupport) -> list[ClosedItemset]:
    """All closed itemsets with support >= minsup, in canonical order."""
    n = len(db.transactions)
    if n == 0:
        return []
    threshold = minsup.resolve(n)
    if threshold < 1:
        raise ValueError("minimum support resolved to zero")
    m = len(db.universe)
    if m == 0:
        return []

    position = {item: p for p, item in enumerate(db.universe)}
    item_tids = [0] * m
    row_masks = []
    for t, row in enumerate(db.transactions):
        mask = 0
        for item in row:
            p = position[item]
            mask |= 1 << p
            item_tids[p] |= 1 << t
        row_masks.append(mask)
    all_items_mask = (1 << m) - 1

    def close_tids(tids: int) -> int:
        mask = all_items_mask
        while tids:
            t = (tids & -tids).bit_length() - 1
            mask &= row_masks[t]
            tids &= tids - 1
        return mask

    closed: dict[int, int] = {}  # item mask of the closure -> support

    generators: list[tuple[tuple[int, ...], int, int]] = []
    for p in range(m):
        tids = item_tids[p]
        support = tids.bit_count()
        if support >= threshold:
            cmask = close_tids(tids)
            closed.setdefault(cmask, support)
            generators.append(((p,), tids, cmask))

    while generators:
        generators.sort(key=lambda g: g[0])
        by_positions = {g[0]: g for g in generators}
        next_level: list[tuple[tuple[int, ...], int, int]] = []
        for a in range(len(generators)):
            pos_a, tids_a, _ = generators[a]
            for b in range(a + 1, len(generators)):
                pos_b, tids_b, _ = generators[b]
                if pos_a[:-1] != pos_b[:-1]:
                    break
                candidate = pos_a + (pos_b[-1],)
                cand_mask = 0
                for p in candidate:
                    cand_mask |= 1 << p
                viable = True
                for drop in range(len(candidate)):
                    subset = candidate[:drop] + candidate[drop + 1 :]
                    gen = by_positions.get(subset)
                    if gen is None or cand_mask & gen[2] == cand_mask:
                        # Missing subset generator, or the candidate sits
                        # inside a subset's closure and adds nothing.
                        viable = False
                        break
                if not viable:
                    continue
                tids = tids_a & tids_b
                support = tids.bit_count()
                if support < threshold:
                    continue
                cmask = close_tids(tids)
                closed.setdefault(cmask, support)
                next_level.append((candidate, tids, cmask))
        generators = next_level

    results = []
    for cmask, support in closed.items():
        items = tuple(db.universe[p] for p in range(m) if cmask >> p & 1)
        results.append(ClosedItemset(items=items, support=support))
    return canonical_order(results)


def mine_bruteforce(db: TransactionDatabase, minsup: MinSupport) -> list[ClosedItemset]:
    """Exhaustive oracle: enumerate every subset, keep closed frequent ones.

    Refuses universes larger than BRUTE_FORCE_MAX_ITEMS items; enumeration
    is exponential on purpose.
    """
    m = len(db.universe)
    if m > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(
            f"brute-force mining limited to {BRUTE_FORCE_MAX_ITEMS} items, got {m}"
        )
    n = len(db.transactions)
    if n == 0 or m == 0:
        return []
    threshold = minsup.resolve(n)
    if threshold < 1:
        raise ValueError("minimum support resolved to zero")

    supports: dict[frozenset[int], int] = {}
    for size in range(1, m + 1):
        for combo in combinations(db.universe, size):
            itemset = frozenset(combo)
            supports[itemset] = sum(1 for t in db.transactions if itemset <= t)

    results = []
    for itemset, support in supports.items():
        if support < threshold:
            continue
        if any(
            supports[itemset | {extra}] == support
            for extra in db.universe
            if extra not in itemset
        ):
            continue
        results.append(ClosedItemset(items=tuple(sorted(itemset)), support=support))
    return canonical_order(results)
