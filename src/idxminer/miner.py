"""Closed frequent itemset mining over transaction databases.

Items are opaque integer ids. ``mine_closed`` enumerates the closed sets
depth-first by prefix-preserving closure extension (LCM: Uno, Kiyomi and
Arimura, "LCM ver.2", FIMI'04). The root is the closure of the empty set.
Each closed set P remembers its core item, the item whose addition produced
it, and is extended only by items e above that core: the closure of P + {e}
is a child of P exactly when it adds no new item below e. Every closed set
other than the root has one such parent, so each is produced once,
with no candidate tables and no duplicate check. The closure is computed
from the items of the first row that contains the extended set, lowest item
first, and abandoned at the first closure item below e. An explicit stack
replaces recursion, so a chain of thousands of nested closed sets is fine.
The result is exactly the set of closed itemsets whose support meets the
threshold, each with its exact support.

``mine_bruteforce`` is an intentionally naive oracle: it enumerates every
non-empty subset of the item universe, counts supports by direct scan, and
keeps the subsets no single-item extension of which preserves support. It
shares no machinery with ``mine_closed`` so the two can check each other.

Transaction ids and item positions are packed into integer bitmasks, which
keeps support counting and closure tests cheap for workload-sized inputs.
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
    if m == 0 or threshold > n:
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
    frequent = [p for p in range(m) if item_tids[p].bit_count() >= threshold]

    def extend(tids: int, cmask: int, start: int) -> int | None:
        """Closure of ``cmask`` over the rows ``tids``, or None once it would
        add an item below ``start`` (not prefix-preserving)."""
        rest = row_masks[(tids & -tids).bit_length() - 1] & ~cmask
        while rest:
            low = rest & -rest
            p = low.bit_length() - 1
            if item_tids[p] & tids == tids:
                if p < start:
                    return None
                cmask |= low
            rest ^= low
        return cmask

    all_rows = (1 << n) - 1
    root = extend(all_rows, 0, 0)
    closed = [(root, n)] if root else []  # (item mask, support)
    stack = [(root, all_rows, -1)]  # (closed item mask, its rows, core item)
    while stack:
        cmask, tids, core = stack.pop()
        for e in frequent:
            if e <= core or cmask >> e & 1:
                continue
            sub = tids & item_tids[e]
            support = sub.bit_count()
            if support < threshold:
                continue
            child = extend(sub, cmask | 1 << e, e)
            if child is not None:
                closed.append((child, support))
                stack.append((child, sub, e))

    results = []
    for cmask, support in closed:
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
