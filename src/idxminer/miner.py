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

Each node scans only a tail of candidate items, as in Eclat's equivalence
classes (Zaki, "Scalable Algorithms for Association Mining", TKDE 2000).
The root's tail is every frequent item. A node keeps, in item order, its
frequent extensions: the tail items outside its closure whose rows with it
meet the threshold. The child born from extension e gets as its tail the
extensions that follow e. This loses nothing: a child's rows are a subset of
its parent's, so an item infrequent with the parent is infrequent with every
descendant, and the items before e are below the child's core.

Transaction ids and item positions are packed into integer bitmasks, which
keeps support counting and closure tests cheap for workload-sized inputs.
A closed set's items are read off its mask one set bit at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union


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

    value: Union[int, Fraction]

    def __post_init__(self):
        if isinstance(self.value, bool):
            raise ValueError("minimum support must be a count or a fraction")
        if isinstance(self.value, int):
            if self.value < 1:
                raise ValueError("absolute minimum support must be >= 1")
        elif isinstance(self.value, Fraction):
            if not 0 < self.value <= 1:
                raise ValueError("fractional minimum support must be in (0, 1]")
        else:
            raise ValueError(f"unsupported minimum support value {self.value!r}")

    def resolve(self, n_transactions: int) -> int:
        """Absolute threshold over ``n_transactions``; a fraction f gives ceil(f * n)."""
        if isinstance(self.value, int):
            return self.value
        return math.ceil(self.value * n_transactions)


def canonical_order(itemsets: Iterable[ClosedItemset]) -> list[ClosedItemset]:
    """Descending support, then lexicographic item tuples."""
    return sorted(itemsets, key=lambda c: (-c.support, c.items))


def mine_closed(db: TransactionDatabase, minsup: MinSupport) -> list[ClosedItemset]:
    """All closed itemsets with support >= minsup, in canonical order."""
    n = len(db.transactions)
    if n == 0:
        return []
    threshold = minsup.resolve(n)
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
    stack = [(root, all_rows, frequent)]  # (closed item mask, its rows, candidates)
    while stack:
        cmask, tids, candidates = stack.pop()
        tail = []  # frequent extensions: (item position, rows, support)
        for e in candidates:
            if cmask >> e & 1:
                continue
            sub = tids & item_tids[e]
            support = sub.bit_count()
            if support >= threshold:
                tail.append((e, sub, support))
        positions = [e for e, _, _ in tail]
        for i, (e, sub, support) in enumerate(tail, 1):
            child = extend(sub, cmask | 1 << e, e)
            if child is not None:
                closed.append((child, support))
                stack.append((child, sub, positions[i:]))

    results = []
    for cmask, support in closed:
        items = []
        while cmask:
            low = cmask & -cmask
            items.append(db.universe[low.bit_length() - 1])
            cmask ^= low
        results.append(ClosedItemset(items=tuple(items), support=support))
    return canonical_order(results)
