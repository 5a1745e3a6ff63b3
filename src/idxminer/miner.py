"""Closed frequent itemset mining over transaction databases.

Items are non-negative integer ids. ``mine_closed`` enumerates the closed sets
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

Rows carry counts (LCM ver.2's database reduction), and support sums them.
Row t owns ``counts[t]`` consecutive bits of a row mask, so support stays a
popcount; an item id is its own bit in an item mask.

``MinSupport`` checks its value when built, so an invalid threshold fails
before any mining; ``resolve`` turns a fraction into a count for a given
number of transactions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Union


class ClosedItemset(NamedTuple):
    """A closed itemset with its absolute support count."""

    items: tuple[int, ...]
    support: int


class TransactionDatabase(NamedTuple):
    transactions: tuple[frozenset[int], ...]
    universe: tuple[int, ...]
    counts: tuple[int, ...]  # occurrences of each row; support sums them

    @classmethod
    def from_transactions(cls, transactions: Iterable[Iterable[int]],
                          counts: Iterable[int] | None = None) -> "TransactionDatabase":
        rows = tuple(frozenset(t) for t in transactions)
        universe = tuple(sorted(set().union(*rows)))
        counts = (1,) * len(rows) if counts is None else tuple(counts)
        return cls(transactions=rows, universe=universe, counts=counts)


class MinSupport:
    """Minimum support: an absolute count (int >= 1) or a fraction in (0, 1]."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, Fraction]):
        if isinstance(value, bool):
            raise ValueError("minimum support must be a count or a fraction")
        if isinstance(value, int):
            if value < 1:
                raise ValueError("absolute minimum support must be >= 1")
        elif isinstance(value, Fraction):
            if not 0 < value <= 1:
                raise ValueError("fractional minimum support must be in (0, 1]")
        else:
            raise ValueError(f"unsupported minimum support value {value!r}")
        self.value = value

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
    n = sum(db.counts)
    threshold = minsup.resolve(n)
    if not db.universe or threshold > n:
        return []

    item_tids = [0] * (db.universe[-1] + 1)
    row_at = {}  # first bit of a row's run -> the row's item mask
    offset = 0
    for row, count in zip(db.transactions, db.counts, strict=True):
        bits = ((1 << count) - 1) << offset
        mask = 0
        for item in row:
            mask |= 1 << item
            item_tids[item] |= bits
        row_at[offset] = mask
        offset += count
    frequent = [p for p in db.universe if item_tids[p].bit_count() >= threshold]

    def extend(tids: int, cmask: int, start: int) -> int | None:
        """Closure of ``cmask`` over the rows ``tids``, or None once it would
        add an item below ``start`` (not prefix-preserving)."""
        rest = row_at[(tids & -tids).bit_length() - 1] & ~cmask
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
        tail = []  # frequent extensions: (item, rows, support)
        for e in candidates:
            if cmask >> e & 1:
                continue
            sub = tids & item_tids[e]
            support = sub.bit_count()
            if support >= threshold:
                tail.append((e, sub, support))
        extensions = [e for e, _, _ in tail]
        for i, (e, sub, support) in enumerate(tail, 1):
            child = extend(sub, cmask | 1 << e, e)
            if child is not None:
                closed.append((child, support))
                stack.append((child, sub, extensions[i:]))

    results = []
    for cmask, support in closed:
        items = []
        while cmask:
            low = cmask & -cmask
            items.append(low.bit_length() - 1)
            cmask ^= low
        results.append(ClosedItemset(items=tuple(items), support=support))
    return canonical_order(results)
