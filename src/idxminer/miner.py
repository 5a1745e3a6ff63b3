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

``maximal_only`` keeps only the maximal sets, by LCMmax's test (same paper):
a frequent closed set P is maximal exactly when no frequent item outside P
keeps the threshold together with P. A node with a frequent extension is not
maximal; otherwise the items above its core outside its tail were infrequent
with an ancestor, so only the frequent items below the core are scanned,
against its rows. Other nodes are dropped undecoded; their children stay.

Rows carry counts (LCM ver.2's database reduction), and support sums them.
Row t owns ``counts[t]`` consecutive bits of a row mask, so support stays a
popcount; an item id is its own bit in an item mask.

The threshold is an absolute count of at least 1. The command line owns the
minimum support: it resolves a fraction into a count once, over the whole
workload, and hands that count to every call.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class ClosedItemset(NamedTuple):
    """A closed itemset and its absolute support count."""

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


def canonical_order(itemsets: Iterable[ClosedItemset]) -> list[ClosedItemset]:
    """Descending support, then lexicographic item tuples."""
    return sorted(itemsets, key=lambda c: (-c.support, c.items))


def mine_closed(db: TransactionDatabase, threshold: int,
                maximal_only: bool = False) -> list[ClosedItemset]:
    """Closed (or only maximal) itemsets with support >= threshold, in canonical order."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    n = sum(db.counts)
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

    frequent_mask = sum(1 << p for p in frequent)
    all_rows = (1 << n) - 1
    closed = []
    # (closed item mask, its rows, its support, its core item, candidates)
    stack = [(extend(all_rows, 0, 0), all_rows, n, 0, frequent)]
    while stack:
        cmask, tids, support, core, candidates = stack.pop()
        tail = []  # frequent extensions: (item, rows, support)
        for e in candidates:
            if cmask >> e & 1:
                continue
            sub = tids & item_tids[e]
            count = sub.bit_count()
            if count >= threshold:
                tail.append((e, sub, count))
        extensions = [e for e, _, _ in tail]
        for i, (e, sub, count) in enumerate(tail, 1):
            child = extend(sub, cmask | 1 << e, e)
            if child is not None:
                stack.append((child, sub, count, e, extensions[i:]))
        below = 0 if tail or not maximal_only else frequent_mask & ~cmask & (1 << core) - 1
        while below and (tids & item_tids[below.bit_length() - 1]).bit_count() < threshold:
            below ^= 1 << below.bit_length() - 1
        if maximal_only and (tail or below):  # LCMmax
            continue
        items = []
        while cmask:
            items.append((cmask & -cmask).bit_length() - 1)
            cmask &= cmask - 1
        if items:
            closed.append(ClosedItemset(tuple(items), support))
    return canonical_order(closed)
