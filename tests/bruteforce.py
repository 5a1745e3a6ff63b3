"""Brute-force oracles for closed frequent itemset mining.

``mine_bruteforce`` is an intentionally naive oracle: it enumerates every
non-empty subset of the item universe, counts supports by direct scan, and
keeps the subsets no single-item extension of which preserves support.
``mine_by_intersection`` serves wide, sparse databases, where subsets are
too many to enumerate: the closed sets are the non-empty intersections of
row subsets. Neither shares machinery with ``idxminer.miner.mine_closed``,
so each can check it.
"""

from __future__ import annotations

from itertools import combinations

from idxminer.miner import ClosedItemset, MinSupport, TransactionDatabase, canonical_order

BRUTE_FORCE_MAX_ITEMS = 20


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


def mine_by_intersection(db: TransactionDatabase, minsup: MinSupport) -> list[ClosedItemset]:
    """Reference for any universe size: intersect rows until nothing new appears.

    Every closed set of support >= 1 is the intersection of the rows that
    contain it, and every such intersection is closed. The sets are grown by
    intersecting each one with each row, to a fixpoint, and each support is
    counted by scanning the rows. The cost follows the number of closed sets
    times the number of rows, so keep databases sparse.
    """
    n = len(db.transactions)
    if n == 0:
        return []
    threshold = minsup.resolve(n)
    found: set[frozenset[int]] = set()
    grown = True
    while grown:
        grown = False
        for row in db.transactions:
            for itemset in [row, *(known & row for known in found)]:
                if itemset and itemset not in found:
                    found.add(itemset)
                    grown = True
    results = []
    for itemset in found:
        support = sum(1 for row in db.transactions if itemset <= row)
        if support >= threshold:
            results.append(ClosedItemset(items=tuple(sorted(itemset)), support=support))
    return canonical_order(results)
