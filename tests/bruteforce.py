"""Brute-force oracle for closed frequent itemset mining.

``mine_bruteforce`` is an intentionally naive oracle: it enumerates every
non-empty subset of the item universe, counts supports by direct scan, and
keeps the subsets no single-item extension of which preserves support. It
shares no machinery with ``idxminer.miner.mine_closed`` so the two can
check each other.
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
