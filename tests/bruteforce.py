"""Brute-force oracles for closed frequent itemset mining and for candidates.

``mine_bruteforce`` is an intentionally naive oracle: it enumerates every
non-empty subset of the item universe, counts supports by direct scan, and
keeps the subsets no single-item extension of which preserves support.
``mine_by_intersection`` serves wide, sparse databases, where subsets are
too many to enumerate: the closed sets are the non-empty intersections of
row subsets. Both sum the counts of the rows a set lies in, as the miner
does. Neither shares machinery with ``idxminer.miner.mine_closed``, so each
can check it.

``candidates_bruteforce`` reads index candidates straight off their
definition, with no mining at all, so it checks ``advisor.mine_tables`` and
``advisor.derive_candidates`` together.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from idxminer.miner import ClosedItemset, MinSupport, TransactionDatabase, canonical_order

BRUTE_FORCE_MAX_ITEMS = 20


def weighted_support(db: TransactionDatabase, itemset: Iterable[int]) -> int:
    """The summed counts of the rows holding ``itemset``, by direct scan."""
    wanted = frozenset(itemset)
    return sum(count for row, count in zip(db.transactions, db.counts) if wanted <= row)


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
    n = sum(db.counts)
    if n == 0 or m == 0:
        return []
    threshold = minsup.resolve(n)

    supports: dict[frozenset[int], int] = {}
    for size in range(1, m + 1):
        for combo in combinations(db.universe, size):
            supports[frozenset(combo)] = weighted_support(db, combo)

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
    n = sum(db.counts)
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
        support = weighted_support(db, itemset)
        if support >= threshold:
            results.append(ClosedItemset(items=tuple(sorted(itemset)), support=support))
    return canonical_order(results)


def candidates_bruteforce(
    rows: list[frozenset[tuple[str, str]]], minsup: MinSupport, maximal_only: bool = True
) -> list[tuple[str, tuple[str, ...], int]]:
    """Index candidates as (table, columns, support), from their definition.

    ``rows`` holds one set of (table, column) pairs per statement, and
    ``minsup`` resolves against their number. On a table T a column set F is
    a candidate when it is non-empty, its support (the number of rows holding
    it) meets the threshold, and F equals the T-columns common to every row
    that holds F. With ``maximal_only``, one strictly inside another
    candidate on its table is dropped. As the README states, the columns go
    by descending single-column support, then by name; candidates go by
    descending support, then table and columns.
    """
    found = []
    for table in sorted({table for row in rows for table, _ in row}):
        parts = [frozenset(c for t, c in row if t == table) for row in rows]
        columns = sorted(set().union(*parts))
        if len(columns) > BRUTE_FORCE_MAX_ITEMS:
            raise ValueError(f"table {table!r} has over {BRUTE_FORCE_MAX_ITEMS} columns")
        for size in range(1, len(columns) + 1):
            for combo in map(frozenset, combinations(columns, size)):
                holding = [part for part in parts if combo <= part]
                if len(holding) >= minsup.resolve(len(rows)) and \
                        frozenset.intersection(*holding) == combo:
                    found.append((table, combo, len(holding)))
    if maximal_only:
        found = [(table, f, support) for table, f, support in found
                 if not any(t == table and f < g for t, g, _ in found)]
    candidates = []
    for table, f, support in found:
        single = {c: sum((table, c) in row for row in rows) for c in f}
        candidates.append((table, tuple(sorted(f, key=lambda c: (-single[c], c))), support))
    return sorted(candidates, key=lambda c: (-c[2], c[0], c[1]))
