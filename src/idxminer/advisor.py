"""Turn mined itemsets into per-table index candidates and score them.

A closed itemset may span several tables (join predicates routinely do);
since the emitted indexes are single-table, each itemset is partitioned by
table and every per-table fragment becomes a candidate. Fragments that
coincide across itemsets merge, keeping the highest support seen. Columns
inside a composite candidate are ordered by descending single-column
support so the most frequent attribute leads the key.

Derivation is one pass over the closed sets in canonical order, which is
descending support. The first set that holds a column, or yields a
fragment, therefore already carries its highest support: for a column
that is its singleton support, since the column's own closure is one of
the sets holding it. The maximal-only filter visits fragments widest
first and checks each only against the fragments already kept on its
table. That is exact because strict inclusion is transitive: a dropped
fragment lies inside some maximal fragment, which is wider and so was
kept before it.

The score is an explicit heuristic, reported as an estimate and never as a
measured benefit:

    score = (support / workload_size) * log2(1 + row_count)

with an estimated index size of row_count * (8 + 16 per key column) bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

from .catalog import MissingStatsError, is_large, row_count
from .miner import ClosedItemset, TransactionDatabase, canonical_order
from .workload import AttributeItem, TransactionContext

DEFAULT_THRESHOLD_ROWS = 100_000
ROW_POINTER_BYTES = 8
KEY_BYTES_PER_COLUMN = 16


class Strategy(str, Enum):
    ALL = "ALL"
    LARGE_TABLES = "LARGE_TABLES"


@dataclass(frozen=True)
class IndexCandidate:
    table: str
    columns: tuple[str, ...]
    support: int

    def sort_key(self) -> tuple:
        return (self.table, self.columns)


@dataclass(frozen=True)
class IndexConfiguration:
    strategy: Strategy
    candidates: tuple[IndexCandidate, ...]
    scores: tuple[float, ...]
    est_bytes: tuple[int, ...]


def build_database(
    contexts: Iterable[TransactionContext],
) -> tuple[TransactionDatabase, dict[int, AttributeItem]]:
    """Encode transaction contexts into an integer-item database.

    Item ids are assigned by sorted attribute order, so the encoding is
    deterministic for a given workload.
    """
    rows = [ctx.items for ctx in contexts]
    attrs = sorted(set().union(*rows)) if rows else []
    id_of = {attr: i for i, attr in enumerate(attrs)}
    db = TransactionDatabase.from_transactions(
        [{id_of[a] for a in row} for row in rows]
    )
    return db, {i: attr for attr, i in id_of.items()}


def derive_candidates(
    closed: Iterable[ClosedItemset],
    items_by_id: Mapping[int, AttributeItem],
    maximal_only: bool = True,
) -> list[IndexCandidate]:
    """Partition closed itemsets by table into merged index candidates.

    Every item names a schema column, since extraction emits no other, so
    the schema is not consulted here.
    With ``maximal_only`` a candidate whose column set is a strict subset of
    another candidate on the same table is dropped; the composite's
    leading-prefix ordering can serve the subset.
    """
    singles: dict[tuple[str, str], int] = {}
    fragments: dict[tuple[str, frozenset[str]], int] = {}
    for itemset in canonical_order(closed):
        by_table: dict[str, list[str]] = {}
        for item_id in itemset.items:
            attr = items_by_id[item_id]
            singles.setdefault((attr.table, attr.column), itemset.support)
            by_table.setdefault(attr.table, []).append(attr.column)
        for table, columns in by_table.items():
            fragments.setdefault((table, frozenset(columns)), itemset.support)

    if maximal_only:
        kept: dict[str, list[frozenset[str]]] = {}
        for table, columns in sorted(fragments, key=lambda key: -len(key[1])):
            wider = kept.setdefault(table, [])
            if any(columns < other for other in wider):
                del fragments[(table, columns)]
            else:
                wider.append(columns)

    candidates = [
        IndexCandidate(
            table=table,
            columns=tuple(sorted(columns, key=lambda c: (-singles[table, c], c))),
            support=support,
        )
        for (table, columns), support in fragments.items()
    ]
    candidates.sort(key=lambda c: (-c.support,) + c.sort_key())
    return candidates


def score(candidate: IndexCandidate, rows: Mapping[str, int],
          workload_size: int) -> float:
    """Frequency-weighted size heuristic; grows with support and row count."""
    if workload_size < 1:
        raise ValueError("workload_size must be >= 1")
    n_rows = row_count(rows, candidate.table)
    return (candidate.support / workload_size) * math.log2(1 + n_rows)


def estimated_index_bytes(candidate: IndexCandidate,
                          rows: Mapping[str, int]) -> int:
    """Rough b-tree footprint: per-row pointer plus fixed bytes per key column."""
    n_rows = row_count(rows, candidate.table)
    return n_rows * (ROW_POINTER_BYTES + KEY_BYTES_PER_COLUMN * len(candidate.columns))


def select(
    candidates: Iterable[IndexCandidate],
    strategy: Strategy,
    rows: Optional[Mapping[str, int]],
    threshold_rows: int = DEFAULT_THRESHOLD_ROWS,
    *,
    workload_size: int,
    diagnostics: Optional[list[str]] = None,
) -> IndexConfiguration:
    """Apply a selection strategy and score the surviving candidates.

    LARGE_TABLES requires row counts for every candidate table and
    keeps only candidates on tables at or above ``threshold_rows``. ALL
    keeps everything; candidates without statistics then score 0 with a
    diagnostic instead of failing the run.
    """
    pool = list(candidates)
    seen = set()
    for candidate in pool:
        key = (candidate.table, candidate.columns)
        if key in seen:
            raise ValueError(f"duplicate candidate {key}")
        seen.add(key)

    if strategy is Strategy.LARGE_TABLES:
        if rows is None:
            raise MissingStatsError(
                "strategy LARGE_TABLES requires table statistics"
            )
        missing = sorted({c.table for c in pool if c.table not in rows})
        if missing:
            raise MissingStatsError(
                "no statistics for table(s): " + ", ".join(missing)
            )
        kept = [c for c in pool if is_large(c.table, rows, threshold_rows)]
    else:
        kept = pool

    scored = []
    for candidate in kept:
        if rows is not None and candidate.table in rows:
            value = score(candidate, rows, workload_size)
            size = estimated_index_bytes(candidate, rows)
        else:
            if diagnostics is not None:
                diagnostics.append(
                    f"no statistics for table '{candidate.table}'; score set to 0"
                )
            value, size = 0.0, 0
        scored.append((candidate, value, size))
    scored.sort(key=lambda row: (-row[1],) + row[0].sort_key())

    return IndexConfiguration(
        strategy=strategy,
        candidates=tuple(row[0] for row in scored),
        scores=tuple(row[1] for row in scored),
        est_bytes=tuple(row[2] for row in scored),
    )
