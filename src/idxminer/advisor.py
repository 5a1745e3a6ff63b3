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

from .miner import ClosedItemset, TransactionDatabase, canonical_order
from .workload import AttributeItem, TransactionContext

DEFAULT_THRESHOLD_ROWS = 100_000
ROW_POINTER_BYTES = 8
KEY_BYTES_PER_COLUMN = 16


class MissingStatsError(LookupError):
    """Raised when the large-table strategy meets a table without a row count."""


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
    # (candidate, score, bytes) per selected index, best first.
    rows: tuple[tuple[IndexCandidate, float, int], ...]

    @property
    def candidates(self) -> tuple[IndexCandidate, ...]:
        return tuple(candidate for candidate, _, _ in self.rows)


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


def score(candidate: IndexCandidate, n_rows: int, workload_size: int) -> float:
    """Frequency-weighted size heuristic; grows with support and row count."""
    if workload_size < 1:
        raise ValueError("workload_size must be >= 1")
    return (candidate.support / workload_size) * math.log2(1 + n_rows)


def estimated_index_bytes(candidate: IndexCandidate, n_rows: int) -> int:
    """Rough b-tree footprint: per-row pointer plus fixed bytes per key column."""
    return n_rows * (ROW_POINTER_BYTES + KEY_BYTES_PER_COLUMN * len(candidate.columns))


def select(
    candidates: Iterable[IndexCandidate],
    strategy: Strategy,
    rows: Mapping[str, int],
    threshold_rows: int = DEFAULT_THRESHOLD_ROWS,
    *,
    workload_size: int,
    diagnostics: Optional[list[str]] = None,
) -> IndexConfiguration:
    """Apply a selection strategy and score the surviving candidates.

    ``rows`` maps tables to row counts; it is empty when there are no
    statistics. Each candidate's table is looked up once. LARGE_TABLES
    requires a count for every candidate table, raising MissingStatsError
    naming those without one, and keeps only candidates on tables of at
    least ``threshold_rows`` rows. ALL keeps everything; a candidate
    without a count then scores 0 instead of failing the run, with one
    diagnostic per such table, at its first candidate.
    """
    large_only = strategy is Strategy.LARGE_TABLES
    seen = set()
    missing = set()
    scored = []
    for candidate in candidates:
        key = (candidate.table, candidate.columns)
        if key in seen:
            raise ValueError(f"duplicate candidate {key}")
        seen.add(key)
        n_rows = rows.get(candidate.table)
        if n_rows is None:
            first = candidate.table not in missing
            missing.add(candidate.table)
            if large_only:
                continue
            if first and diagnostics is not None:
                diagnostics.append(
                    f"no statistics for table '{candidate.table}'; score set to 0"
                )
            scored.append((candidate, 0.0, 0))
        elif not large_only or n_rows >= threshold_rows:
            scored.append((candidate, score(candidate, n_rows, workload_size),
                           estimated_index_bytes(candidate, n_rows)))
    if large_only and missing:
        raise MissingStatsError(
            "no statistics for table(s): " + ", ".join(sorted(missing))
        )
    scored.sort(key=lambda row: (-row[1],) + row[0].sort_key())
    return IndexConfiguration(strategy=strategy, rows=tuple(scored))
