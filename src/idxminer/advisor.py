"""Mine a workload table by table into index candidates and score them.

Indexes are single-table, so ``mine_tables`` mines each table's projection
of the workload apart: the closed sets of the whole workload would combine
the tables' own, a product where the candidates are a sum.

The score is an explicit heuristic, reported as an estimate and never as a
measured benefit:

    score = (support / workload_size) * log2(1 + row_count)

with an estimated index size of row_count * (8 + 16 per key column) bytes.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional

from . import miner
from .miner import ClosedItemset, TransactionDatabase
from .workload import AttributeItem, TransactionContext

DEFAULT_THRESHOLD_ROWS = 100_000
ROW_POINTER_BYTES = 8
KEY_BYTES_PER_COLUMN = 16


class MissingStatsError(LookupError):
    """Raised when the large-table strategy meets a table without a row count."""


class Strategy(str, Enum):
    ALL = "ALL"
    LARGE_TABLES = "LARGE_TABLES"


class IndexCandidate(NamedTuple):
    table: str
    columns: tuple[str, ...]
    support: int


class IndexConfiguration(NamedTuple):
    strategy: Strategy
    # (candidate, score, bytes) per selected index, best first.
    rows: tuple[tuple[IndexCandidate, float, int], ...]

    @property
    def candidates(self) -> tuple[IndexCandidate, ...]:
        return tuple(candidate for candidate, _, _ in self.rows)


def build_database(
    contexts: Iterable[TransactionContext],
) -> tuple[TransactionDatabase, dict[int, AttributeItem]]:
    """Encode transaction contexts as distinct integer-item rows with counts.

    Rows keep the order of first occurrence. Item ids follow sorted attribute
    order, so the encoding is deterministic for a given workload.
    """
    counts = Counter(ctx.items for ctx in contexts)
    id_of = {attr: i for i, attr in enumerate(sorted(set().union(*counts)))}
    db = TransactionDatabase.from_transactions(
        (frozenset(id_of[a] for a in row) for row in counts), counts.values())
    return db, {i: attr for attr, i in id_of.items()}


def mine_tables(db: TransactionDatabase, items_by_id: Mapping[int, AttributeItem],
                threshold: int) -> list[ClosedItemset]:
    """Closed sets of each table's projection of ``db``, equal projections
    merged by summing their counts, at the whole workload's ``threshold``."""
    ids_of: dict[str, set[int]] = {}
    for i, attr in items_by_id.items():
        ids_of.setdefault(attr.table, set()).add(i)
    projections: dict[str, Counter[frozenset[int]]] = {t: Counter() for t in sorted(ids_of)}
    for row, count in zip(db.transactions, db.counts):
        for table in {items_by_id[i].table for i in row}:
            projections[table][row & ids_of[table]] += count
    closed: list[ClosedItemset] = []
    for weights in projections.values():
        projected = TransactionDatabase.from_transactions(weights, weights.values())
        closed += miner.mine_closed(projected, threshold)
    return closed


def derive_candidates(
    closed: Iterable[ClosedItemset],
    items_by_id: Mapping[int, AttributeItem],
    maximal_only: bool = True,
) -> list[IndexCandidate]:
    """One index candidate per closed itemset of ``mine_tables``.

    ``closed`` must be what ``mine_tables`` returns: distinct sets, each
    inside one table T and T-closed (no other T-column lies in every row
    holding the set).

    Columns go by descending single-column support, then by name; a column's
    support is the highest among the sets holding it, which its own closure
    attains. With ``maximal_only`` a candidate inside another is dropped,
    since the wider one's leading prefix serves it: a set is kept when no
    other set holds all of its items. Item ids never cross tables, so such a
    set is on the same table.
    """
    closed = list(closed)
    single: dict[int, int] = {}
    holders: dict[int, int] = {}  # item id -> bit k set when closed[k] holds it
    for k, itemset in enumerate(closed):
        for i in itemset.items:
            single[i] = max(single.get(i, 0), itemset.support)
            holders[i] = holders.get(i, 0) | 1 << k

    candidates = []
    for itemset in closed:
        if maximal_only:
            supersets = -1
            for i in itemset.items:
                supersets &= holders[i]
            if supersets.bit_count() > 1:
                continue
        ordered = sorted(itemset.items, key=lambda i: (-single[i], items_by_id[i].column))
        candidates.append(IndexCandidate(items_by_id[ordered[0]].table,
                                         tuple(items_by_id[i].column for i in ordered),
                                         itemset.support))
    candidates.sort(key=lambda c: (-c.support, c.table, c.columns))
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
                    f"no statistics for table {candidate.table!r}; score set to 0"
                )
            scored.append((candidate, 0.0, 0))
        elif not large_only or n_rows >= threshold_rows:
            scored.append((candidate, score(candidate, n_rows, workload_size),
                           estimated_index_bytes(candidate, n_rows)))
    if large_only and missing:
        raise MissingStatsError(
            "no statistics for table(s): " + ", ".join(map(repr, sorted(missing)))
        )
    scored.sort(key=lambda row: (-row[1], row[0].table, row[0].columns))
    return IndexConfiguration(strategy=strategy, rows=tuple(scored))
