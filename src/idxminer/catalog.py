"""Table row counts backing the large-table strategy and scoring.

Statistics come from a flat file, one table per line::

    <table><TAB><row_count>[<TAB><avg_row_bytes>]

``#`` starts a comment line and blank lines are skipped. The optional
third column is checked to be a positive integer but is not used.
"""

from __future__ import annotations

from typing import Mapping

from .workload import canonical_identifier


class StatsError(ValueError):
    """Raised when a statistics file cannot be parsed."""


class MissingStatsError(LookupError):
    """Raised when a table has no row count."""


def load_stats(stats_text: str) -> dict[str, int]:
    """Parse a statistics file into table -> row count; errors name the line."""
    rows: dict[str, int] = {}
    for lineno, raw in enumerate(stats_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split("\t") if f.strip()]
        if len(fields) not in (2, 3):
            raise StatsError(
                f"line {lineno}: expected <table><TAB><rows>[<TAB><bytes>], got {raw!r}"
            )
        table = canonical_identifier(fields[0])
        if table in rows:
            raise StatsError(f"line {lineno}: duplicate table '{table}'")
        try:
            counts = [int(f) for f in fields[1:]]
        except ValueError:
            raise StatsError(f"line {lineno}: counts must be integers") from None
        if counts[0] < 0:
            raise StatsError(f"line {lineno}: negative row count for table '{table}'")
        if counts[1:] and counts[1] < 1:
            raise StatsError(f"line {lineno}: non-positive row bytes for table '{table}'")
        rows[table] = counts[0]
    return rows


def row_count(rows: Mapping[str, int], table: str) -> int:
    """The row count of ``table``; MissingStatsError when it has none."""
    try:
        return rows[table]
    except KeyError:
        raise MissingStatsError(f"no statistics for table '{table}'") from None


def is_large(table: str, rows: Mapping[str, int], threshold_rows: int) -> bool:
    """True when the table's row count reaches the threshold.

    Unknown tables raise MissingStatsError rather than passing as small.
    """
    if threshold_rows < 0:
        raise ValueError("threshold_rows must be >= 0")
    return row_count(rows, table) >= threshold_rows
