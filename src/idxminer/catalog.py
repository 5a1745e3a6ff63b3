"""Table row counts backing the large-table strategy and scoring.

Statistics come from a flat file, one table per line::

    <table><TAB><row_count>[<TAB><avg_row_bytes>]

``#`` starts a comment line and blank lines are skipped. The optional
third column is checked to be a positive integer but is not used. Table
names are canonicalized as schema names are. ``advisor.select`` is the one
reader of the counts and raises ``MissingStatsError`` when the large-table
strategy meets a table without one.
"""

from __future__ import annotations

from .workload import canonical_name


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
        table = canonical_name(fields[0])
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
