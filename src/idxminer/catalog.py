"""Table-level statistics backing the large-table strategy and scoring.

Statistics come from a flat file, one table per line::

    <table><TAB><row_count>[<TAB><avg_row_bytes>]

``#`` starts a comment line and blank lines are skipped. The loader is the
single seam where a live-catalog backend could be substituted later.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .workload import canonical_identifier

DEFAULT_AVG_ROW_BYTES = 100


class StatsError(ValueError):
    """Raised when a statistics file cannot be parsed."""


class MissingStatsError(LookupError):
    """Raised when a table has no entry in the catalog snapshot."""


@dataclass(frozen=True)
class TableStats:
    table: str
    row_count: int
    avg_row_bytes: int = DEFAULT_AVG_ROW_BYTES

    def __post_init__(self):
        if self.row_count < 0:
            raise StatsError(f"negative row count for table '{self.table}'")
        if self.avg_row_bytes < 1:
            raise StatsError(f"non-positive row bytes for table '{self.table}'")


@dataclass
class CatalogSnapshot:
    stats: dict[str, TableStats] = field(default_factory=dict)

    def __contains__(self, table: str) -> bool:
        return table in self.stats

    def get(self, table: str) -> TableStats:
        try:
            return self.stats[table]
        except KeyError:
            raise MissingStatsError(f"no statistics for table '{table}'") from None


def load_stats(stats_text: str) -> CatalogSnapshot:
    """Parse a statistics file; errors name the offending line."""
    stats: dict[str, TableStats] = {}
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
        if table in stats:
            raise StatsError(f"line {lineno}: duplicate table '{table}'")
        try:
            row_count = int(fields[1])
            avg_row_bytes = int(fields[2]) if len(fields) == 3 else DEFAULT_AVG_ROW_BYTES
        except ValueError:
            raise StatsError(f"line {lineno}: counts must be integers") from None
        try:
            stats[table] = TableStats(table=table, row_count=row_count,
                                      avg_row_bytes=avg_row_bytes)
        except StatsError as exc:
            raise StatsError(f"line {lineno}: {exc}") from None
    return CatalogSnapshot(stats=stats)


def dump_stats(snapshot: CatalogSnapshot) -> str:
    """Serialize a snapshot back into the file format (tables sorted)."""
    lines = [
        f"{s.table}\t{s.row_count}\t{s.avg_row_bytes}"
        for s in sorted(snapshot.stats.values(), key=lambda s: s.table)
    ]
    return "".join(line + "\n" for line in lines)


def is_large(table: str, snapshot: CatalogSnapshot, threshold_rows: int) -> bool:
    """True when the table's row count reaches the threshold.

    Unknown tables raise MissingStatsError rather than passing as small.
    """
    if threshold_rows < 0:
        raise ValueError("threshold_rows must be >= 0")
    return snapshot.get(table).row_count >= threshold_rows
