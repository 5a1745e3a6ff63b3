"""Rendering of a recommendation: CREATE INDEX DDL and reports.

Two report forms share one underlying recommendation:

* ``text``: human-readable summary printed to stdout and written to
  ``report.txt``.
* ``structured``: a line-oriented form (``report.dat``) meant for scripts.
  Header lines are ``key: value``; each candidate is one tab-separated row::

      candidate<TAB>table<TAB>col,col<TAB>support<TAB>ratio<TAB>score<TAB>bytes

  A column name holding ``,`` or ``"`` goes out in double quotes, with each
  inner ``"`` doubled. ``parse_structured_report`` reads the form back; the
  candidate triple (table, columns, support) round-trips exactly.

All output is deterministic: fixed float precision, canonical ordering, no
timestamps.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterator, Mapping, NamedTuple

from .advisor import IndexCandidate, IndexConfiguration
from .workload import QueryKind

NAME_PREFIX = "idx"
MAX_INDEX_NAME_LENGTH = 60
_NAME_HASH_DIGITS = 6

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# A column name in a report.dat candidate row, starting the field or after a
# comma: double-quoted with ``""`` for ``"``, or bare up to the next comma.
_DAT_COLUMN_RE = re.compile(r'(?:^|(?<=,))(?:"((?:[^"]|"")*)"|([^,]*))')

# Words SQL engines reserve, every keyword the subset grammar reads among
# them. A name spelled like one goes out quoted.
_RESERVED_WORDS = frozenset("""
    all and any as asc between by case check column constraint create cross
    default delete desc distinct drop else end exists foreign from full grant
    group having in index inner insert into is join left like limit not null
    on or order outer primary references right select set table then to union
    unique update user values when where with
""".split())


class Recommendation(NamedTuple):
    configuration: IndexConfiguration
    minsup_used: int
    workload_summary: Mapping[QueryKind, int]
    diagnostics: tuple[str, ...]

    @property
    def workload_size(self) -> int:
        return sum(self.workload_summary.values())


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _sql_name(identifier: str) -> str:
    """Quote identifiers outside the plain identifier alphabet or reserved."""
    if _PLAIN_IDENT.match(identifier) and identifier.lower() not in _RESERVED_WORDS:
        return identifier
    return _quoted(identifier)


def _with_digest(name: str, key: str) -> str:
    """``name`` cut to fit a ``_`` and a 6-hex sha256 digest of ``key``."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:_NAME_HASH_DIGITS]
    keep = MAX_INDEX_NAME_LENGTH - _NAME_HASH_DIGITS - 1
    return f"{name[:keep]}_{digest}"


def index_name(candidate: IndexCandidate) -> str:
    """Deterministic index name, truncated with a stable hash suffix if long."""
    parts = [NAME_PREFIX, candidate.table, *candidate.columns]
    name = "_".join(re.sub(r"[^A-Za-z0-9_]", "_", part) for part in parts)
    if len(name) <= MAX_INDEX_NAME_LENGTH:
        return name
    return _with_digest(name, name)


def emit_ddl(configuration: IndexConfiguration) -> str:
    """One CREATE INDEX statement per candidate, in configuration order.

    ``index_name`` can map two candidates to one name (columns ``a, b`` and
    ``a_b``, or ``café`` and ``cafè``). A name already taken gets a digest of
    the candidate's exact table and columns instead, and while that name is
    taken too, a digest of the same key with a retry count appended; so
    names stay unique, even where a name cut to length digests to itself.
    """
    lines = []
    taken: set[str] = set()
    for candidate in configuration.candidates:
        name = natural = index_name(candidate)
        key = [candidate.table, *candidate.columns]
        retry = 0
        while name in taken:
            name = _with_digest(natural, json.dumps(key + [retry] if retry else key))
            retry += 1
        taken.add(name)
        columns = ", ".join(_sql_name(c) for c in candidate.columns)
        lines.append(
            f"CREATE INDEX {name} ON {_sql_name(candidate.table)} ({columns});"
        )
    return "".join(line + "\n" for line in lines)


def emit_report(recommendation: Recommendation, format: str = "text") -> str:
    if format == "text":
        return _text_report(recommendation)
    if format == "structured":
        return _structured_report(recommendation)
    raise ValueError(f"unknown report format {format!r}")


def _cells(rec: Recommendation) -> Iterator[tuple[str, ...]]:
    """The table, columns, support, ratio, score and bytes of each candidate."""
    for candidate, value, size in rec.configuration.rows:
        yield (
            candidate.table,
            ",".join(_quoted(c) if "," in c or '"' in c else c
                     for c in candidate.columns),
            str(candidate.support),
            f"{candidate.support / rec.workload_size:.4f}",
            f"{value:.6f}",
            str(size),
        )


def _kind_counts(rec: Recommendation) -> Iterator[tuple[str, int]]:
    """Each statement kind's lower-cased name and count, in ``QueryKind`` order."""
    for kind in QueryKind:
        yield kind.value.lower(), rec.workload_summary.get(kind, 0)


def _text_report(rec: Recommendation) -> str:
    config = rec.configuration
    size = rec.workload_size
    kinds = " ".join(f"{name}={count}" for name, count in _kind_counts(rec))
    lines = [
        "Index recommendation",
        "====================",
        f"strategy: {config.strategy.value}",
        f"minimum support: {rec.minsup_used} of {size} statements",
        f"workload: {size} statements ({kinds})",
        "",
    ]
    if not config.candidates:
        lines.append("no index candidates met the support threshold")
    else:
        rows = [("#", "table", "columns", "support", "ratio", "score", "est_bytes")]
        rows += [(str(rank), *cells) for rank, cells in enumerate(_cells(rec), start=1)]
        widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
        for row in rows:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)).rstrip())
    lines += [
        "",
        f"totals: {len(config.candidates)} candidates on "
        f"{len({c.table for c in config.candidates})} tables, "
        f"~{sum(size for _, _, size in config.rows)} bytes estimated",
        f"diagnostics: {len(rec.diagnostics)}",
    ]
    lines.extend(f"  {d}" for d in rec.diagnostics)
    return "".join(line + "\n" for line in lines)


def _structured_report(rec: Recommendation) -> str:
    config = rec.configuration
    lines = [
        "format: idxminer.report.v1",
        f"strategy: {config.strategy.value}",
        f"minsup: {rec.minsup_used}",
        f"workload_statements: {rec.workload_size}",
    ]
    lines += [f"statements_{name}: {count}" for name, count in _kind_counts(rec)]
    lines += [
        f"diagnostics: {len(rec.diagnostics)}",
        f"candidates: {len(config.candidates)}",
        f"tables_touched: {len({c.table for c in config.candidates})}",
        f"total_estimated_bytes: {sum(size for _, _, size in config.rows)}",
    ]
    lines += ["\t".join(("candidate", *cells)) for cells in _cells(rec)]
    return "".join(line + "\n" for line in lines)


def parse_structured_report(
    text: str,
) -> tuple[dict[str, str], list[tuple[str, tuple[str, ...], int]]]:
    """Read back a structured report: header mapping plus candidate rows."""
    meta: dict[str, str] = {}
    rows: list[tuple[str, tuple[str, ...], int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("candidate\t"):
            fields = line.split("\t")
            if len(fields) != 7:
                raise ValueError(f"line {lineno}: malformed candidate row")
            columns = tuple(quoted.replace('""', '"') + bare
                            for quoted, bare in _DAT_COLUMN_RE.findall(fields[2]))
            rows.append((fields[1], columns, int(fields[3])))
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        meta[key] = value
    return meta, rows

