"""Rendering of a recommendation: CREATE INDEX DDL and reports.

Two report forms share one underlying recommendation:

* ``text``: human-readable summary printed to stdout and written to
  ``report.txt``.
* ``structured``: a line-oriented form (``report.dat``) meant for scripts.
  Header lines are ``key: value``; each candidate is one tab-separated row::

      candidate<TAB>table<TAB>col,col<TAB>support<TAB>ratio<TAB>score<TAB>bytes

  ``parse_structured_report`` reads the form back; the candidate triple
  (table, columns, support) round-trips exactly.

All output is deterministic: fixed float precision, canonical ordering, no
timestamps.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

from .advisor import IndexCandidate, IndexConfiguration

NAME_PREFIX = "idx"
MAX_INDEX_NAME_LENGTH = 60
_NAME_HASH_DIGITS = 6

_PLAIN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Recommendation:
    configuration: IndexConfiguration
    minsup_used: int
    workload_summary: dict[str, int]
    diagnostics: tuple[str, ...]

    @property
    def workload_size(self) -> int:
        return sum(self.workload_summary.values())


def _sql_name(identifier: str) -> str:
    """Quote identifiers that stray outside the plain identifier alphabet."""
    if _PLAIN_IDENT.match(identifier):
        return identifier
    return '"' + identifier.replace('"', '""') + '"'


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
    the candidate's exact table and columns instead, so names stay unique.
    """
    lines = []
    taken: set[str] = set()
    for candidate in configuration.candidates:
        name = index_name(candidate)
        if name in taken:
            name = _with_digest(name, json.dumps([candidate.table, *candidate.columns]))
        taken.add(name)
        columns = ", ".join(_sql_name(c) for c in candidate.columns)
        lines.append(
            f"CREATE INDEX {name} ON {_sql_name(candidate.table)} ({columns});"
        )
    return "".join(line + "\n" for line in lines)


_KIND_ORDER = ("select", "update", "delete", "insert", "other")


def emit_report(recommendation: Recommendation, format: str = "text") -> str:
    if format == "text":
        return _text_report(recommendation)
    if format == "structured":
        return _structured_report(recommendation)
    raise ValueError(f"unknown report format {format!r}")


def _ratio(support: int, workload_size: int) -> float:
    return support / workload_size if workload_size else 0.0


def _text_report(rec: Recommendation) -> str:
    config = rec.configuration
    size = rec.workload_size
    kinds = " ".join(
        f"{kind}={rec.workload_summary.get(kind, 0)}" for kind in _KIND_ORDER
    )
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
        header = ("#", "table", "columns", "support", "ratio", "score", "est_bytes")
        rows = [header]
        for rank, candidate in enumerate(config.candidates, start=1):
            rows.append((
                str(rank),
                candidate.table,
                ",".join(candidate.columns),
                str(candidate.support),
                f"{_ratio(candidate.support, size):.4f}",
                f"{config.scores[rank - 1]:.6f}",
                str(config.est_bytes[rank - 1]),
            ))
        widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
        for row in rows:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)).rstrip())
    totals = config.totals
    lines += [
        "",
        f"totals: {totals.candidate_count} candidates on "
        f"{totals.tables_touched} tables, ~{totals.estimated_bytes} bytes estimated",
        f"diagnostics: {len(rec.diagnostics)}",
    ]
    lines.extend(f"  {d}" for d in rec.diagnostics)
    return "".join(line + "\n" for line in lines)


def _structured_report(rec: Recommendation) -> str:
    config = rec.configuration
    size = rec.workload_size
    lines = [
        "format: idxminer.report.v1",
        f"strategy: {config.strategy.value}",
        f"minsup: {rec.minsup_used}",
        f"workload_statements: {size}",
    ]
    lines += [
        f"statements_{kind}: {rec.workload_summary.get(kind, 0)}"
        for kind in _KIND_ORDER
    ]
    lines += [
        f"diagnostics: {len(rec.diagnostics)}",
        f"candidates: {len(config.candidates)}",
        f"tables_touched: {config.totals.tables_touched}",
        f"total_estimated_bytes: {config.totals.estimated_bytes}",
    ]
    for i, candidate in enumerate(config.candidates):
        lines.append("\t".join((
            "candidate",
            candidate.table,
            ",".join(candidate.columns),
            str(candidate.support),
            f"{_ratio(candidate.support, size):.4f}",
            f"{config.scores[i]:.6f}",
            str(config.est_bytes[i]),
        )))
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
            rows.append((fields[1], tuple(fields[2].split(",")), int(fields[3])))
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        meta[key] = value
    return meta, rows
