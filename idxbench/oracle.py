"""Output check for the idxminer benchmark, independent of idxminer.

``report.dat`` is read with this module's own parser, and every candidate's
support is recounted directly over the workload's reference attribute sets
(see ``workloads``). The check needs no code from the program under test.

Why a plain recount is exact: a candidate is the per-table fragment F of
some closed itemset, with the highest support among those itemsets. If the
closure of F added a column of F's table, no closed itemset could have F as
its fragment; so the closure of F itself has fragment F and support
supp(F), and the candidate's support is exactly the number of statements
whose attribute set contains F.
"""

from __future__ import annotations

import re

from workloads import KINDS, THRESHOLD_ROWS, Workload

_DDL_RE = re.compile(r"CREATE INDEX \w+ ON (\w+) \(([\w, ]+)\);\Z")


def parse_report_dat(text: str) -> tuple[dict[str, str], list[tuple[str, tuple[str, ...], int]]]:
    header: dict[str, str] = {}
    candidates = []
    for line in text.splitlines():
        if line.startswith("candidate\t"):
            fields = line.split("\t")
            if len(fields) != 7:
                raise ValueError(f"malformed candidate row {line!r}")
            candidates.append((fields[1], tuple(fields[2].split(",")), int(fields[3])))
        elif line:
            key, sep, value = line.partition(": ")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            header[key] = value
    return header, candidates


class Reference:
    """Per-attribute statement bitsets over a workload's reference sets."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.rows: dict[tuple[str, str], int] = {}
        for ordinal, attrs in enumerate(wl.planted):
            for attr in attrs:
                self.rows[attr] = self.rows.get(attr, 0) | (1 << ordinal)
        self.everyone = (1 << wl.statements) - 1

    def support(self, table: str, columns: tuple[str, ...]) -> int:
        mask = self.everyone
        for column in columns:
            mask &= self.rows.get((table, column), 0)
        return mask.bit_count()

    def check_outputs(self, ddl: str, report_dat: str) -> list[str]:
        """Problems in one run's recommendation.sql and report.dat; empty when right."""
        wl = self.wl
        try:
            header, candidates = parse_report_dat(report_dat)
        except ValueError as exc:
            return [str(exc)]
        indexes = [_DDL_RE.match(line) for line in ddl.splitlines()]
        problems = [] if all(indexes) else ["malformed CREATE INDEX line"]
        if [(m.group(1), tuple(m.group(2).split(", "))) for m in indexes if m] != \
                [(table, columns) for table, columns, _ in candidates]:
            problems.append("recommendation.sql does not list the report's candidates")
        expected = {
            "workload_statements": str(wl.statements),
            "minsup": str(wl.resolved_minsup() if wl.statements else 0),
            "diagnostics": "0",
            "candidates": str(len(candidates)),
        }
        expected.update({f"statements_{k}": str(wl.kinds.count(k)) for k in KINDS})
        problems += [
            f"{key}: expected {value}, got {header.get(key)}"
            for key, value in expected.items() if header.get(key) != value
        ]
        if wl.statements and not candidates:
            problems.append("no candidates")
        minsup = wl.resolved_minsup()
        large_only = wl.strategy == "large-tables"
        for table, columns, support in candidates:
            actual = self.support(table, columns)
            if support != actual:
                problems.append(f"{table}({','.join(columns)}): support {support}, "
                                f"recounted {actual}")
            if support < minsup:
                problems.append(f"{table}({','.join(columns)}): below minsup")
            if large_only and wl.row_counts.get(table, 0) < THRESHOLD_ROWS:
                problems.append(f"{table}: not a large table")
        return problems


def extraction_mismatches(wl: Workload, extracted: list[frozenset[tuple[str, str]]]) -> list[int]:
    """Ordinals whose extracted attribute set differs from the reference."""
    if len(extracted) != wl.statements:
        return list(range(wl.statements))
    return [i for i, (got, want) in enumerate(zip(extracted, wl.planted)) if got != want]
