"""Index candidates against ``candidates_bruteforce``, which mines nothing.

The program mines each table's projection of the workload and turns each
closed set into a candidate. The oracle enumerates every column set of
every table instead. They are compared on seeded databases and on
generated workloads run through the CLI, under both filter settings.
"""

from __future__ import annotations

import io
import math
import random
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import candidates_bruteforce

from idxminer import miner
from idxminer.advisor import build_database, derive_candidates, mine_tables
from idxminer.cli import main
from idxminer.report import parse_structured_report
from idxminer.workload import AttributeItem, TransactionContext


def resolve(minsup: int | Fraction, n: int) -> int:
    """A count stays; a fraction f of ``n`` statements is ceil(f * n)."""
    return minsup if isinstance(minsup, int) else math.ceil(minsup * n)


def program_candidates(rows, threshold: int, maximal_only: bool):
    db, items_by_id = build_database([
        TransactionContext(q, frozenset(AttributeItem(*pair) for pair in row))
        for q, row in enumerate(rows)])
    closed = mine_tables(db, items_by_id, threshold, maximal_only)
    return [(c.table, c.columns, c.support)
            for c in derive_candidates(closed, db, items_by_id)]


def test_candidates_match_the_oracle_on_seeded_databases():
    rng = random.Random(1602)
    for _ in range(600):
        tables = {f"t{k}": [f"c{j}" for j in range(rng.randint(1, 6))]
                  for k in range(rng.randint(1, 4))}
        density = rng.uniform(0.1, 0.8)
        rows = [frozenset((t, c) for t, columns in tables.items() for c in columns
                          if rng.random() < density)
                for _ in range(rng.randint(1, 40))]
        minsup = rng.choice([rng.randint(1, 3), Fraction(rng.randint(1, 4), 10)])
        threshold = resolve(minsup, len(rows))
        for maximal_only in (True, False):
            assert program_candidates(rows, threshold, maximal_only) == \
                candidates_bruteforce(rows, threshold, maximal_only)


# Generated workloads: each SELECT plants a set of columns on three tables.
TABLES = {"ta": ("a0", "a1", "a2", "a3"), "tb": ("b0", "b1", "b2"), "tc": ("c0", "c1")}
SCHEMA = "".join(f"TABLE {t}\n" + "".join(f"    {c}\n" for c in cols) + "\n"
                 for t, cols in TABLES.items())
STATS = "".join(f"{t}\t{1000 * (k + 1)}\n" for k, t in enumerate(TABLES))
COLUMNS = [(t, c) for t, cols in TABLES.items() for c in cols]


@st.composite
def planted_statement(draw):
    """SQL text and the (table, column) pairs it plants."""
    kind = draw(st.sampled_from(["select", "select", "select", "insert", "other"]))
    if kind == "insert":
        return "INSERT INTO ta VALUES (1)", frozenset()
    if kind == "other":
        return "VACUUM ta", frozenset()
    planted = frozenset(draw(st.lists(st.sampled_from(COLUMNS), max_size=6)))
    tables = sorted({t for t, _ in planted} | {draw(st.sampled_from(sorted(TABLES)))})
    where = " AND ".join(f"{t}.{c} = 1" for t, c in sorted(planted))
    return (f"SELECT * FROM {', '.join(tables)}" + (f" WHERE {where}" if where else ""),
            planted)


MINSUPS = [("1", 1), ("2", 2), ("3", 3),
           ("0.1", Fraction(1, 10)), ("0.25", Fraction(1, 4)), ("1/3", Fraction(1, 3))]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.lists(planted_statement(), max_size=30), st.sampled_from(MINSUPS), st.booleans())
def test_report_matches_the_oracle_on_generated_workloads(statements, minsup, maximal_only):
    flag, value = minsup
    rows = [planted for _, planted in statements]
    threshold = resolve(value, len(rows)) if rows else 0
    with tempfile.TemporaryDirectory() as work:
        files = {"w.sql": "".join(f"{sql};\n" for sql, _ in statements),
                 "s.txt": SCHEMA, "st.txt": STATS}
        for name, text in files.items():
            (Path(work) / name).write_text(text, encoding="utf-8")
        args = ["--workload", f"{work}/w.sql", "--schema", f"{work}/s.txt",
                "--stats", f"{work}/st.txt", "--minsup", flag, "--out", f"{work}/out"]
        with redirect_stdout(io.StringIO()):
            assert main(args + ([] if maximal_only else ["--no-maximal-only"])) == 0
        header, got = parse_structured_report(
            (Path(work) / "out" / "report.dat").read_text(encoding="utf-8"))
        with redirect_stdout(io.StringIO()) as dump:
            assert main(args + ["--mine-only"]) == 0
    expected = candidates_bruteforce(rows, threshold, maximal_only)
    assert sorted(got) == sorted(expected)
    assert header["minsup"] == str(threshold)
    # The dump is the closed sets the candidates are read from: every
    # candidate of --no-maximal-only, as (table, column set, support).
    dumped = []
    for line in dump.getvalue().splitlines():
        support, items = line.split("\t")
        pairs = [item.split(".") for item in items.split(",")]
        dumped.append((pairs[0][0], frozenset(c for _, c in pairs), int(support)))
    assert Counter(dumped) == Counter(
        (t, frozenset(c), s) for t, c, s in candidates_bruteforce(rows, threshold, False))


def test_statements_off_a_table_count_in_a_fractional_threshold(tmp_path, capsys):
    """Thirty of the hundred statements touch ``t``; all hundred set the threshold.

    ``0.2`` of 100 statements is 20. Resolved over the 30 rows that touch
    ``t``, it would be 6, and t.(a, b), held by 10 rows, would pass.
    """
    sql = (["SELECT * FROM t WHERE t.a = 1"] * 20 + ["SELECT * FROM t WHERE t.a = 1 AND t.b = 2"]
           * 10 + ["SELECT * FROM s WHERE s.x = 1"] * 25 + ["INSERT INTO t VALUES (1)"] * 25
           + ["VACUUM t"] * 20)
    (tmp_path / "w.sql").write_text("".join(f"{q};\n" for q in sql), encoding="utf-8")
    (tmp_path / "s.txt").write_text("TABLE t\n a\n b\n\nTABLE s\n x\n", encoding="utf-8")
    (tmp_path / "st.txt").write_text("t\t1000\ns\t1000\n", encoding="utf-8")
    assert main(["--workload", str(tmp_path / "w.sql"), "--schema", str(tmp_path / "s.txt"),
                 "--stats", str(tmp_path / "st.txt"), "--minsup", "0.2",
                 "--no-maximal-only", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    header, rows = parse_structured_report(
        (tmp_path / "out" / "report.dat").read_text(encoding="utf-8"))
    assert header["minsup"] == "20"
    assert rows == [("t", ("a",), 30), ("s", ("x",), 25)]


@pytest.mark.parametrize("extra", [(), ("--mine-only",)], ids=["plain", "mine-only"])
def test_joins_of_four_tables_mine_a_bounded_number_of_closed_sets(tmp_path, monkeypatch,
                                                                    capsys, extra):
    """Every statement joins four 6-column tables with a varied predicate set.

    Each table's projection has at most 2**6 - 1 non-empty closed sets, so
    the count is bounded by the tables, not by their product: mining the
    whole workload's rows at once finds 2,583,033 closed sets here. The
    ``--mine-only`` dump mines and writes the same per-table sets.
    """
    rng = random.Random(4)
    tables = {f"j{k}": [f"c{j}" for j in range(6)] for k in range(4)}
    statements = []
    for _ in range(2000):
        where = [f"{t}.{c} = 1" for t, columns in tables.items()
                 for c in rng.sample(columns, rng.randint(1, 5))]
        statements.append(f"SELECT * FROM {', '.join(tables)} WHERE {' AND '.join(where)};\n")
    (tmp_path / "w.sql").write_text("".join(statements), encoding="utf-8")
    (tmp_path / "s.txt").write_text("".join(
        f"TABLE {t}\n" + "".join(f" {c}\n" for c in cols) + "\n"
        for t, cols in tables.items()), encoding="utf-8")
    mined = []
    real = miner.mine_closed

    def spy(db, threshold, maximal_only):
        mined.append(len(result := real(db, threshold, maximal_only)))
        return result

    monkeypatch.setattr(miner, "mine_closed", spy)
    assert main(["--workload", str(tmp_path / "w.sql"), "--schema", str(tmp_path / "s.txt"),
                 "--minsup", "2", "--out", str(tmp_path / "out"), *extra]) == 0
    stdout = capsys.readouterr().out
    assert len(mined) == 4
    assert sum(mined) <= 4 * (2 ** 6 - 1)
    if extra:
        assert stdout.count("\n") == sum(mined)
