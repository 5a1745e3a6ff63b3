from __future__ import annotations

import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SCHEMA_PATH, SQL_WORDS, SRC, STATS_PATH, WORKLOAD_PATH,
                      run_cli_process)

from idxminer.cli import main
from idxminer.report import parse_structured_report
from idxminer.workload import canonical_identifier, parse_workload, scan, split_statements

OUTPUT_FILES = ("recommendation.sql", "report.txt", "report.dat")


def run(args):
    return main(args)


def test_fixture_run_succeeds(fixture_args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(fixture_args(out=out)) == 0
    for name in OUTPUT_FILES:
        assert (out / name).exists()
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    assert "CREATE INDEX" in ddl
    stdout = capsys.readouterr().out
    assert stdout == (out / "report.txt").read_text(encoding="utf-8")


def test_missing_workload_path_exits_2(fixture_args, capsys):
    args = fixture_args()
    args[args.index("--workload") + 1] = "/nonexistent/workload.sql"
    assert run(args) == 2


def test_large_tables_without_stats_exits_1(tmp_path, capsys):
    assert run([
        "--workload", str(WORKLOAD_PATH),
        "--schema", str(SCHEMA_PATH),
        "--strategy", "large-tables",
        "--out", str(tmp_path / "out"),
    ]) == 1


def test_minsup_zero_exits_1(fixture_args, capsys):
    assert run(fixture_args("--minsup", "0")) == 1


def test_minsup_above_one_exits_1(fixture_args, capsys):
    assert run(fixture_args("--minsup", "1.5")) == 1


def test_tiny_fractional_minsup_resolves_to_one(fixture_args, capsys):
    assert run(fixture_args("--minsup", "0.0000000001")) == 0
    assert "minimum support: 1 of 22 statements\n" in capsys.readouterr().out


def test_minsup_in_exponent_notation(fixture_args, capsys):
    assert run(fixture_args("--minsup", "1e-1")) == 0
    assert "minimum support: 3 of 22 statements\n" in capsys.readouterr().out


@pytest.mark.parametrize("spelling, count", [
    ("1e1", 10), ("10/1", 10), ("2.0", 2), ("1.0", 22),
])
def test_whole_minsup_above_one_is_a_count(fixture_args, capsys, spelling, count):
    # "1.0" stays the fraction 1, which resolves to every statement.
    assert run(fixture_args("--minsup", spelling)) == 0
    assert f"minimum support: {count} of 22 statements\n" in capsys.readouterr().out


def test_unknown_flag_exits_1(fixture_args, capsys):
    assert run(fixture_args("--frobnicate")) == 1


def test_bad_strategy_exits_1(fixture_args, capsys):
    assert run(fixture_args("--strategy", "sideways")) == 1


def test_unknown_dialect_exits_1(fixture_args, capsys):
    assert run(fixture_args("--dialect", "tsql")) == 1


def test_bad_policy_position_exits_1(fixture_args, capsys):
    assert run(fixture_args("--policy", "where,sideways")) == 1


@pytest.mark.parametrize("spelling", [",", " , ", ""])
def test_policy_naming_no_position_exits_1(fixture_args, capsys, spelling):
    assert run(fixture_args("--policy", spelling)) == 1
    assert "names no position" in capsys.readouterr().err


def test_policy_blank_entries_are_skipped(fixture_args, tmp_path, capsys):
    for spelling, out in (("where,,join", "blanks"), ("where,join", "plain")):
        assert run(fixture_args("--policy", spelling, out=tmp_path / out)) == 0
    for name in OUTPUT_FILES:
        assert ((tmp_path / "blanks" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


def test_malformed_schema_exits_2(fixture_args, tmp_path, capsys):
    bad = tmp_path / "schema.txt"
    bad.write_text("not a stanza\n", encoding="utf-8")
    args = fixture_args()
    args[args.index("--schema") + 1] = str(bad)
    assert run(args) == 2


def test_malformed_stats_exits_2(fixture_args, tmp_path, capsys):
    bad = tmp_path / "stats.txt"
    args = fixture_args()
    args[args.index("--stats") + 1] = str(bad)
    # the third column is unused but must still be a positive integer
    for line in ("lineitem\tlots\n", "lineitem\t10\t0\n"):
        bad.write_text(line, encoding="utf-8")
        assert run(args) == 2


def test_stats_missing_candidate_table_under_large_tables_exits_1(
    fixture_args, tmp_path, capsys
):
    partial = tmp_path / "stats.txt"
    partial.write_text("lineitem\t6000000\t120\n", encoding="utf-8")
    args = fixture_args("--strategy", "large-tables")
    args[args.index("--stats") + 1] = str(partial)
    assert run(args) == 1
    assert "no statistics" in capsys.readouterr().err


def test_statement_diagnostics_keep_exit_zero(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text(
        "SELECT a FROM t WHERE t.b = 1;\nTHIS IS NOT SQL;\n", encoding="utf-8"
    )
    schema = tmp_path / "s.txt"
    schema.write_text("TABLE t\n a\n b\n", encoding="utf-8")
    assert run([
        "--workload", str(workload),
        "--schema", str(schema),
        "--minsup", "1",
        "--out", str(tmp_path / "out"),
    ]) == 0


def test_empty_workload_is_success(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text("-- nothing here\n", encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text("TABLE t\n a\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([
        "--workload", str(workload),
        "--schema", str(schema),
        "--out", str(out),
    ]) == 0
    assert (out / "recommendation.sql").read_text(encoding="utf-8") == ""


def test_two_runs_are_byte_identical(fixture_args, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(fixture_args(out=out_a)) == 0
    assert run(fixture_args(out=out_b)) == 0
    for name in OUTPUT_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_mine_only_dump_matches_bruteforce_oracle(fixture_args, capsys, tpcr_schema,
                                                  tpcr_workload_text):
    from bruteforce import mine_bruteforce

    from idxminer.advisor import build_database
    from idxminer.miner import MinSupport, TransactionDatabase
    from idxminer.workload import extract_workload, parse_workload

    assert run(fixture_args("--mine-only")) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    dumped = [
        (int(line.split("\t")[0]), tuple(line.split("\t")[1].split(",")))
        for line in lines
    ]
    supports = [s for s, _ in dumped]
    assert supports == sorted(supports, reverse=True)

    queries = parse_workload(tpcr_workload_text)
    db, items_by_id = build_database(extract_workload(queries, tpcr_schema))
    threshold = MinSupport(Fraction(1, 4)).resolve(len(queries))
    frequent = {
        i for i in db.universe
        if sum(c for row, c in zip(db.transactions, db.counts) if i in row) >= threshold
    }
    projected = TransactionDatabase.from_transactions(
        [row & frequent for row in db.transactions], db.counts
    )
    expected = [
        (c.support, tuple(str(items_by_id[i]) for i in c.items))
        for c in mine_bruteforce(projected, MinSupport(threshold))
    ]
    assert dumped == expected


def test_mine_only_empty_workload(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text("", encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text("TABLE t\n a\n", encoding="utf-8")
    assert run([
        "--workload", str(workload),
        "--schema", str(schema),
        "--mine-only",
    ]) == 0
    assert capsys.readouterr().out == ""


def test_no_maximal_only_keeps_subsumed_candidates(fixture_args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(fixture_args("--no-maximal-only", out=out)) == 0
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    # with subsumption off the single-column o_orderdate index survives
    assert "CREATE INDEX idx_orders_o_orderdate ON orders (o_orderdate);" in ddl
    assert "ON orders (o_orderdate, o_custkey);" in ddl


def test_policy_flag_changes_extraction(fixture_args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(fixture_args("--policy", "join", out=out)) == 0
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    assert "l_shipdate" not in ddl  # WHERE-only column disappears under join-only policy


def test_large_tables_strategy_drops_small_tables(fixture_args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(fixture_args("--strategy", "large-tables", out=out)) == 0
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    assert "ON customer" in ddl and "ON lineitem" in ddl


def test_out_dir_from_environment(fixture_args, tmp_path, capsys, monkeypatch):
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("IDXMINER_OUT", str(env_out))
    args = fixture_args()
    del args[args.index("--out") + 1]
    args.remove("--out")
    assert run(args) == 0
    assert (env_out / "recommendation.sql").exists()


def test_verbose_prints_diagnostics_to_stderr(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text("SELECT a FROM t WHERE ghost = 1;", encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text("TABLE t\n a\n", encoding="utf-8")
    assert run([
        "--workload", str(workload),
        "--schema", str(schema),
        "--out", str(tmp_path / "out"),
        "-v",
    ]) == 0
    assert "ghost" in capsys.readouterr().err


def run_on(tmp_path, sql, *extra):
    """Run the CLI on one workload text against a two-column table t."""
    workload = tmp_path / "w.sql"
    workload.write_text(sql, encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text("TABLE t\n a\n b\n", encoding="utf-8")
    return run(["--workload", str(workload), "--schema", str(schema),
                "--minsup", "1", "--out", str(tmp_path / "out"), *extra])


def test_non_ascii_outside_quotes_is_other_not_a_crash(tmp_path, capsys):
    sql = ("SELECT é FROM t;\n"
           "SELECT a FROM t WHERE t.b = ²;\n"
           "SELECT a FROM t WHERE t.a = 'é';\n")
    assert run_on(tmp_path, sql, "--mine-only", "-v") == 0
    captured = capsys.readouterr()
    assert captured.out == "1\tt.a\n"
    assert "statement 0: unexpected character 'é'" in captured.err
    assert "statement 1: unexpected character '²'" in captured.err


def test_stdout_escapes_what_its_encoding_cannot_hold(tmp_path):
    workload = tmp_path / "w.sql"
    workload.write_text('SELECT é FROM t;\nSELECT a FROM t WHERE t."café" = 1;\n',
                        encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text('TABLE t\n a\n "café"\n', encoding="utf-8")
    args = ["--workload", str(workload), "--schema", str(schema), "--minsup", "1"]
    out = tmp_path / "out"
    done = run_cli_process([*args, "--out", str(out), "-v"], PYTHONIOENCODING="ascii")
    assert done.returncode == 0, done.stderr
    report = (out / "report.txt").read_bytes()
    assert "statement 0: unexpected character 'é'".encode("utf-8") in report
    assert done.stdout == report.decode("utf-8").replace("é", "\\xe9").encode("ascii")
    assert b"statement 0: unexpected character '\\xe9'" in done.stderr
    done = run_cli_process([*args, "--mine-only"], PYTHONIOENCODING="ascii")
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"1\tt.caf\\xe9\n"
    done = run_cli_process([*args, "--out", str(tmp_path / "utf8")],
                           PYTHONIOENCODING="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout == report


def test_quoted_names_in_schema_and_stats_files(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text('SELECT * FROM t WHERE t."Odd-Name" = 1 AND t."order" = 2;\n'
                        'SELECT * FROM "Big-T" WHERE "Order" = 3;\n', encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text('TABLE t\n "Odd-Name"\n "order"\n\nTABLE "Big-T"\n "Order"\n',
                      encoding="utf-8")
    stats = tmp_path / "stats.txt"
    stats.write_text('t\t200000\n"Big-T"\t300000\n', encoding="utf-8")
    out = tmp_path / "out"
    args = ["--workload", str(workload), "--schema", str(schema), "--minsup", "1", "-v"]
    assert run([*args, "--mine-only"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\tBig-T.order\n1\tt.Odd-Name,t.order\n"
    assert captured.err == ""
    assert run([*args, "--stats", str(stats), "--strategy", "large-tables",
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    assert 'ON "Big-T" ("order");' in ddl
    assert 'ON t ("Odd-Name", "order");' in ddl
    assert [q.parse_error for q in parse_workload(ddl)] == [None, None]
    # CREATE INDEX <name> ON <table> (<columns>), names read as queries read them.
    targets = []
    for statement in split_statements(ddl):
        names = [canonical_identifier(value, quoted=kind == "qident")
                 for kind, value, _ in scan(statement) if kind in ("ident", "qident")]
        targets.append((names[4], tuple(names[5:])))
    _, rows = parse_structured_report((out / "report.dat").read_text(encoding="utf-8"))
    assert targets == [(table, columns) for table, columns, _ in rows]


def test_report_dat_round_trips_a_column_name_holding_a_comma(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text('SELECT c FROM t WHERE "a,b" = 1 AND c = 2;\n'
                        'SELECT c FROM t WHERE "a,b" = 3;\n', encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text('TABLE t\n "a,b"\n c\n', encoding="utf-8")
    out = tmp_path / "out"
    assert run(["--workload", str(workload), "--schema", str(schema),
                "--minsup", "1", "--out", str(out)]) == 0
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    assert ddl == 'CREATE INDEX idx_t_a_b_c ON t ("a,b", c);\n'
    dat = (out / "report.dat").read_text(encoding="utf-8")
    assert 'candidate\tt\t"a,b",c\t1\t' in dat
    _, rows = parse_structured_report(dat)
    assert rows == [("t", ("a,b", "c"), 1)]


DEEP_STATEMENTS = {
    "parentheses": "SELECT a FROM t WHERE " + "(" * 400 + "t.b = 1" + ")" * 400,
    "in-subqueries": "SELECT a FROM t WHERE "
                     + "t.b IN (SELECT b FROM t WHERE " * 200 + "t.b = 1" + ")" * 200,
    "not-chain": "SELECT a FROM t WHERE " + "NOT " * 3000 + "t.b = 1",
    "sign-chain": "SELECT a FROM t WHERE t.b = " + "- " * 3000 + "1",
}


@pytest.mark.parametrize("name", sorted(DEEP_STATEMENTS))
def test_deep_nesting_is_other_not_a_crash(tmp_path, capsys, name):
    sql = DEEP_STATEMENTS[name] + ";\nSELECT a FROM t WHERE t.a = 1;\n"
    assert run_on(tmp_path, sql, "--mine-only", "-v") == 0
    captured = capsys.readouterr()
    assert captured.out == "1\tt.a\n"
    assert "statement 0: nesting too deep" in captured.err


def test_long_or_chain_extracts_its_column(tmp_path, capsys):
    sql = "SELECT a FROM t WHERE " + " OR ".join(f"t.b = {i}" for i in range(3000))
    assert run_on(tmp_path, sql + ";", "--mine-only") == 0
    assert capsys.readouterr().out == "1\tt.b\n"


def test_byte_order_marks_are_skipped(tmp_path, capsys):
    bom = "\ufeff"
    workload = tmp_path / "w.sql"
    workload.write_text(bom + "SELECT a FROM t WHERE t.a = 1;\n"
                        "SELECT a FROM t WHERE t.a = 2 AND t.b = 3;\n", encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text(bom + "TABLE t\n a\n b\n", encoding="utf-8")
    stats = tmp_path / "stats.txt"
    stats.write_text(bom + "t\t200000\n", encoding="utf-8")
    args = ["--workload", str(workload), "--schema", str(schema), "--minsup", "1"]
    assert run([*args, "--mine-only", "-v"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2\tt.a\n1\tt.a,t.b\n"
    assert captured.err == ""
    assert run([*args, "--stats", str(stats), "--strategy", "large-tables",
                "--out", str(tmp_path / "out")]) == 0
    assert "ON t (a, b)" in (tmp_path / "out" / "recommendation.sql").read_text(
        encoding="utf-8")


@pytest.mark.parametrize("under", ["", "sub"])
def test_unwritable_out_exits_2(fixture_args, tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    assert run(fixture_args(out=blocker / under)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output")
    assert captured.out == ""
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_importing_the_cli_builds_no_dataclass():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import idxminer.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-B", "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Arbitrary text, SQL words and fragments that resolve against the TPC-R schema.
TPCR_FRAGMENTS = ["SELECT * FROM lineitem l, orders WHERE ", "l.l_orderkey = o_orderkey",
                  " l_shipdate < date '1998-09-02'", " GROUP BY l_returnflag", ";"]
any_workload = st.lists(st.one_of(st.text(max_size=8),
                                  st.sampled_from(SQL_WORDS + TPCR_FRAGMENTS)),
                        max_size=40).map("".join)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(any_workload)
def test_any_workload_text_runs_to_a_recommendation(text):
    with tempfile.TemporaryDirectory() as work:
        workload = Path(work) / "w.sql"
        workload.write_bytes(text.encode("utf-8"))
        out = Path(work) / "out"
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(["--workload", str(workload), "--schema", str(SCHEMA_PATH),
                         "--stats", str(STATS_PATH), "--minsup", "1", "--out", str(out)])
        assert code == 0
        assert stdout.getvalue() == (out / "report.txt").read_text(encoding="utf-8")
        parse_structured_report((out / "report.dat").read_text(encoding="utf-8"))
        assert (out / "recommendation.sql").is_file()
