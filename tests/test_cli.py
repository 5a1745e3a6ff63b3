from __future__ import annotations

import argparse
import errno
import io
import math
import os
import re
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

from idxminer.advisor import IndexCandidate, IndexConfiguration, Strategy
from idxminer.cli import ConfigError, FileError, _parse_minsup, _write, build_parser, main
from idxminer.report import emit_ddl, parse_structured_report
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


def old_minsup_rule(text):
    """``--minsup`` as read before plain decimals skipped ``Fraction``."""
    raw = text.strip()
    try:
        value = int(raw)
    except ValueError:
        value = Fraction(raw)
        if value > 1 and value.denominator == 1:
            value = int(value)
    if isinstance(value, int):
        if value < 1:
            raise ValueError("absolute minimum support must be >= 1")
    elif not 0 < value <= 1:
        raise ValueError("fractional minimum support must be in (0, 1]")
    return value


MINSUP_SPELLINGS = [
    f"{whole}{point}{digits}" for whole in ("", "0", "00", "1", "2", "10")
    for point in (".", "") for digits in ("", "0", "1", "05", "25", "5", "999", "0000000001")
] + ["1/4", "2/8", "10/1", "1/0", "2.5e-1", "1e1", "1e-1", "0.0_1", "1_0", " 0.5 ", "+0.5",
     "-0.5", "5.", ".", "abc", "", "0.5.5", "٠.٥", "0x1", "1.0e0"]


def test_minsup_reads_as_fraction_does():
    """Every spelling gives the old rule's count, the same fraction as a
    (numerator, denominator) pair, or the same error; each fraction resolves
    to the same threshold."""
    for text in MINSUP_SPELLINGS:
        try:
            expected = old_minsup_rule(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ConfigError) as raised:
                _parse_minsup(text)
            assert str(raised.value) == f"invalid --minsup {text!r}: {exc}"
            continue
        got = _parse_minsup(text)
        if isinstance(expected, int):
            assert type(got) is int and got == expected, text
            continue
        num, den = got
        assert Fraction(num, den) == expected, text
        for n in (1, 3, 7, 22, 100, 4400):
            assert -(-num * n // den) == math.ceil(expected * n), text


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
    args = fixture_args()
    args[args.index("--schema") + 1] = str(bad)
    for text, error in (("not a stanza\n", "line 1: column outside a TABLE stanza"),
                        ("TABLE\n a\n", "line 1: expected 'TABLE <name>'"),
                        ("TABLE t u\n a\n", "line 1: expected 'TABLE <name>'"),
                        ("TABLE t\n a b\n", "line 2: expected a single column name")):
        bad.write_text(text, encoding="utf-8")
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


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
    """The dump holds each table's closed sets: the candidates under
    ``--no-maximal-only``, read off their definition with no mining."""
    from bruteforce import candidates_bruteforce

    from idxminer.workload import extract_workload, parse_workload

    assert run(fixture_args("--mine-only")) == 0
    dumped = []
    for line in capsys.readouterr().out.splitlines():
        support, items = line.split("\t")
        pairs = [tuple(item.split(".")) for item in items.split(",")]
        assert len({table for table, _ in pairs}) == 1, line
        dumped.append((pairs[0][0], tuple(column for _, column in pairs), int(support)))
    assert dumped == sorted(dumped, key=lambda d: (d[0], -d[2], d[1]))

    queries = parse_workload(tpcr_workload_text)
    rows = [frozenset(ctx.items) for ctx in extract_workload(queries, tpcr_schema)]
    threshold = math.ceil(Fraction(1, 4) * len(queries))
    expected = candidates_bruteforce(rows, threshold, maximal_only=False)
    assert len({table for table, _, _ in dumped}) > 1
    assert len(dumped) == len(expected)
    assert {(t, frozenset(c), s) for t, c, s in dumped} == \
        {(t, frozenset(c), s) for t, c, s in expected}


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


def test_each_diagnostic_is_one_line_whatever_its_names_hold(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    statements = []
    for name in ("x\ny", "e\x1b[31m", "it's", "\r\x85\u2028"):
        q = '"' + name + '"'
        statements += [f"SELECT a FROM t WHERE t.{q} = 1", f"SELECT a FROM t WHERE {q} = 1",
                       f"SELECT a FROM t WHERE {q}.a = 1",
                       f"SELECT a FROM {q} WHERE {q}.a = 1",
                       f"SELECT a FROM t {q}, s {q} WHERE a = 1",
                       f"SELECT a FROM (SELECT a FROM t) {q} WHERE {q}.a = 1"]
    statements += ['SELECT a FROM t, s WHERE "e\x1bb" = 1', 'SELECT c FROM "u\x1bv" WHERE c = 1',
                   'SELECT c FROM t, "u\x1bv" WHERE "e\x1bb" = 1']
    workload.write_text(";\n".join(statements), encoding="utf-8", newline="")
    schema = tmp_path / "s.txt"
    schema.write_text('TABLE t\n a\n "e\x1bb"\n\nTABLE s\n "e\x1bb"\n\n'
                      'TABLE "u\x1bv"\n c\n "e\x1bb"\n', encoding="utf-8")
    stats = tmp_path / "stats.txt"
    stats.write_text("t\t10\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["--workload", str(workload), "--schema", str(schema), "--stats", str(stats),
            "--minsup", "1", "--out", str(out), "-v"]
    # Table names are escaped too: in missing statistics' error and in an ambiguous column.
    assert run([*args, "--strategy", "large-tables", "--threshold-rows", "0"]) == 1
    assert capsys.readouterr().err == "error: no statistics for table(s): 'u\\x1bv'\n"
    assert run(args) == 0
    count = int(parse_structured_report(
        (out / "report.dat").read_text(encoding="utf-8"))[0]["diagnostics"])
    assert count == 6 * 4 + 3
    stderr = capsys.readouterr().err
    assert len(stderr.split("\n")) == count + 1
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert report.split(f"diagnostics: {count}\n", 1)[1].split("\n") == \
        ["  " + line for line in stderr.split("\n")[:-1]] + [""]
    assert "ambiguous column 'e\\x1bb' (in tables 't', 'u\\x1bv')" in stderr
    for line in stderr.split("\n")[:-1]:
        assert line.isprintable() and "\r" not in line, line


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


@pytest.mark.parametrize("extra", [(), ("--mine-only",), ("--help",)])
def test_a_closed_stdout_exits_2_with_one_line(fixture_args, tmp_path, extra):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before launch, so every write fails
    try:
        done = run_cli_process(fixture_args(*extra), stdout=write_end)
    finally:
        os.close(write_end)
    reason = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    assert (done.returncode, done.stderr) == \
        (2, f"error: cannot write standard output: {reason}\n".encode())
    if not extra:
        for name in OUTPUT_FILES:
            assert (tmp_path / "out" / name).is_file()


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_a_failed_write_leaves_no_file_descriptor_open():
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stream:
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(FileError, match="^cannot write standard output: "):
            _write(stream, "text\n", "standard output")
        assert sorted(os.listdir("/proc/self/fd")) == before


def _close_stderr() -> None:
    os.close(2)  # as the shell's ``2>&-`` does: Python starts with no sys.stderr


def _read_only_stderr() -> None:
    os.close(2)  # fd 2 becomes a file no write succeeds on
    os.set_inheritable(os.open(os.devnull, os.O_RDONLY), True)


@pytest.mark.parametrize("stderr", [_close_stderr, _read_only_stderr],
                         ids=["closed", "read-only"])
@pytest.mark.parametrize("extra, code", [
    ((), 0), (("-v",), 2), (("--workload", "missing.sql"), 2), (("--minsup", "0"), 1),
    (("--no-such-flag",), 1)], ids=["plain", "verbose", "missing", "minsup-0", "bad-flag"])
def test_a_closed_stderr_changes_no_exit_code(tmp_path, stderr, extra, code):
    """Diagnostics stderr cannot take are a file-level failure; a failure's
    message it cannot take leaves the failure's own code."""
    fixtures = WORKLOAD_PATH.parent
    args = ["--workload", str(fixtures / "diagnostics_workload.sql"),
            "--schema", str(fixtures / "diagnostics_schema.txt"),
            "--stats", str(fixtures / "diagnostics_stats.txt"),
            "--out", str(tmp_path / "out"), *extra]
    done = run_cli_process(args, preexec_fn=stderr)
    assert (done.returncode, done.stderr) == (code, b"")
    written = extra in ((), ("-v",))
    for name in OUTPUT_FILES:
        assert (tmp_path / "out" / name).is_file() == written
    assert done.stdout == ((tmp_path / "out" / "report.txt").read_bytes() if written else b"")


# Runs the CLI, then prints its exit code and which late-loaded modules it loaded.
_LATE_MODULES_AFTER_A_RUN = """\
import sys
from idxminer import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(sys.modules.keys() & {"hashlib", "_hashlib", "json",
                                          "fractions", "decimal", "_decimal"}))
"""


@pytest.mark.parametrize("case, minsup, loaded", [
    ("tpcr", "1", set()), ("tpcr", "2", set()), ("tpcr", "0.1", set()),
    ("tpcr", "1/10", {"fractions", "decimal"}), ("tpcr", "2.5e-1", {"fractions", "decimal"}),
    ("long-name", "1", {"hashlib"}), ("collision", "1", {"hashlib", "json"})],
    ids=["tpcr", "count", "fraction", "ratio", "exponent", "long-name", "collision"])
def test_only_a_name_needing_a_digest_loads_hashlib_and_json(tmp_path, case, minsup, loaded):
    """The digest modules load only when a name is cut or clashes, and the
    names match what ``emit_ddl`` gives in this process; ``fractions`` and
    ``decimal`` load only for a ``--minsup`` that is neither a whole number
    nor a plain decimal. A child interpreter checks, as pytest itself loads
    these modules."""
    if case == "tpcr":
        workload, schema = WORKLOAD_PATH, SCHEMA_PATH
    else:
        workload, schema = tmp_path / "w.sql", tmp_path / "s.txt"
        if case == "long-name":
            schema.write_text("TABLE customer_demographics_history\n"
                              " preferred_contact_channel\n household_income_band\n",
                              encoding="utf-8")
            workload.write_text("SELECT * FROM customer_demographics_history"
                                " WHERE preferred_contact_channel = 1"
                                " AND household_income_band = 2;", encoding="utf-8")
        else:
            schema.write_text("TABLE t\n a\n b\n a_b\n", encoding="utf-8")
            workload.write_text("SELECT a FROM t WHERE a = 1 AND b = 2;"
                                "SELECT a FROM t WHERE a_b = 3;", encoding="utf-8")
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LATE_MODULES_AFTER_A_RUN,
         "--workload", str(workload), "--schema", str(schema), "--minsup", minsup,
         "--out", str(out)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    code, *modules = done.stdout.decode().splitlines()[-1].split()
    assert code == "0", done.stderr
    assert {"hashlib", "json", "fractions", "decimal"} & set(modules) == loaded
    assert loaded or modules == []  # not even _hashlib or _decimal
    _, rows = parse_structured_report((out / "report.dat").read_text(encoding="utf-8"))
    ddl = emit_ddl(IndexConfiguration(Strategy.ALL, tuple(
        (IndexCandidate(table, columns, support), 0.0, 0) for table, columns, support in rows)))
    assert (out / "recommendation.sql").read_bytes() == ddl.encode("utf-8")
    names = [line.split()[2] for line in ddl.splitlines()]
    assert len(set(names)) == len(names)
    if "hashlib" in loaded:
        assert any(re.search(r"_[0-9a-f]{6}\Z", name) for name in names)


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


def test_column_named_like_a_datetime_word_is_quoted_in_ddl(tmp_path, capsys):
    workload = tmp_path / "w.sql"
    workload.write_text("SELECT k FROM t WHERE t.date = 1 AND k = 2;\n", encoding="utf-8")
    schema = tmp_path / "s.txt"
    schema.write_text("TABLE t\n date\n k\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["--workload", str(workload), "--schema", str(schema),
                "--minsup", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ddl = (out / "recommendation.sql").read_text(encoding="utf-8")
    assert ddl == 'CREATE INDEX idx_t_date_k ON t ("date", k);\n'
    (statement,) = split_statements(ddl)
    names = [canonical_identifier(value, quoted=kind == "qident")
             for kind, value, _ in scan(statement) if kind in ("ident", "qident")]
    assert names[4:] == ["t", "date", "k"]


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


# -- every failure, pinned: exit code, exact stderr, empty stdout ----------------


def error_text(provoke) -> str:
    """The text of the OSError or UnicodeDecodeError that ``provoke`` raises."""
    try:
        provoke()
    except (OSError, UnicodeDecodeError) as exc:
        return str(exc)
    raise AssertionError("nothing was raised")


def failure_case(name: str, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
                 request: pytest.FixtureRequest) -> tuple[list[str], int, str]:
    """(argv, exit code, stderr) of one failing run, its input files or its
    standard output made."""
    usage = build_parser().format_usage()
    fixture = ["--workload", str(WORKLOAD_PATH), "--schema", str(SCHEMA_PATH),
               "--stats", str(STATS_PATH), "--out", str(tmp_path / "out")]
    if name == "no-arguments":
        return [], 1, usage + ("error: the following arguments are required: "
                               "--workload, --schema\n")
    if name == "unknown-flag":
        return [*fixture, "--frobnicate"], 1, \
            usage + "error: unrecognized arguments: --frobnicate\n"
    if name == "bad-strategy":
        return [*fixture, "--strategy", "sideways"], 1, usage + (
            "error: argument --strategy: invalid choice: 'sideways' "
            "(choose from 'all', 'large-tables')\n")
    simple = {
        "minsup-zero": (["--minsup", "0"],
                        "invalid --minsup '0': absolute minimum support must be >= 1"),
        "minsup-text": (["--minsup", "abc"],
                        "invalid --minsup 'abc': Invalid literal for Fraction: 'abc'"),
        "threshold-rows-negative": (["--threshold-rows", "-1"],
                                    "--threshold-rows must be >= 0"),
        "policy-unknown": (["--policy", "x"], "unknown extraction positions: ['x']"),
        "policy-empty": (["--policy", ","], "the extraction policy names no position"),
    }
    if name in simple:
        extra, error = simple[name]
        return [*fixture, *extra], 1, f"error: {error}\n"
    if name == "help-stdout-closed":
        monkeypatch.setattr(sys, "stdout", None)  # as when fd 1 is closed at start
        return ["--help"], 2, "error: cannot write standard output: it is closed\n"
    if name == "help-into-a-closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        stream = open(write_end, "w", encoding="utf-8")
        request.addfinalizer(stream.close)
        monkeypatch.setattr(sys, "stdout", stream)
        reason = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return ["--help"], 2, f"error: cannot write standard output: {reason}\n"
    if name == "large-tables-without-stats":
        return [*fixture[:4], *fixture[6:], "--strategy", "large-tables"], 1, \
            "error: --strategy large-tables requires --stats\n"
    if name == "stats-missing-a-table":
        partial = tmp_path / "stats.txt"
        partial.write_text("lineitem\t6000000\t120\n", encoding="utf-8")
        return [*fixture[:5], str(partial), *fixture[6:], "--minsup", "0.25",
                "--strategy", "large-tables"], 1, \
            "error: no statistics for table(s): 'customer', 'orders'\n"
    if name in ("workload-missing", "workload-directory", "workload-not-utf8"):
        path = tmp_path / "w.sql"
        if name == "workload-directory":
            path.mkdir()
        elif name == "workload-not-utf8":
            path.write_bytes(b"SELECT a FROM t;\n\xff\xfe")
        argv = ["--workload", str(path), *fixture[2:]]
        reason = error_text(lambda: path.read_text(encoding="utf-8-sig"))
        if name == "workload-not-utf8":
            return argv, 2, f"error: workload file {str(path)!r} is not UTF-8: {reason}\n"
        return argv, 2, f"error: cannot read workload file {str(path)!r}: {reason}\n"
    if name == "schema-malformed":
        bad = tmp_path / "s.txt"
        bad.write_text("not a stanza\n", encoding="utf-8")
        return [*fixture[:3], str(bad), *fixture[4:]], 2, \
            "error: line 1: column outside a TABLE stanza\n"
    if name == "schema-empty-name":
        bad = tmp_path / "s.txt"
        bad.write_text('TABLE t\n    a\n\nTABLE ""\n    b\n', encoding="utf-8")
        return [*fixture[:3], str(bad), *fixture[4:]], 2, \
            "error: line 4: empty table name\n"
    if name == "stats-malformed":
        bad = tmp_path / "stats.txt"
        bad.write_text("lineitem\tlots\n", encoding="utf-8")
        return [*fixture[:5], str(bad), *fixture[6:]], 2, \
            "error: line 1: counts must be integers\n"
    if name == "stats-empty-name":
        bad = tmp_path / "stats.txt"
        bad.write_text('lineitem\t10\n""\t5\n', encoding="utf-8")
        return [*fixture[:5], str(bad), *fixture[6:]], 2, \
            "error: line 2: empty table name\n"
    assert name == "out-unwritable"
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "sub"
    reason = error_text(lambda: out.mkdir(parents=True, exist_ok=True))
    return [*fixture[:7], str(out)], 2, \
        f"error: cannot write output to {str(out)!r}: {reason}\n"


FAILURES = ["no-arguments", "unknown-flag", "bad-strategy", "minsup-zero", "minsup-text",
            "large-tables-without-stats", "threshold-rows-negative",
            "policy-unknown", "policy-empty", "workload-missing", "workload-directory",
            "workload-not-utf8", "schema-malformed", "schema-empty-name", "stats-malformed",
            "stats-empty-name", "stats-missing-a-table", "out-unwritable",
            "help-stdout-closed", "help-into-a-closed-pipe"]


@pytest.mark.parametrize("name", FAILURES)
def test_every_failure_exits_with_its_code_and_message(tmp_path, capsys, monkeypatch,
                                                       request, name):
    argv, code, stderr = failure_case(name, tmp_path, monkeypatch, request)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert captured.out == ""
    if name != "out-unwritable":
        # Only the write stage makes the output directory.
        assert not (tmp_path / "out").exists()


def test_help_exits_0_with_the_help_text(capsys):
    assert run(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out == build_parser().format_help()
    assert captured.err == ""


def test_readme_flags_table_names_the_parser_options():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Flags\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert table[0].startswith("| flag |")
    documented = {option for row in table[2:]
                  for option in re.findall(r"(?<![\w-])--?[a-z][\w-]*",
                                           row[2:].split(" | ", 1)[0])}
    options = {option for action in build_parser()._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
    assert sorted(documented) == sorted(options)
