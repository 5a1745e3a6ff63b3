"""Committed mutants that the checks must catch.

Each row names a module of the package, an exact fragment of its source, a
replacement and a check. The test compiles the module with the fragment
replaced, in memory, and runs the check on it: the check must fail. The
check must pass on the real module and on the unchanged source compiled the
same way, so the failure is the mutant's. A fragment that no longer occurs
once fails the test, so a refactor of a mutated line updates its row.
"""

from __future__ import annotations

import gc
import importlib
import io
import random
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bruteforce import candidates_bruteforce, mine_bruteforce
from conftest import SCHEMA_PATH, STATS_PATH, WORKLOAD_PATH
from test_memory import check_parse_memory, check_run_memory, check_split_memory

from idxminer.advisor import IndexCandidate, IndexConfiguration, Strategy
from idxminer.miner import TransactionDatabase
from idxminer.workload import AttributeItem, TransactionContext


def compiled(name: str, source: str) -> types.ModuleType:
    """``source`` run as a fresh copy of ``idxminer.<name>``."""
    real = importlib.import_module(f"idxminer.{name}")
    module = types.ModuleType(f"idxminer.{name}")
    module.__package__ = "idxminer"
    exec(compile(source, real.__file__, "exec"), module.__dict__)
    return module


def check_mine_closed(miner) -> None:
    """``mine_closed``, every closed set and only the maximal ones, against the
    brute-force oracle on counted rows."""
    rng = random.Random(13)
    for _ in range(200):
        width = rng.randint(1, 8)
        rows = [frozenset(i for i in range(width) if rng.random() < 0.5)
                for _ in range(rng.randint(1, 12))]
        db = TransactionDatabase.from_transactions(rows, [rng.randint(1, 3) for _ in rows])
        threshold = rng.randint(1, 6)
        for maximal_only in (False, True):
            assert miner.mine_closed(db, threshold, maximal_only) == \
                mine_bruteforce(db, threshold, maximal_only)


def check_candidates(advisor) -> None:
    """Mining and deriving against the candidate oracle, on repeated rows."""
    rng = random.Random(16)
    for _ in range(150):
        tables = {f"t{k}": [f"c{j}" for j in range(rng.randint(1, 5))]
                  for k in range(rng.randint(1, 3))}
        pool = [frozenset((t, c) for t, columns in tables.items() for c in columns
                          if rng.random() < 0.5) for _ in range(rng.randint(1, 6))]
        rows = [rng.choice(pool) for _ in range(rng.randint(1, 25))]
        threshold = rng.randint(1, 4)
        db, items_by_id = advisor.build_database([
            TransactionContext(q, frozenset(AttributeItem(*pair) for pair in row))
            for q, row in enumerate(rows)])
        for maximal_only in (True, False):
            closed = advisor.mine_tables(db, items_by_id, threshold, maximal_only)
            got = [(c.table, c.columns, c.support)
                   for c in advisor.derive_candidates(closed, db, items_by_id)]
            assert got == candidates_bruteforce(rows, threshold, maximal_only)


def check_default_threshold_rows(advisor) -> None:
    """README's default threshold, 100000 rows, is inclusive."""
    pool = [advisor.IndexCandidate(table, ("a",), 1) for table in ("edge", "below")]
    config = advisor.select(pool, advisor.Strategy.LARGE_TABLES,
                            {"edge": 100_000, "below": 99_999}, workload_size=2)
    assert [c.table for c in config.candidates] == ["edge"]


def check_replay(workload) -> None:
    """A replayed block's diagnostics go out under the replaying statement."""
    queries = workload.parse_workload("SELECT a FROM t WHERE ghost = 1;"
                                      "SELECT a FROM t WHERE ghost = 2;")
    diagnostics: list[str] = []
    workload.extract_workload(queries, workload.parse_schema("TABLE t\n a\n"),
                              diagnostics=diagnostics)
    assert diagnostics == [f"statement {n}: unresolvable column 'ghost'; skipped"
                           for n in (0, 1)]


def check_nesting(workload) -> None:
    """A statement nested too deep, by NOT or by signs, is a diagnostic, not a crash."""
    for lead in ("NOT ", "- "):
        (query,) = workload.parse_workload("SELECT a FROM t WHERE " + lead * 3000 + "t.a = 1")
        assert query.parse_error == "nesting too deep"


def check_statement_kinds(workload) -> None:
    """A CREATE INDEX is OTHER with no diagnostic; a CREATE TABLE is not read."""
    queries = workload.parse_workload("CREATE INDEX i ON t (a); CREATE TABLE t (a INT)")
    assert [(q.kind.value, q.parse_error) for q in queries] == [
        ("OTHER", None), ("OTHER", "expected INDEX, found 'TABLE'")]


def check_names_shown_escaped(workload) -> None:
    """A name holding a line break is shown escaped, so its diagnostic is one line."""
    queries = workload.parse_workload('SELECT a FROM t WHERE "x\ny" = 1')
    diagnostics: list[str] = []
    workload.extract_workload(queries, workload.parse_schema("TABLE t\n a\n"),
                              diagnostics=diagnostics)
    assert diagnostics == ["statement 0: unresolvable column 'x\\ny'; skipped"]


def check_run_words(workload) -> None:
    """A run of numbers gives the words the scanner's tokens do."""
    text = "SELECT a FROM t WHERE t.a IN (1, 2.5 ,3e1,\t.5, 4) AND t.b = 5"
    words = {"ident": str.lower, "number": lambda value: "0"}
    assert workload.tokenize(text) == [words.get(kind, str)(value)
                                       for kind, value, _ in workload.scan(text)]


def check_bulk_literal_lists(workload) -> None:
    """A list whose last item is a name still yields that name's item."""
    queries = workload.parse_workload("SELECT a FROM t WHERE t.a IN (1, 'x', b)")
    (context,) = workload.extract_workload(queries, workload.parse_schema("TABLE t\n a\n b\n"))
    assert sorted(map(str, context.items)) == ["t.a", "t.b"]


def check_reference_table(workload) -> None:
    """Each reference resolves under its own qualifier; the table holds one workload's."""
    workload.parse_workload("SELECT a FROM t WHERE t.b = 1")
    queries = workload.parse_workload("SELECT b FROM t, u WHERE u.a = 1 AND t.a = 2")
    (context,) = workload.extract_workload(
        queries, workload.parse_schema("TABLE t\n a\nTABLE u\n a\n b\n"))
    assert sorted(map(str, context.items)) == ["t.a", "u.a"]
    assert set(workload._REFS) == {"b", ("u", "a"), ("t", "a")}


def check_statement_table(workload) -> None:
    """The statement table holds one workload's masks, with no literal's value
    and no statement with a digit in a name, and extraction empties it."""
    workload.tokenize("SELECT gone FROM u WHERE u.b = 1")
    queries = workload.parse_workload("SELECT a FROM t WHERE t.b = 'x 5' AND t.a = 42;"
                                      "SELECT a1 FROM t WHERE t.b = 5")
    assert list(workload._MASKED) == [b"SELECT a FROM t WHERE t.b = '' AND t.a = 00"]
    workload.extract_workload(queries, workload.parse_schema("TABLE t\n a\n b\n"))
    assert workload._MASKED == {}


def check_quoted_tokens_after_a_mask(workload) -> None:
    """A quoted identifier keeps its text, and an unpaired quote is an error,
    after a statement of the same mask."""
    workload.parse_workload("")
    workload.tokenize('SELECT "1" FROM t')
    assert workload.tokenize('SELECT "2" FROM t') == ["select", '"2"', "from", "t", ""]
    workload.tokenize("SELECT a FROM t")
    try:
        workload.tokenize("SELECT a FROM t'x")
    except workload.SqlParseError as exc:
        assert exc.args[0] == "unterminated string literal"
    else:
        raise AssertionError("an unpaired quote was read")


def check_boundary_counts(catalog) -> None:
    """README's stats file: a count of 0 rows and rows of 1 byte are valid."""
    try:
        rows = catalog.load_stats("t\t0\t1\n")
    except catalog.StatsError as exc:
        raise AssertionError(exc) from None
    assert rows == {"t": 0}


def check_ddl_names(report) -> None:
    """Names spelled like reserved words or holding odd characters are quoted."""
    candidate = IndexCandidate("order", ("select", "Odd-Name", "a"), 2)
    ddl = report.emit_ddl(IndexConfiguration(Strategy.ALL, ((candidate, 0.0, 0),)))
    assert ddl == ('CREATE INDEX idx_order_select_Odd_Name_a ON "order" '
                   '("select", "Odd-Name", a);\n')


def check_index_name_length(report) -> None:
    """README's limit: a name of 60 characters stays, one of 61 is cut to 60."""
    names = [report.index_name(IndexCandidate("t", ("c" * width,), 1)) for width in (54, 55)]
    assert names == [f"idx_t_{'c' * 54}", f"idx_t_{'c' * 47}_f09d67"]


def check_first_clash(report) -> None:
    """The first clash digests the exact table and columns, with no retry count."""
    rows = tuple((IndexCandidate("t", columns, 1), 0.0, 0) for columns in (("a", "b"), ("a_b",)))
    assert report.emit_ddl(IndexConfiguration(Strategy.ALL, rows)) == (
        "CREATE INDEX idx_t_a_b ON t (a, b);\nCREATE INDEX idx_t_a_b_12c393 ON t (a_b);\n")


def check_second_clash(report) -> None:
    """A digest name taken too gives way to a digest of the key and retry count 1."""
    rows = tuple((IndexCandidate("t", columns, 1), 0.0, 0)
                 for columns in (("a", "b"), ("a", "b_12c393"), ("a_b",)))
    assert report.emit_ddl(IndexConfiguration(Strategy.ALL, rows)).splitlines()[2] == (
        "CREATE INDEX idx_t_a_b_09d2a1 ON t (a_b);")


def check_digest_modules_load_late(report) -> None:
    """Importing the report module binds neither digest module."""
    assert not {"hashlib", "json"} & vars(report).keys()


def check_fractions_load_late(cli) -> None:
    """Importing the CLI binds no ``Fraction``; a fractional --minsup still reads."""
    assert "Fraction" not in vars(cli)
    assert [cli._parse_minsup(text) for text in ("2", "1/4", "0.25")] == [2, (1, 4), (25, 100)]


def check_collector_restored(cli) -> None:
    """A run puts the cyclic collector back on."""
    try:
        with tempfile.TemporaryDirectory() as work, redirect_stdout(io.StringIO()):
            cli.main(["--workload", str(WORKLOAD_PATH), "--schema", str(SCHEMA_PATH),
                      "--out", f"{work}/out"])
        assert gc.isenabled()
    finally:
        gc.enable()


def check_exit_codes(cli) -> None:
    """A malformed schema file is a file-level failure: exit 2."""
    with tempfile.TemporaryDirectory() as work:
        schema = Path(work) / "s.txt"
        schema.write_text("not a stanza\n", encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["--workload", str(WORKLOAD_PATH), "--schema", str(schema),
                             "--stats", str(STATS_PATH), "--out", f"{work}/out"])
    assert code == 2


MUTANTS = {
    "tail-drops-its-first-item": (
        "miner", "stack.append((child, sub, count, e, extensions[i:]))",
        "stack.append((child, sub, count, e, extensions[i + 1:]))", check_mine_closed),
    "support-threshold-off-by-one": (
        "miner", "if count >= threshold:", "if count > threshold:", check_mine_closed),
    "maximal-test-threshold-off-by-one": (
        "miner", "(tids & item_tids[below.bit_length() - 1]).bit_count() < threshold:",
        "(tids & item_tids[below.bit_length() - 1]).bit_count() <= threshold:",
        check_mine_closed),
    "maximal-test-reads-only-the-tail": (
        "miner", "frequent_mask & ~cmask & (1 << core) - 1", "0", check_mine_closed),
    "rows-mined-as-if-each-count-were-1": (
        "advisor", "projections[table][row & ids_of[table]] += count",
        "projections[table][row & ids_of[table]] += 1", check_candidates),
    "single-column-support-counts-distinct-rows": (
        "advisor", "single[i] = single.get(i, 0) + count",
        "single[i] = single.get(i, 0) + 1", check_candidates),
    "default-threshold-one-row-higher": (
        "advisor", "DEFAULT_THRESHOLD_ROWS = 100_000", "DEFAULT_THRESHOLD_ROWS = 100_001",
        check_default_threshold_rows),
    "replay-under-the-stored-ordinal": (
        "workload",
        "            extraction = frozenset(extractor.items), tuple(extractor.messages)\n"
        "            replays[block] = extraction\n"
        "        items, messages = extraction\n"
        "        if messages and diagnostics is not None:\n"
        '            diagnostics.extend(f"statement {query.ordinal}: {m}" for m in messages)\n',
        "            extraction = frozenset(extractor.items), tuple(\n"
        '                f"statement {query.ordinal}: {m}" for m in extractor.messages)\n'
        "            replays[block] = extraction\n"
        "        items, messages = extraction\n"
        "        if messages and diagnostics is not None:\n"
        "            diagnostics.extend(messages)\n",
        check_replay),
    "no-nesting-bound": (
        "workload",
        "        if self.depth > MAX_NESTING:\n"
        '            raise self.error("nesting too deep")\n', "", check_nesting),
    "sign-nests-no-level": (
        "workload", "self.nested(self.parse_primary)", "self.parse_primary()", check_nesting),
    "create-index-read-as-a-select": (
        "workload", '"create": (QueryKind.OTHER, _Parser.parse_create_index),',
        '"create": (QueryKind.SELECT, _Parser.parse_create_index),', check_statement_kinds),
    "name-written-raw": (
        "workload", 'f"unresolvable column {ref.column!r}; skipped"',
        'f"unresolvable column \'{ref.column}\'; skipped"', check_names_shown_escaped),
    "run-expanded-one-comma-short": (
        "workload", 'spliced += ["0", ","] * run.count(",")',
        'spliced += ["0", ","] * (run.count(",") - 1)', check_run_words),
    "bulk-check-skips-the-last-item": (
        "workload", "_LITERALS.issuperset(words[i:end:2])",
        "_LITERALS.issuperset(words[i:end - 1:2])", check_bulk_literal_lists),
    "qualified-reference-keyed-by-its-column": (
        "workload", "key = name, column", "key = column", check_reference_table),
    "reference-table-never-emptied": (
        "workload", "    _REFS.clear()\n", "", check_reference_table),
    "statement-table-kept-across-workloads": (
        "workload", "    _MASKED.clear()\n    _VOCABULARY.clear()\n",
        "    _VOCABULARY.clear()\n", check_statement_table),
    "statement-table-kept-after-extraction": (
        "workload", "    _MASKED.clear()\n    return contexts\n", "    return contexts\n",
        check_statement_table),
    "statement-kept-with-a-digit-in-a-name": (
        "workload", "if _NAME_DIGIT_RE.search(emptied) is None:", "if True:",
        check_statement_table),
    "mask-built-from-the-text": (
        "workload", 'key = emptied.encode("utf-8", "surrogatepass")',
        'key = text.encode("utf-8", "surrogatepass")', check_statement_table),
    "double-quote-masked": (
        "workload", "if '\"' in text or _NUMBER_LIST_RE", "if _NUMBER_LIST_RE",
        check_quoted_tokens_after_a_mask),
    "unpaired-quote-masked": (
        "workload", "if len(parts) & 1 else None", "", check_quoted_tokens_after_a_mask),
    "strings-kept-in-the-mask": (
        "workload", "return \"''\".join(parts[::2])", "return text", check_statement_table),
    "statements-split-from-a-list-of-matches": (
        "workload", "map(re.Match.groups, _SPLIT_RE.finditer(text))", "_SPLIT_RE.findall(text)",
        check_split_memory),
    "text-kept-while-parsing": ("workload", "    del workload_text\n", "", check_parse_memory),
    "zero-row-count-rejected": (
        "catalog", "if counts[0] < 0:", "if counts[0] <= 0:", check_boundary_counts),
    "one-byte-rows-rejected": (
        "catalog", "counts[1] < 1:", "counts[1] <= 1:", check_boundary_counts),
    "sql-name-quotes-too-little": (
        "report",
        "if _PLAIN_IDENT.match(identifier) and identifier.lower() not in _RESERVED_WORDS:",
        "if _PLAIN_IDENT.match(identifier):", check_ddl_names),
    "name-limit-one-longer": (
        "report", "MAX_INDEX_NAME_LENGTH = 60", "MAX_INDEX_NAME_LENGTH = 61",
        check_index_name_length),
    "name-at-the-limit-cut": (
        "report", "if len(name) <= MAX_INDEX_NAME_LENGTH:",
        "if len(name) < MAX_INDEX_NAME_LENGTH:", check_index_name_length),
    "first-clash-counts-a-retry": ("report", "retry = 0\n", "retry = 1\n", check_first_clash),
    "retry-count-steps-by-two": (
        "report", "retry += 1\n", "retry += 2\n", check_second_clash),
    "hashlib-imported-with-the-module": (
        "report", "\nimport re\n", "\nimport hashlib\nimport re\n",
        check_digest_modules_load_late),
    "fractions-imported-with-the-module": (
        "cli", "\nfrom pathlib import Path\n",
        "\nfrom fractions import Fraction\nfrom pathlib import Path\n", check_fractions_load_late),
    "schema-error-exits-1": (
        "cli", "except (ConfigError, advisor.MissingStatsError) as exc:",
        "except (ConfigError, advisor.MissingStatsError, workload.SchemaError) as exc:",
        check_exit_codes),
    "collector-left-off": ("cli", "gc.enable()", "pass", check_collector_restored),
    "queries-kept-through-the-run": ("cli", "    del queries\n", "", check_run_memory),
    "contexts-kept-through-mining": ("cli", "    del contexts\n", "", check_run_memory),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_check_catches_the_mutant(mutant):
    name, fragment, replacement, check = MUTANTS[mutant]
    real = importlib.import_module(f"idxminer.{name}")
    source = Path(real.__file__).read_text(encoding="utf-8")
    assert source.count(fragment) == 1, f"{mutant}: the fragment is not in {name}.py once"
    check(real)
    check(compiled(name, source))
    # An unbounded descent ends in RecursionError rather than a failed assert.
    with pytest.raises((AssertionError, RecursionError)):
        check(compiled(name, source.replace(fragment, replacement)))
