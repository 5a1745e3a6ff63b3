from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, extract_one, parsed, scanned_words, sql_text
from idxminer import workload
from idxminer.workload import (
    MAX_NESTING,
    AttributeItem,
    ColumnRef,
    DEFAULT_POLICY,
    POSITIONS,
    QueryKind,
    SchemaError,
    SqlParseError,
    TransactionContext,
    _Parser,
    canonical_identifier,
    extract_workload,
    extraction_policy,
    parse_schema,
    parse_statement,
    parse_workload,
    scan,
    split_statements,
    tokenize,
)

SCHEMA = parse_schema(
    """
TABLE t
    k
    a
    b
    x

TABLE s
    k
    d
"""
)


def items(query_text, schema=SCHEMA, policy=DEFAULT_POLICY, diagnostics=None):
    (query,) = parse_workload(query_text)
    ctx = extract_one(query, schema, policy, diagnostics)
    return {(i.table, i.column) for i in ctx.items}


# -- statement splitting and classification ---------------------------------


def test_single_statement_with_trailing_comment():
    queries = parse_workload("SELECT a FROM t; -- x")
    assert len(queries) == 1
    assert queries[0].kind is QueryKind.SELECT
    assert queries[0].parse_error is None


def test_empty_workload():
    assert parse_workload("") == []


def test_three_statement_fixture_ordinals_and_kinds():
    text = """
    SELECT a FROM t WHERE t.b = 1;
    UPDATE t SET a = 2 WHERE b < 5;
    SELECT k FROM s ORDER BY s.d;
    """
    queries = parse_workload(text)
    assert [q.ordinal for q in queries] == [0, 1, 2]
    assert [q.kind for q in queries] == [QueryKind.SELECT, QueryKind.UPDATE,
                                         QueryKind.SELECT]


def test_comments_and_empty_statements_skipped():
    text = "/* header; not a split */ SELECT a FROM t;; -- lone comment\n;SELECT b FROM t"
    statements = split_statements(text)
    assert statements == ["SELECT a FROM t", "SELECT b FROM t"]


def test_semicolon_inside_string_does_not_split():
    statements = split_statements("SELECT a FROM t WHERE x = 'a;b'; SELECT b FROM t")
    assert len(statements) == 2
    assert "a;b" in statements[0]


def test_grammar_failure_flagged_not_dropped():
    queries = parse_workload("SELECT FROM WHERE; SELECT a FROM t")
    assert len(queries) == 2
    assert queries[0].kind is QueryKind.OTHER
    assert queries[0].parse_error
    assert queries[1].kind is QueryKind.SELECT


def test_unsupported_statement_kind_flagged():
    queries = parse_workload("GRANT ALL ON t TO u; CREATE TABLE t (a int)")
    assert [q.kind for q in queries] == [QueryKind.OTHER, QueryKind.OTHER]
    assert all(q.parse_error for q in queries)


@pytest.mark.parametrize("text, kind, error", [
    ("sElEcT a FROM t", QueryKind.SELECT, None),
    ("Select a FROM", QueryKind.OTHER, "expected identifier, found ''"),
    ("uPdAtE t SET a = 1 WHERE b = 2", QueryKind.UPDATE, None),
    ("Update t SET a", QueryKind.OTHER, "expected '=' in SET clause, found ''"),
    ("DeLeTe FROM t WHERE a = 1", QueryKind.DELETE, None),
    ("delete t", QueryKind.OTHER, "expected FROM, found 't'"),
    ("InSeRt INTO t VALUES (1, (2))", QueryKind.INSERT, None),
    ("Insert INTO t VALUES (1", QueryKind.OTHER, "unbalanced '(' in INSERT body"),
    ("CrEaTe InDeX i ON t (a, b)", QueryKind.OTHER, None),
    ("CREATE TABLE t (a INT)", QueryKind.OTHER, "expected INDEX, found 'TABLE'"),
    ("MERGE INTO t USING u", QueryKind.OTHER, "unsupported statement kind 'merge'"),
    ("MERGE é", QueryKind.OTHER, "unsupported statement kind 'merge'"),
    ("(SELECT 1)", QueryKind.OTHER, "unsupported statement kind ''"),
])
def test_each_statement_lead_has_its_kind_and_error(text, kind, error):
    (query,) = parse_workload(text)
    assert (query.kind, query.parse_error) == (kind, error)


def test_a_parse_of_no_statement_lead_is_an_unsupported_start():
    with pytest.raises(SqlParseError, match=r"^unsupported statement start '\('$"):
        parse_statement("(SELECT 1)")


def test_statement_level_round_trip(tpcr_workload_text, tpcr_schema):
    queries = parse_workload(tpcr_workload_text)
    rejoined = ";\n".join(q.raw_text for q in queries) + ";"
    reparsed = parse_workload(rejoined)
    assert len(reparsed) == len(queries)
    assert [q.kind for q in reparsed] == [q.kind for q in queries]


# -- extraction ---------------------------------------------------------------


def test_where_predicates_yield_items():
    assert items("SELECT x FROM t WHERE t.a = 1 AND t.b > 2") == {("t", "a"), ("t", "b")}


def test_no_indexable_positions_yields_nothing():
    assert items("SELECT x FROM t") == set()


def test_join_predicate_yields_both_sides():
    got = items("SELECT * FROM s, t WHERE s.k = t.k ORDER BY s.d")
    assert got == {("s", "k"), ("t", "k"), ("s", "d")}


def test_insert_yields_empty_item_set():
    (query,) = parse_workload("INSERT INTO t (a, b) VALUES (1, 2)")
    assert query.kind is QueryKind.INSERT
    ctx = extract_one(query, SCHEMA)
    assert ctx.items == frozenset()


def test_unqualified_column_resolved_via_schema():
    assert items("SELECT x FROM t WHERE a = 1") == {("t", "a")}
    # A FROM table outside the schema holds no columns to resolve against.
    diags = []
    assert items("SELECT a FROM u, t WHERE a = 1", diagnostics=diags) == {("t", "a")}
    assert diags == []


def test_unresolvable_column_skipped_with_diagnostic():
    diags = []
    got = items("SELECT x FROM t WHERE nosuch = 1 AND t.a = 2", diagnostics=diags)
    assert got == {("t", "a")}
    assert any("nosuch" in d for d in diags)


def test_ambiguous_column_skipped_with_diagnostic():
    # The diagnostic names the tables in sorted order, whatever the FROM order.
    for sources in ("s, t", "t, s"):
        diags = []
        got = items(f"SELECT x FROM {sources} WHERE k = 1 AND t.a = 2", diagnostics=diags)
        assert got == {("t", "a")}
        assert diags == ["statement 0: ambiguous column 'k' (in tables 's', 't'); skipped"]


def test_alias_resolution():
    got = items("SELECT q.x FROM t q WHERE q.a = 1 AND q.b IN (2, 3)")
    assert got == {("t", "a"), ("t", "b")}


def test_alias_renaming_invariance():
    original = "SELECT u.x FROM t u, s v WHERE u.k = v.k AND u.a > 2 ORDER BY v.d"
    renamed = "SELECT w9.x FROM t w9, s z WHERE w9.k = z.k AND w9.a > 2 ORDER BY z.d"
    assert items(original) == items(renamed)


def test_columns_inside_expressions_still_count():
    got = items("SELECT x FROM t WHERE lower(t.a) = 'y' AND t.b + 1 > 2")
    assert got == {("t", "a"), ("t", "b")}
    got = items("SELECT a FROM t WHERE t.a = 1 OR t.b = 2 AND "
                "NOT t.k BETWEEN 1 AND 2 * 3 + t.x || 4")
    assert got == {("t", "a"), ("t", "b"), ("t", "k"), ("t", "x")}


def test_subquery_clauses_harvested():
    got = items(
        "SELECT x FROM t WHERE t.a IN (SELECT k FROM s WHERE s.d = 3)"
    )
    assert got == {("t", "a"), ("s", "d")}


def test_diagnostics_follow_expression_pre_order():
    diags = []
    items(
        "SELECT x FROM t WHERE g1 = 1 AND t.a IN (SELECT k FROM s WHERE g2 = 1) "
        "AND g3 = (SELECT d FROM s WHERE g4 = (SELECT d FROM s WHERE g5 = 0)) "
        "AND EXISTS (SELECT 1 FROM s WHERE g6 = 1) AND lower(g7) BETWEEN g8 AND g9 "
        "AND g10 IN (g11, (SELECT d FROM s WHERE g12 = 1)) ORDER BY g13",
        diagnostics=diags,
    )
    # A clause's own columns first, then its subqueries, each in text order.
    order = [1, 3, 7, 8, 9, 10, 11, 2, 4, 5, 6, 12, 13]
    assert diags == [f"statement 0: unresolvable column 'g{n}'; skipped" for n in order]
    # An IN subquery comes before the subqueries inside the operand it tests.
    diags = []
    items(
        "SELECT a FROM t WHERE (SELECT g1 FROM s WHERE g2 = 1) "
        "IN (SELECT g3 FROM s WHERE g4 = 1)",
        policy=POSITIONS,
        diagnostics=diags,
    )
    order = [3, 4, 1, 2]
    assert diags == [f"statement 0: unresolvable column 'g{n}'; skipped" for n in order]


def test_in_list_items_parse_alike_with_or_without_operators():
    text = "SELECT a FROM t WHERE a IN (1, 'x', -2, 3 + 4, b, 'y')"
    (query,) = parse_workload(text)
    assert query.kind is QueryKind.SELECT
    assert query.parse_error is None
    # The bulk check of literal lists must not swallow the column among literals.
    assert items(text) == {("t", "a"), ("t", "b")}


NESTERS = {
    "select-item subquery": lambda inner: f"(SELECT {inner} FROM t)",
    "function call": lambda inner: f"lower({inner})",
    "parentheses": lambda inner: f"({inner})",
    "IN subquery": lambda inner: f"t.a IN (SELECT k FROM s WHERE {inner})",
    "NOT": lambda inner: f"NOT {inner}",
}


@pytest.mark.parametrize("name", sorted(NESTERS))
def test_nesting_limit_is_exact(name):
    def statement(depth):
        expr = "t.b = 1"
        for _ in range(depth):
            expr = NESTERS[name](expr)
        return f"SELECT a FROM t WHERE {expr}"

    (deepest,) = parse_workload(statement(MAX_NESTING))
    assert deepest.kind is QueryKind.SELECT
    assert ("t", "b") in items(deepest.raw_text, policy=POSITIONS)
    (too_deep,) = parse_workload(statement(MAX_NESTING + 1))
    assert too_deep.kind is QueryKind.OTHER
    assert too_deep.parse_error == "nesting too deep"


def test_derived_table_inner_block_harvested():
    diags = []
    got = items(
        "SELECT v.k FROM (SELECT k FROM s WHERE s.d = 1) v WHERE v.k > 0",
        diagnostics=diags,
    )
    assert got == {("s", "d")}
    assert any("derived" in d for d in diags)


def test_limit_after_order_by_is_accepted():
    assert items("SELECT b FROM t WHERE t.b = 2 LIMIT 10") == {("t", "b")}
    assert items("SELECT b FROM t WHERE t.a = 1 ORDER BY t.b LIMIT 5") == {
        ("t", "a"), ("t", "b")}


def test_limit_needs_a_number():
    (query,) = parse_workload("SELECT b FROM t WHERE t.b = 2 LIMIT x")
    assert query.kind is QueryKind.OTHER
    assert query.parse_error == "expected a number after LIMIT, found 'x'"


def test_update_and_delete_where_items():
    assert items("UPDATE t SET a = 0 WHERE b = 3") == {("t", "b")}
    assert items("UPDATE t SET a = 0, x = a + 1 WHERE b = 3") == {("t", "b")}
    assert items("DELETE FROM s WHERE d < 4") == {("s", "d")}
    # SET values are no indexable position, nor are the subqueries in them.
    diags = []
    assert items("UPDATE t SET a = (SELECT d FROM s WHERE s.d = 1) WHERE b = 3",
                 diagnostics=diags) == {("t", "b")}
    assert diags == []


def test_group_having_order_positions():
    got = items(
        "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 1 ORDER BY b"
    )
    assert got == {("t", "a"), ("t", "b")}


def test_select_alias_in_order_by_is_not_an_item():
    got = items("SELECT t.a + 1 AS bump FROM t ORDER BY bump")
    assert got == set()
    # The alias shadows ORDER BY, but not WHERE.
    assert items("SELECT t.b AS a FROM t WHERE a = 1 ORDER BY a") == {("t", "a")}


def test_from_entries_bind_before_join_entries():
    # ", t x" follows the JOIN in the text but binds first, so x is t.
    diags = []
    got = items("SELECT a FROM t JOIN s x ON t.k = x.k, t x WHERE x.a = 1",
                diagnostics=diags)
    assert got == {("t", "a"), ("t", "k")}
    assert diags == ["statement 0: duplicate alias 'x' in FROM; first binding kept"]


def test_policy_restricts_positions():
    sql = "SELECT x FROM t WHERE t.a = 1 GROUP BY t.b ORDER BY t.k"
    where_only = extraction_policy(["where"])
    assert items(sql, policy=where_only) == {("t", "a")}


def test_policy_select_position_opt_in():
    policy = extraction_policy(["select", "where"])
    got = items("SELECT t.x FROM t WHERE t.a = 1", policy=policy)
    assert got == {("t", "x"), ("t", "a")}


def test_star_of_a_table_in_the_select_list_is_no_item():
    policy = extraction_policy(["select", "where"])
    (query,) = parse_workload("SELECT t.*, s.d FROM t, s WHERE t.a = 1")
    assert query.parse_error is None
    got = {(i.table, i.column) for i in extract_one(query, SCHEMA, policy).items}
    assert got == {("t", "a"), ("s", "d")}


def test_policy_rejects_unknown_position():
    with pytest.raises(ValueError):
        extraction_policy(["sideways"])


def test_extraction_is_deterministic():
    sql = "SELECT * FROM s, t WHERE s.k = t.k AND t.a > 1 ORDER BY s.d"
    assert items(sql) == items(sql)


def test_extract_workload_keeps_every_statement():
    text = "SELECT a FROM t WHERE t.b=1; NONSENSE; INSERT INTO t (a) VALUES (1)"
    queries = parse_workload(text)
    contexts = extract_workload(queries, SCHEMA)
    assert [c.query_ordinal for c in contexts] == [0, 1, 2]
    assert contexts[1].items == frozenset()
    assert contexts[2].items == frozenset()


def test_extract_workload_emits_diagnostics_in_statement_order():
    queries = parse_workload("SELECT a FROM t WHERE ghost = 1; SELECT FROM; "
                             "SELECT a FROM t WHERE zzz = 1")
    diagnostics: list[str] = []
    extract_workload(queries, SCHEMA, DEFAULT_POLICY, diagnostics)
    assert diagnostics == [
        "statement 0: unresolvable column 'ghost'; skipped",
        "statement 1: expected FROM, found ''",
        "statement 2: unresolvable column 'zzz'; skipped",
    ]


def each_statement_alone(queries, schema, policy, diagnostics):
    """``extract_workload``'s contexts and diagnostics, one statement at a time."""
    contexts = []
    for query in queries:
        if query.kind is QueryKind.OTHER:
            diagnostics.append(f"statement {query.ordinal}: {query.parse_error}")
            contexts.append(TransactionContext(query.ordinal, frozenset()))
        else:
            contexts.append(extract_one(query, schema, policy, diagnostics))
    return contexts


def redrawn(text, copy):
    """``text`` with every string and number literal drawn anew for ``copy``."""
    text = re.sub(r"'[^']*'", f"'v{copy}'", text)
    return re.sub(r"\b[0-9]+\b", lambda m: str(int(m.group()) * 7 + copy), text)


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


REPLAY_CASES = {
    "tpcr-redrawn": (
        "".join(redrawn(fixture_text("tpcr_workload.sql"), i) for i in range(4)),
        parse_schema(fixture_text("tpcr_schema.txt"))),
    "diagnostics-thrice": (fixture_text("diagnostics_workload.sql") * 3,
                           parse_schema(fixture_text("diagnostics_schema.txt"))),
    # Each IN list length is a shape of its own; the three parse to one block.
    "equal-blocks-of-three-shapes": (
        "".join(f"SELECT t.x FROM t WHERE t.a IN ({items}) AND ghost = 1;"
                f"DELETE FROM t WHERE t.a IN ({items}) OR t.zz = 0;"
                for items in ("1", "1, 2", "1, 2, 3")), SCHEMA),
}


@pytest.mark.parametrize("policy", [DEFAULT_POLICY, extraction_policy(["select", "where"])])
@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_replayed_blocks_extract_as_each_statement_alone(name, policy, monkeypatch):
    text, schema = REPLAY_CASES[name]
    queries = parse_workload(text)
    walks = []

    class CountingExtractor(workload._Extractor):
        def __init__(self, *args):
            walks.append(self)
            super().__init__(*args)

    monkeypatch.setattr(workload, "_Extractor", CountingExtractor)
    replayed: list[str] = []
    contexts = extract_workload(queries, schema, policy, replayed)
    extracted = sum(q.kind in (QueryKind.SELECT, QueryKind.UPDATE, QueryKind.DELETE)
                    for q in queries)
    assert len(walks) < extracted  # some statements replayed
    alone: list[str] = []
    assert contexts == each_statement_alone(queries, schema, policy, alone)
    assert replayed == alone


@pytest.mark.parametrize("sql, kind", [
    ("""SELECT "from" FROM t WHERE t.a = '('""", QueryKind.SELECT),
    ("""SELECT "from" FROM t WHERE t.a IN (',', ')')""", QueryKind.SELECT),
    ("""SELECT a "where" FROM t""", QueryKind.SELECT),
    ("""INSERT INTO t VALUES (')')""", QueryKind.INSERT),
])
def test_literals_and_quoted_names_never_read_as_words(sql, kind):
    (query,) = parse_workload(sql)
    assert query.kind is kind
    assert query.parse_error is None


@pytest.mark.parametrize("sql, error", [
    ("SELECT a FROM t WHERE t.a IN (1, 2", "expected ')', found ''"),
    ("SELECT a t", "expected FROM, found ''"),
])
def test_expected_symbol_and_keyword_messages(sql, error):
    (query,) = parse_workload(sql)
    assert query.parse_error == error


def test_item_membership_against_schema(tpcr_workload_text, tpcr_schema):
    queries = parse_workload(tpcr_workload_text)
    for ctx in extract_workload(queries, tpcr_schema):
        for item in ctx.items:
            assert item.column in tpcr_schema[item.table]


# -- extraction on generated statements -------------------------------------

LITERALS = ["1", "2.5e1", "'x'", "'t.a; s.d -- not a column'", "NULL",
            "DATE '1998-12-01'", "INTERVAL '3' DAY"]
COMPARISONS = ["=", "<>", "!=", "<", "<=", ">", ">="]
ARITHMETIC = ["+", "-", "*", "/", "%", "||"]


@st.composite
def planted_select(draw):
    """A SELECT over SCHEMA, the qualified columns it plants and its clauses.

    Columns are planted in WHERE, JOIN ON, GROUP BY, HAVING and ORDER BY,
    nested in predicates, calls, arithmetic and at most one IN or EXISTS
    subquery, among literals; none is planted in a select list, which the
    default policy leaves out. Nesting stays far below MAX_NESTING. The
    clauses pair each clause's position with its column references in text
    order, those of the subquery block left out.
    """
    planted = set()
    subquery_left = True
    clauses = []
    refs = []  # the references of the clause being drawn

    def clause(position, draw_text):
        nonlocal refs
        refs = []
        text = draw_text()
        clauses.append((position, tuple(refs)))
        return text

    def pick(options):
        return draw(st.sampled_from(options))

    def column(names):
        table = pick(["t", "s"])
        name = pick(SCHEMA[table])
        planted.add((table, name))
        refs.append(ColumnRef(names[table], name))
        return f"{names[table]}.{name}"

    def value(level, names):
        form = draw(st.integers(0, 5 if level else 1))
        if form == 0:
            return column(names)
        if form == 1:
            return pick(LITERALS)
        if form == 2:
            args = [value(level - 1, names) for _ in range(draw(st.integers(1, 2)))]
            return f"{pick(['lower', 'coalesce', 'abs'])}({', '.join(args)})"
        if form == 3:
            left, right = value(level - 1, names), value(level - 1, names)
            return f"{left} {pick(ARITHMETIC)} {right}"
        if form == 4:
            return f"- {value(level - 1, names)}"
        return f"({value(level - 1, names)})"

    def predicate(level, names):
        nonlocal subquery_left
        form = draw(st.integers(0, 8 if level else 4))
        negated = pick(["", "NOT "])
        if form == 0:
            return f"{value(level, names)} {pick(COMPARISONS)} {value(level, names)}"
        if form == 1:
            return (f"{value(level, names)} {negated}BETWEEN {value(level, names)} "
                    f"AND {value(level, names)}")
        if form == 2:
            tested = value(level, names)
            items = [value(level, names) for _ in range(draw(st.integers(1, 3)))]
            return f"{tested} {negated}IN ({', '.join(items)})"
        if form == 3:
            return f"{value(level, names)} {negated}LIKE 'a%'"
        if form == 4:
            return f"{value(level, names)} IS {negated}NULL"
        if form == 5:
            return f"NOT {predicate(level - 1, names)}"
        if form == 6:
            return f"({predicate(level - 1, names)})"
        if form == 7 or not subquery_left:
            return (f"{predicate(level - 1, names)} {pick(['AND', 'OR'])} "
                    f"{predicate(level - 1, names)}")
        nonlocal refs
        subquery_left = False
        lead = "EXISTS" if draw(st.booleans()) else f"{value(level, names)} {negated}IN"
        inner = pick(["s", "w"])
        inner_names = {"t": names["t"], "s": inner}
        outer, refs = refs, []  # the subquery's references are its own
        block = (f"(SELECT {inner}.k FROM {source('s', inner)} "
                 f"WHERE {predicate(level - 1, inner_names)})")
        refs = outer
        return f"{lead} {block}"

    def source(table, name):
        return table if name == table else f"{table} {pick(['', 'AS '])}{name}"

    names = {"t": pick(["t", "u"]), "s": pick(["s", "v"])}
    item, item_refs = pick([("*", None), ("count(*)", ()), ("1", ()),
                            (names["t"] + ".k", (ColumnRef(names["t"], "k"),)),
                            ("lower(x) AS z", (ColumnRef(None, "x"),))])
    if item_refs is not None:
        clauses.append(("select", item_refs))
    parts = [f"SELECT {item}", f"FROM {source('t', names['t'])}"]
    if draw(st.booleans()):
        parts.append(f"{pick(['JOIN', 'INNER JOIN', 'LEFT JOIN', 'LEFT OUTER JOIN'])} "
                     f"{source('s', names['s'])} "
                     f"ON {clause('join', lambda: predicate(3, names))}")
    else:
        parts.append(f", {source('s', names['s'])}")
    if draw(st.booleans()):
        parts.append(f"WHERE {clause('where', lambda: predicate(3, names))}")
    if draw(st.booleans()):
        keys = [clause("group_by", lambda: value(1, names))
                for _ in range(draw(st.integers(1, 3)))]
        parts.append(f"GROUP BY {', '.join(keys)}")
        if draw(st.booleans()):
            parts.append(f"HAVING {clause('having', lambda: predicate(1, names))}")
    if draw(st.booleans()):
        keys = [f"{clause('order_by', lambda: value(1, names))}{pick(['', ' ASC', ' DESC'])}"
                for _ in range(draw(st.integers(1, 2)))]
        parts.append(f"ORDER BY {', '.join(keys)}")
    return " ".join(parts), planted, clauses


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(planted_select())
def test_extraction_finds_exactly_the_planted_columns(case):
    text, planted, clauses = case
    diags = []
    assert items(text, diagnostics=diags) == planted
    assert diags == []
    block = parse_statement(text)
    assert [(position, refs) for position, refs, _ in block.clauses] == clauses


# -- the shape memo of parse_statement ----------------------------------------


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty memo for the test; returns the list of parser runs behind it."""
    monkeypatch.setattr(workload, "_shape_parses", {})
    runs = []
    real = _Parser.parse_statement

    def spy(parser):
        runs.append(parser)
        return real(parser)

    monkeypatch.setattr(_Parser, "parse_statement", spy)
    return runs


def fresh(text):
    """``parsed`` by a new parser, past the memo."""
    return parsed(text, lambda t: _Parser(tokenize(t), t).parse_statement())


def test_statements_differing_in_literals_run_the_parser_once(cold_memo):
    texts = [f"SELECT a FROM t WHERE t.a = {i} AND t.b LIKE 'v{i}%' LIMIT {i + 1}"
             for i in range(50)]
    got = [parse_statement(text) for text in texts]
    assert len(cold_memo) == 1
    assert got == [fresh(text) for text in texts]


@pytest.mark.parametrize("kept, other", [
    ('SELECT "a b" FROM t WHERE t.k = {}', 'SELECT "a" b FROM t WHERE t.k = 1'),
    ('SELECT "A" FROM t WHERE t.k = {}', 'SELECT "a" FROM t WHERE t.k = 1'),
    ("SELECT a FROM t LIMIT {}", "SELECT a FROM t LIMIT 'x'"),
    ("SELECT a FROM t WHERE t.a <= {}", "SELECT a FROM t WHERE t.a < = 1"),
])
def test_shapes_stay_apart(cold_memo, kept, other):
    for value in (1, 2):
        parse_statement(kept.format(value))
    assert len(workload._shape_parses) == 1
    runs = len(cold_memo)
    got = parsed(other)
    assert len(cold_memo) == runs + 1
    assert got == fresh(other)


def test_failing_statements_of_one_shape_report_their_own_token(cold_memo):
    for text, literal in (("SELECT a FROM t LIMIT 'x'", "'x'"),
                          ("SELECT  a  FROM t LIMIT 'yy'", "'yy'")):
        assert parsed(text) == (f"expected a number after LIMIT, found {literal}",
                                text.index(literal))
    assert workload._shape_parses == {}


@pytest.mark.parametrize("text, message, pos", [
    ("INSERT INTO t VALUES (1))", "unbalanced ')' in INSERT body", 24),
    ("INSERT INTO t VALUES ((1)", "unbalanced '(' in INSERT body", 25),
    ("SELECT a FROM t LIMIT x", "expected a number after LIMIT, found 'x'", 22),
    ("SELECT a FROM t LIMIT", "expected a number after LIMIT, found ''", 21),
    ("SELECT a FROM t LIMIT 'it''s'", "expected a number after LIMIT, found \"it''s\"", 22),
    ('SELECT a FROM t LIMIT "A""b"', "expected a number after LIMIT, found 'A\"b'", 22),
    ("UPDATE t SET a 1", "expected '=' in SET clause, found '1'", 15),
    ("SELECT a FROM t WHERE t.a = 1 b", "unexpected trailing input 'b'", 30),
    ("SELECT a FROM t WHERE a NOT b", "unexpected trailing input 'NOT'", 24),
    ("SELECT a FROM t WHERE a NOT IS NULL", "unexpected trailing input 'NOT'", 24),
    ("VACUUM t", "unsupported statement start 'VACUUM'", 0),
    ("DELETE t", "expected FROM, found 't'", 7),
    ("SELECT a FROM 7", "expected identifier, found '7'", 14),
    ("SELECT a FROM t WHERE " + "NOT " * 51 + "t.a = 1", "nesting too deep", 226),
    ("SELECT a FROM t WHERE t.", "expected identifier, found ''", 24),
    ("SELECT a FROM t WHERE t.(", "expected identifier, found '('", 24),
    ("SELECT a FROM t WHERE t.7 = 1", "unexpected trailing input '.7'", 23),
    ("SELECT a FROM t WHERE f(", "unexpected token ''", 24),
    ("SELECT a FROM t WHERE t.a = -", "unexpected token ''", 29),
    ("SELECT a FROM t WHERE x BETWEEN 1 OR 2", "expected AND, found 'OR'", 34),
    ("SELECT a FROM t WHERE x IN 1", "expected '(', found '1'", 27),
    ("SELECT a FROM t WHERE x IS 1", "expected NULL, found '1'", 27),
    ("SELECT a b c FROM t", "expected FROM, found 'c'", 11),
    ("SELECT a FROM t ORDER BY a ASC DESC", "unexpected trailing input 'DESC'", 31),
    ("SELECT a FROM t WHERE interval '1' year year = 1", "unexpected trailing input 'year'", 40),
    # A sign's level ends at its operand, so the parentheses after it start at
    # depth 0: 50 of them parse, up to the trailing word, and 51 are too deep.
    ("SELECT a FROM t WHERE - t.a + " + "(" * 50 + "t.b" + ")" * 50 + " x",
     "unexpected trailing input 'x'", 134),
    ("SELECT a FROM t WHERE - t.a + " + "(" * 51 + "t.b" + ")" * 51, "nesting too deep", 81),
])
def test_parse_errors_quote_and_place_their_token(cold_memo, text, message, pos):
    assert parsed(text) == (message, pos)


@pytest.mark.parametrize("where, refs", [
    ("date = 1", [(None, "date")]),
    ("interval = 1", [(None, "interval")]),
    ("date.x = time", [("date", "x"), (None, "time")]),
    ("timestamp(x) = 1", [(None, "x")]),
    ("t.a > date '1998-12-01'", [("t", "a")]),
    ("t.a > t.b - interval '3' day", [("t", "a"), ("t", "b")]),
    ("t.a IS NOT NULL AND NOT EXISTS (SELECT s.k FROM s)", [("t", "a")]),
    ('"T".a = "Odd Col"', [("t", "a"), (None, "Odd Col")]),
    ("count(t.*) = count(DISTINCT t.b)", [("t", "b")]),
    ("- + - x = 1", [(None, "x")]),
    ("t.a = - + - (t.b) * - 2 || t.x", [("t", "a"), ("t", "b"), ("t", "x")]),
])
def test_operands_read_as_names_keywords_or_literals(where, refs):
    """``date``, ``time``, ``timestamp`` and ``interval`` are names unless a
    string follows; quoted names, ``name.*`` and chained signs read as before."""
    block = parse_statement(f"SELECT a FROM t WHERE {where}")
    assert block.clauses[-1][1] == tuple(ColumnRef(*ref) for ref in refs)


def test_unique_statements_parse_once_and_leave_no_parse(cold_memo):
    text = "".join(f"SELECT c{i} FROM t WHERE t.a = {i};" for i in range(500))
    contexts = extract_workload(parse_workload(text), SCHEMA)
    assert len(contexts) == 500
    assert len(cold_memo) == 500
    assert workload._shape_parses == {}


def test_verbatim_copies_run_the_parser_once(cold_memo):
    text = "SELECT a FROM t WHERE t.b = 1;" * 100
    contexts = extract_workload(parse_workload(text), SCHEMA)
    assert [c.items for c in contexts] == [frozenset({AttributeItem("t", "b")})] * 100
    assert len(cold_memo) == 1


def test_each_workload_parses_with_a_cold_memo(cold_memo):
    first = parse_workload("SELECT a FROM t WHERE t.b = 1; SELECT a FROM t WHERE t.b = 2")
    assert len(cold_memo) == 1
    parse_workload("SELECT k FROM s")
    assert list(workload._shape_parses) == [" ".join(tokenize("SELECT k FROM s"))]
    extract_workload(first, SCHEMA)
    assert len(cold_memo) == 3
    assert workload._shape_parses == {}


# Redrawn quoted names change a statement's shape, literals do not.
NEW_LITERALS = {
    "number": st.one_of(st.integers(0, 10**6).map(str),
                        st.floats(0, 1e6).map(lambda x: f"{x:.3f}")),
    "string": st.text("ab'; -", max_size=5).map(lambda s: "'" + s.replace("'", "''") + "'"),
    "qident": st.text('aB "', min_size=1, max_size=3).map(
        lambda s: '"' + s.replace('"', '""') + '"'),
}
QUOTES = {"string": "'", "qident": '"'}
MUTANTS = ["select", "from", "where", "and", "not", "in", "is", "null", "limit",
           "between", "exists", "date", "(", ")", ",", ".", "=", "<", "<=", "-",
           "*", "7", "'z'", '"q q"', '"k"', "k", "t"]


def source_words(text, data=None):
    """The statement's tokens as source text; given ``data``, literals and
    quoted names redrawn."""
    words = []
    for kind, value, _ in scan(text)[:-1]:
        if data is not None and kind in NEW_LITERALS:
            words.append(data.draw(NEW_LITERALS[kind]))
        elif kind in QUOTES:
            quote = QUOTES[kind]
            words.append(quote + value.replace(quote, quote * 2) + quote)
        else:
            words.append(value)
    return words


def assert_front_end_agrees(text):
    """``tokenize`` gives the scanner's words or raises its error, and
    ``parse_statement`` gives what a fresh parser does."""
    assert parsed(text, tokenize) == parsed(text, scanned_words), text
    assert parsed(text) == fresh(text), text


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(planted_select(), st.data())
def test_memoized_parse_equals_a_fresh_parse(case, data):
    words = source_words(case[0])
    mutant = list(words)
    i = data.draw(st.integers(0, len(words) - 1))
    edit = data.draw(st.sampled_from(["drop", "repeat", "replace", "swap", "quote"]))
    if edit == "drop":
        del mutant[i]
    elif edit == "repeat":
        mutant.insert(i, mutant[i])
    elif edit == "replace":
        mutant[i] = data.draw(st.sampled_from(MUTANTS))
    elif edit == "swap":
        mutant[i:i + 2] = mutant[i:i + 2][::-1]
    else:
        mutant[i] = '"' + mutant[i].replace('"', '""') + '"'
    for text in (" ".join(words), " ".join(mutant)):
        for variant in (text, " ".join(source_words(text, data)),
                        " ".join(source_words(text, data))):
            assert_front_end_agrees(variant)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(sql_text)
def test_front_end_agrees_with_the_scanner_on_random_text(text):
    assert_front_end_agrees(text)


def numbers(n, start=0):
    return ", ".join(str(start + k) for k in range(n))


# Texts where a run of numbers starts, stops or is cut: the fuzz finds of a
# literal-masking prototype, runs at and past the 256 numbers a raw token
# holds, and runs followed by what could extend or end their last number.
RUN_TEXTS = [".5.5", "2e5.5", "291e-.5", "1, 2e5.5, 3", "1,2.e5", "1 ,2e+ 3",
             "x.5, 6", "a1, 2", "(1,), 2", "1,,2", "1, 2é",
             numbers(255), numbers(256), numbers(257), numbers(513, 7),
             "1, 2 .5", "1, 2.5", "1, 2, .5", "1, 2e5", "1, 2 e5", "1, 2E-5x",
             "1, 2name", "1, 2 name", "1, 2_3",
             f"SELECT a FROM t WHERE t.a IN ({numbers(300)})"]


@pytest.mark.parametrize("text", RUN_TEXTS, ids=range(len(RUN_TEXTS)))
def test_runs_of_numbers_give_the_scanners_words(text):
    assert parsed(text, tokenize) == parsed(text, scanned_words)


# Lists that open with a literal and a comma, their ")" written or missing.
# The bulk check must find what the per-item loop finds: a block, or an error.
LISTS = [
    numbers(40) + ")", "1, 'a', 2.5, '')", "1, b, 2)", "1, 2, b)", "1, t.b)",
    "1, 2, t.b)", "1, -2, +3)", "1, 2 - 3)", "1, 'a' || 'b')", "1, 2 AND b)",
    "1, (2), 3)", "1, (2, 3))", "1, ((b)))", "1, (SELECT b FROM s WHERE s.k = 1))",
    "1, f(2, 3), 4)", "1, NULL)", "1, date '1998-01-01')", "1, 2,)", "1, 2, )",
    "1, 2", "1, 2,", "1, 2) OR t.b IN (3, b)", "1, 2) AND t.b = 3",
    "1, 2)) AND (t.b = 3", "1, 2 3)", "1, ,2)", "1, 2))",
]


@pytest.mark.parametrize("items", LISTS, ids=range(len(LISTS)))
def test_a_bulk_literal_list_parses_as_the_item_loop_does(items):
    """``t.x IN (1, ..`` against ``t.x IN ((1), ..``, whose first item takes
    the per-item loop; an error's position there is two characters on."""
    head, _, rest = items.partition(",")
    bulk = fresh(f"SELECT a FROM t WHERE t.x IN ({items}")
    loop = fresh(f"SELECT a FROM t WHERE t.x IN (({head}),{rest}")
    if not isinstance(loop, workload.Block):
        loop = loop[0], loop[1] - 2
    assert bulk == loop


def test_literals_leave_the_vocabulary_alone():
    texts = [f"SELECT a FROM t WHERE t.a IN ({i}, .{i}, {i}e{i % 9}) AND t.b = 'v{i}'"
             for i in range(1000)]
    tokenize(texts[0])
    size = len(workload._VOCABULARY)
    for text in texts[1:]:
        tokenize(text)
    assert len(workload._VOCABULARY) == size


def test_the_vocabulary_holds_one_workloads_names():
    parse_workload("SELECT only_in_a FROM t WHERE t.only_in_a = 1")
    assert "only_in_a" in workload._VOCABULARY
    parse_workload("SELECT b FROM t WHERE t.b = 1")
    assert "only_in_a" not in workload._VOCABULARY
    assert "b" in workload._VOCABULARY


def test_literal_values_never_enter_the_statement_table():
    # Numbers of three digits, so each statement's mask stays the same.
    parse_workload("")
    texts = [f"SELECT a FROM t WHERE t.a = {i} AND t.b = 'v {i}' AND (t.c < .{i}"
             f" OR t.d > {i}.5) AND t.f='w{i}''s' AND t.g IN ('x{i}', 'y {i}')"
             for i in range(100, 1000)]
    tokenize(texts[0])
    table = dict(workload._MASKED)
    for text in texts[1:]:
        tokenize(text)
    assert workload._MASKED == table
    assert list(table) == [b"SELECT a FROM t WHERE t.a = 000 AND t.b = '' AND (t.c < .000"
                           b" OR t.d > 000.0) AND t.f='''' AND t.g IN ('', '')"]
    assert tokenize(texts[1]) == list(table.popitem()[1])


def test_a_statement_with_a_digit_in_a_name_keeps_no_entry():
    parse_workload("")
    for text in ("SELECT t1 FROM t WHERE t1.a = 5", "SELECT a FROM t WHERE b_2 = 'x'",
                 "SELECT a FROM t WHERE b = 1e5"):
        assert tokenize(text) == scanned_words(text)
    assert workload._MASKED == {}


def test_the_statement_table_holds_one_workload_until_extraction():
    tokenize("SELECT only_in_a FROM t")
    queries = parse_workload("SELECT b FROM t WHERE t.b = 1; SELECT b FROM t WHERE t.b = 2")
    assert list(workload._MASKED) == [b"SELECT b FROM t WHERE t.b = 0"]
    extract_workload(queries, parse_schema("TABLE t\n b\n"))
    assert workload._MASKED == {}


def test_a_template_is_read_by_the_regex_once_per_workload(monkeypatch):
    # One template's literals redrawn, each number keeping its digit count:
    # every statement but the first is one lookup in the statement table, in
    # both passes.
    rng = random.Random(30)
    words = ["AIR", "REG AIR", "MAIL SHIP 2", ""]
    text = ";\n".join(
        f"SELECT l_orderkey, SUM(l_price) FROM lineitem, orders WHERE"
        f" l_orderkey = o_orderkey AND o_date >= DATE '199{rng.randrange(10)}-0"
        f"{rng.randint(1, 9)}-1{rng.randrange(10)}' AND l_mode IN"
        f" ('{rng.choice(words)}', '{rng.choice(words)}') AND l_discount BETWEEN"
        f" 0.0{rng.randint(1, 9)} AND .{rng.randrange(10)} AND l_qty < {rng.randint(10, 99)}"
        f" GROUP BY l_orderkey ORDER BY l_orderkey" for _ in range(1000))
    calls = []
    read = workload._regex_words
    monkeypatch.setattr(workload, "_regex_words",
                        lambda text: calls.append(text) or read(text))
    queries = parse_workload(text)
    contexts = extract_workload(queries, parse_schema(
        "TABLE lineitem\n l_orderkey\n l_price\n l_mode\n l_discount\n l_qty\n\n"
        "TABLE orders\n o_orderkey\n o_date\n"))
    assert [q.kind for q in queries] == [QueryKind.SELECT] * 1000
    assert len({c.items for c in contexts}) == 1
    assert calls == [queries[0].raw_text]


def column_refs(block):
    return [ref for _, refs, _ in block.clauses for ref in refs]


def test_equal_references_in_one_workload_are_one_record():
    queries = parse_workload("SELECT a FROM t WHERE t.b = 1;"
                             "UPDATE t SET a = 2 WHERE t.b = 3 OR a = 4")
    (a, tb), (tb_again, a_again) = (column_refs(parse_statement(q.raw_text)) for q in queries)
    assert (a, tb) == (ColumnRef(None, "a"), ColumnRef("t", "b"))
    assert a_again is a and tb_again is tb


def test_a_reference_keeps_its_qualifier():
    schema = parse_schema("TABLE t\n a\nTABLE u\n a\n b\n")
    queries = parse_workload("SELECT b FROM t, u WHERE u.a = 1 AND a = 2 AND t.a = 3")
    refs = column_refs(parse_statement(queries[0].raw_text))
    assert refs == [ColumnRef(None, "b"), ColumnRef("u", "a"), ColumnRef(None, "a"),
                    ColumnRef("t", "a")]
    assert len({id(ref) for ref in refs[1:]}) == 3
    diagnostics: list[str] = []
    (context,) = extract_workload(queries, schema, diagnostics=diagnostics)
    assert context.items == {AttributeItem("t", "a"), AttributeItem("u", "a")}
    assert diagnostics == ["statement 0: ambiguous column 'a' (in tables 't', 'u'); skipped"]


def test_the_reference_table_holds_one_workloads_references():
    parse_workload("SELECT only_in_a FROM t WHERE t.only_in_a = 1")
    assert {"only_in_a", ("t", "only_in_a")} <= workload._REFS.keys()
    parse_workload("SELECT b FROM t WHERE t.b = 1")
    assert set(workload._REFS) == {"b", ("t", "b")}


# -- canonicalization and schema files ---------------------------------------


def test_canonical_identifier_rules():
    assert canonical_identifier("OrderKey") == "orderkey"
    assert canonical_identifier("OrderKey", quoted=True) == "orderkey"
    assert canonical_identifier("Order Key", quoted=True) == "Order Key"


def test_quoted_identifiers_in_queries():
    got = items('SELECT x FROM "T" WHERE "T"."A" = 1')
    assert got == {("t", "a")}


def test_attribute_item_ordering_is_lexicographic():
    a = AttributeItem("t", "a")
    b = AttributeItem("t", "b")
    s = AttributeItem("s", "z")
    assert sorted([b, a, s]) == [s, a, b]


def test_schema_duplicate_table_rejected():
    with pytest.raises(SchemaError):
        parse_schema("TABLE t\n a\n\nTABLE t\n b\n")


def test_schema_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        parse_schema("TABLE t\n a\n a\n")


def test_schema_column_outside_stanza_rejected():
    with pytest.raises(SchemaError):
        parse_schema("stray\nTABLE t\n a\n")


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_schema_lines_break_at_line_breaks_only(brk):
    assert parse_schema(f"TABLE t\n  a{brk}\n  b\n") == {"t": ("a", "b")}
    with pytest.raises(SchemaError, match=r"^line 3: expected a single column name$"):
        parse_schema(f"TABLE t\n  a\n  b{brk}c\n")


@pytest.mark.parametrize("text, error", [
    ('TABLE ""\n a\n', "line 1: empty table name"),
    ('TABLE t\n a\n ""\n', "line 3: empty column name"),
])
def test_schema_names_cannot_be_empty(text, error):
    with pytest.raises(SchemaError, match=f"^{error}$"):
        parse_schema(text)


def test_schema_hash_inside_a_quoted_name_starts_no_comment():
    schema = parse_schema('TABLE t\n"a#b"\n"#" # note\n')
    assert schema == {"t": ("a#b", "#")}
    (query,) = parse_workload('SELECT * FROM t WHERE t."a#b" = 1')
    assert {str(item) for item in extract_one(query, schema).items} == {"t.a#b"}


def test_schema_quoted_names_read_as_quoted_identifiers():
    schema = parse_schema('TABLE t\n"Odd-Name"\n"order"\n"A""b"\n\nTABLE "U"\nplain\n')
    assert schema == {"t": ("Odd-Name", "order", 'A"b'), "u": ("plain",)}
    with pytest.raises(SchemaError, match="duplicate column 'order'"):
        parse_schema('TABLE t\n"order"\nORDER\n')
    (query,) = parse_workload(
        'SELECT * FROM t WHERE t."Odd-Name" = 1 AND t."order" = 2 AND t."A""b" = 3')
    diagnostics: list[str] = []
    items = extract_one(query, schema, diagnostics=diagnostics).items
    assert sorted(map(str, items)) == ['t.A"b', "t.Odd-Name", "t.order"]
    assert diagnostics == []
