from __future__ import annotations

import ast
import hashlib
import inspect
import re

import pytest
from hypothesis import given, settings, strategies as st

from idxminer import workload
from idxminer.advisor import IndexCandidate, IndexConfiguration, Strategy
from idxminer.report import (
    MAX_INDEX_NAME_LENGTH,
    Recommendation,
    _RESERVED_WORDS,
    _sql_name,
    emit_ddl,
    emit_report,
    index_name,
    parse_structured_report,
)
from idxminer.workload import (
    QueryKind, canonical_identifier, canonical_name, parse_workload, scan)


def make_candidate(table="t", columns=("a", "b"), support=4):
    return IndexCandidate(table=table, columns=tuple(columns), support=support)


def make_configuration(candidates, scores=None, sizes=None, strategy=Strategy.ALL):
    scores = scores or [float(len(candidates) - i) for i in range(len(candidates))]
    sizes = sizes or [1000] * len(candidates)
    return IndexConfiguration(strategy=strategy,
                              rows=tuple(zip(candidates, scores, sizes)))


def make_recommendation(candidates, **kwargs):
    config = make_configuration(candidates, **kwargs)
    summary = {QueryKind.SELECT: 3, QueryKind.UPDATE: 1}
    return Recommendation(configuration=config, minsup_used=2,
                          workload_summary=summary, diagnostics=())


# -- DDL ------------------------------------------------------------------------


def test_ddl_template():
    config = make_configuration([make_candidate()])
    assert emit_ddl(config) == "CREATE INDEX idx_t_a_b ON t (a, b);\n"


def test_ddl_empty_configuration():
    assert emit_ddl(make_configuration([])) == ""


def test_ddl_statement_count_matches_candidates():
    config = make_configuration([make_candidate(columns=("a",)),
                                 make_candidate(table="s", columns=("k",))])
    ddl = emit_ddl(config)
    assert ddl.count("CREATE INDEX") == len(config.candidates)
    assert ddl.endswith("\n")


def test_long_names_truncated_with_stable_hash():
    wide = make_candidate(
        table="a_rather_long_dimension_table",
        columns=tuple(f"column_number_{i}" for i in range(4)),
    )
    first = index_name(wide)
    second = index_name(wide)
    assert first == second
    assert len(first) == MAX_INDEX_NAME_LENGTH
    other = make_candidate(
        table="a_rather_long_dimension_table",
        columns=tuple(f"column_number_{i}" for i in range(1, 5)),
    )
    assert index_name(other) != first


def test_names_are_cut_from_61_characters_on():
    """README's limit: a name of 60 characters stays, one of 61 is cut to 60."""
    assert index_name(make_candidate(columns=("c" * 54,))) == f"idx_t_{'c' * 54}"
    cut = index_name(make_candidate(columns=("c" * 55,)))
    assert cut == f"idx_t_{'c' * 47}_f09d67" and len(cut) == 60


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.text(min_size=1), st.lists(st.text(min_size=1), min_size=1, max_size=4))
def test_index_name_replaces_odd_characters_part_by_part(table, columns):
    """One substitution over the joined name gives what one per part does."""
    parts = ["idx", table, *columns]
    name = "_".join(re.sub(r"[^A-Za-z0-9_]", "_", part) for part in parts)
    if len(name) > MAX_INDEX_NAME_LENGTH:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:6]
        name = f"{name[:MAX_INDEX_NAME_LENGTH - 7]}_{digest}"
    assert index_name(make_candidate(table, columns)) == name


def test_quoted_identifiers_in_ddl():
    config = make_configuration([make_candidate(table="Order Data", columns=("k",))])
    ddl = emit_ddl(config)
    assert 'ON "Order Data" (k);' in ddl


@pytest.mark.parametrize("name, sql", [
    ("k", "k"),
    ("orders", "orders"),
    ("order", '"order"'),
    ("ORDER", '"ORDER"'),
    ("select", '"select"'),
    ("values", '"values"'),
    ("date", '"date"'),
    ("Interval", '"Interval"'),
    ("second", '"second"'),
    ("Order Data", '"Order Data"'),
    ('A"b', '"A""b"'),
])
def test_sql_name_quotes_odd_and_reserved_names(name, sql):
    assert _sql_name(name) == sql


def test_ddl_reparses_under_subset_grammar():
    config = make_configuration(
        [make_candidate(), make_candidate(table="s", columns=("k", "d", "e")),
         make_candidate(columns=("café",))]
    )
    queries = parse_workload(emit_ddl(config))
    assert len(queries) == 3
    for query in queries:
        assert query.kind is QueryKind.OTHER
        assert query.parse_error is None



def test_every_word_the_parser_reads_is_reserved():
    """``_RESERVED_WORDS`` claims to hold every keyword the subset grammar reads.

    The words are collected from the parser's source: its alphabetic string
    constants, ``_RESERVED``, the keywords of ``parse_primary`` and the
    interval units.
    """
    tree = ast.parse(inspect.getsource(workload._Parser))
    words = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isalpha()}
    assert {"select", "interval", "null", "exists"} <= words
    words |= workload._RESERVED | workload._PRIMARY_KEYWORDS | workload._INTERVAL_UNITS
    assert sorted(words - _RESERVED_WORDS) == []

# Schema-file words: reserved words in any case or quoted, and bare or quoted
# words over odd and non-ASCII characters. ``canonical_name`` turns each into
# a table or column name.
NAME_CHARS = "abkzAKZ_09\"#,;.()-'é߲İΩ中"
schema_word = st.one_of(
    st.sampled_from(sorted(_RESERVED_WORDS)).flatmap(
        lambda w: st.sampled_from([w, w.upper(), w.title(), f'"{w}"', f'"{w.upper()}"'])),
    st.text(NAME_CHARS, min_size=1, max_size=8),
    st.text(NAME_CHARS, max_size=8).map(lambda t: '"' + t.replace('"', '""') + '"'),
)
schema_name = schema_word.map(canonical_name)
candidates = st.lists(
    st.builds(make_candidate, schema_name,
              st.lists(schema_name, min_size=1, max_size=4, unique=True)),
    min_size=1, max_size=4)


def name_read_back(kind, value):
    """The canonical name one DDL token spells; a bare one is never reserved."""
    assert kind in ("ident", "qident")
    assert kind == "qident" or value.lower() not in _RESERVED_WORDS, value
    return canonical_identifier(value, quoted=kind == "qident")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(candidates)
def test_ddl_reparses_to_its_table_and_columns(generated):
    queries = parse_workload(emit_ddl(make_configuration(generated)))
    assert len(queries) == len(generated)
    for query, candidate in zip(queries, generated):
        assert query.parse_error is None, query.raw_text
        tokens = scan(query.raw_text)  # CREATE INDEX name ON table ( col , .. ) end
        names = [name_read_back(kind, value) for kind, value, _ in tokens[4:-1:2]]
        assert names == [candidate.table, *candidate.columns], query.raw_text
        marks = [value for _, value, _ in tokens[5:-1:2]]
        assert marks == ["(", *[","] * (len(names) - 2), ")"], query.raw_text


def test_colliding_index_names_are_made_unique():
    long_table = "a_rather_long_dimension_table"
    config = make_configuration([
        make_candidate(columns=("a", "b")), make_candidate(columns=("a_b",)),
        make_candidate(columns=("café",)), make_candidate(columns=("cafè",)),
        make_candidate(table=long_table, columns=tuple(f"col x{i}" for i in range(5))),
        make_candidate(table=long_table, columns=tuple(f"col_x{i}" for i in range(5))),
    ])
    ddl = emit_ddl(config)
    names = [line.split()[2] for line in ddl.splitlines()]
    assert len(set(names)) == len(names)
    # The first holder of a name keeps it, so names without a clash never move.
    assert names[0] == "idx_t_a_b" and names[2] == "idx_t_caf_"
    # The first clash digests the exact key ["t", "a_b"], with no retry count.
    assert names[1] == "idx_t_a_b_12c393"
    assert re.fullmatch(r"idx_t_caf__[0-9a-f]{6}", names[3])
    assert len(names[4]) == len(names[5]) == MAX_INDEX_NAME_LENGTH
    for query in parse_workload(ddl):
        assert query.kind is QueryKind.OTHER
        assert query.parse_error is None
    # A digest name can itself be taken, by another candidate's natural name.
    config = make_configuration([
        make_candidate(columns=("a", "b")), make_candidate(columns=("a", "b_12c393")),
        make_candidate(columns=("a_b",)),
    ])
    names = [line.split()[2] for line in emit_ddl(config).splitlines()]
    assert names[:2] == ["idx_t_a_b", "idx_t_a_b_12c393"]
    # The second try digests the key with the retry count 1: ["t", "a_b", 1].
    assert names[2] == "idx_t_a_b_09d2a1"
    assert len(set(names)) == len(names)


# -- reports ---------------------------------------------------------------------


def test_empty_recommendation_reports_cleanly():
    rec = make_recommendation([])
    text = emit_report(rec, "text")
    assert "0 candidates" in text
    meta, rows = parse_structured_report(emit_report(rec, "structured"))
    assert meta["candidates"] == "0"
    assert rows == []


def test_text_report_rows_in_configuration_order():
    rec = make_recommendation(
        [make_candidate(columns=("a",), support=9),
         make_candidate(table="s", columns=("k",), support=5)],
        scores=[2.5, 1.25],
    )
    text = emit_report(rec, "text")
    assert text.index("t") < text.index("s")
    assert "2.500000" in text and "1.250000" in text


def test_reports_are_deterministic():
    rec = make_recommendation([make_candidate()])
    assert emit_report(rec, "text") == emit_report(rec, "text")
    assert emit_report(rec, "structured") == emit_report(rec, "structured")


def test_structured_round_trip_recovers_candidates():
    rec = make_recommendation(
        [make_candidate(columns=("a", "b"), support=4),
         make_candidate(table="s", columns=("k",), support=2)]
    )
    _, rows = parse_structured_report(emit_report(rec, "structured"))
    assert rows == [("t", ("a", "b"), 4), ("s", ("k",), 2)]


def test_structured_header_fields():
    rec = make_recommendation([make_candidate()])
    meta, _ = parse_structured_report(emit_report(rec, "structured"))
    assert meta["format"] == "idxminer.report.v1"
    assert meta["strategy"] == "ALL"
    assert meta["minsup"] == "2"
    assert meta["workload_statements"] == "4"
    assert meta["statements_select"] == "3"


@pytest.mark.parametrize("text, error", [
    ("format: v1\ncandidate\tt\ta\t4\n", "line 2: malformed candidate row"),
    ("format: v1\nminsup 2\n", "line 2: expected 'key: value'"),
])
def test_structured_report_rejects_malformed_lines(text, error):
    with pytest.raises(ValueError, match=error):
        parse_structured_report(text)


def test_structured_report_skips_blank_lines():
    text = emit_report(make_recommendation([make_candidate()]), "structured")
    assert parse_structured_report("\n" + text.replace("\n", "\n  \n")) == \
        parse_structured_report(text)


def test_unknown_report_format_is_rejected():
    with pytest.raises(ValueError, match="unknown report format 'html'"):
        emit_report(make_recommendation([]), "html")
