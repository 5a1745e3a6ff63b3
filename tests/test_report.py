from __future__ import annotations

import re

import pytest

from idxminer.advisor import IndexCandidate, IndexConfiguration, Strategy
from idxminer.report import (
    MAX_INDEX_NAME_LENGTH,
    Recommendation,
    _sql_name,
    emit_ddl,
    emit_report,
    index_name,
    parse_structured_report,
)
from idxminer.workload import QueryKind, parse_workload


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
    assert re.fullmatch(r"idx_t_a_b_[0-9a-f]{6}", names[1])
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
    assert re.fullmatch(r"idx_t_a_b_[0-9a-f]{6}", names[2])
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
