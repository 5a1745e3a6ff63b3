from __future__ import annotations

import random

import pytest

from idxminer.advisor import (
    IndexCandidate,
    MissingStatsError,
    Strategy,
    build_database,
    derive_candidates,
    estimated_index_bytes,
    mine_tables,
    score,
    select,
)
from idxminer.miner import ClosedItemset
from idxminer.workload import AttributeItem, TransactionContext

# Item ids follow sorted AttributeItem order: s.d=0, s.k=1, t.a=2, t.b=3, t.x=4
ITEMS = {
    0: AttributeItem("s", "d"),
    1: AttributeItem("s", "k"),
    2: AttributeItem("t", "a"),
    3: AttributeItem("t", "b"),
    4: AttributeItem("t", "x"),
}


def candidate(table, columns, support=1):
    return IndexCandidate(table=table, columns=tuple(columns), support=support)


# -- build_database -----------------------------------------------------------


def test_build_database_assigns_ids_by_sorted_attribute_order():
    contexts = [
        TransactionContext(0, frozenset({AttributeItem("t", "a"), AttributeItem("s", "k")})),
        TransactionContext(1, frozenset({AttributeItem("s", "d")})),
        TransactionContext(2, frozenset({AttributeItem("s", "k"), AttributeItem("t", "a")})),
    ]
    db, items_by_id = build_database(contexts)
    assert [str(items_by_id[i]) for i in db.universe] == ["s.d", "s.k", "t.a"]
    # Distinct rows in order of first occurrence, each with its count.
    assert db.transactions == (frozenset({1, 2}), frozenset({0}))
    assert db.counts == (2, 1)


def test_build_database_empty():
    db, items_by_id = build_database([])
    assert db.transactions == () and db.counts == ()
    assert items_by_id == {}
    assert mine_tables(db, items_by_id, 0) == []


def database(*rows: tuple[int, set[str]]):
    """``build_database`` over ``count`` copies of each set of "table.column" names."""
    return build_database([
        TransactionContext(0, frozenset(AttributeItem(*name.split(".")) for name in names))
        for count, names in rows for _ in range(count)
    ])


# -- derive_candidates ---------------------------------------------------------


def test_cross_table_itemset_splits_per_table():
    db, items_by_id = database((4, {"s.k", "t.a", "t.b"}))
    closed = mine_tables(db, items_by_id, 1)
    assert [c.support for c in closed] == [4, 4]
    got = derive_candidates(closed, items_by_id)
    assert [(c.table, c.columns, c.support) for c in got] == [
        ("s", ("k",), 4),
        ("t", ("a", "b"), 4),
    ]


def test_singleton_passthrough():
    closed = [ClosedItemset(items=(2,), support=3)]
    got = derive_candidates(closed, ITEMS)
    assert [(c.table, c.columns, c.support) for c in got] == [("t", ("a",), 3)]


def test_maximal_only_toggle():
    closed = [
        ClosedItemset(items=(2,), support=5),
        ClosedItemset(items=(2, 3), support=3),
    ]
    kept = derive_candidates(closed, ITEMS, maximal_only=True)
    assert [(c.table, c.columns, c.support) for c in kept] == [("t", ("a", "b"), 3)]
    both = derive_candidates(closed, ITEMS, maximal_only=False)
    assert {(c.table, c.columns, c.support) for c in both} == {
        ("t", ("a",), 5),
        ("t", ("a", "b"), 3),
    }


def test_equal_projections_merge_summing_counts():
    # t.a is the whole t-projection of both rows, so it is mined from one
    # row of count 9; s.k sits in the first row only.
    db, items_by_id = database((6, {"s.k", "t.a"}), (3, {"t.a"}), (2, set()))
    assert db.counts == (6, 3, 2)
    closed = mine_tables(db, items_by_id, 1)
    assert closed == [ClosedItemset(items=(0,), support=6),
                      ClosedItemset(items=(1,), support=9)]
    got = derive_candidates(closed, items_by_id)
    assert [(c.table, c.columns, c.support) for c in got] == [
        ("t", ("a",), 9),
        ("s", ("k",), 6),
    ]


def test_column_order_follows_singleton_support_then_name():
    # b is more frequent than a, so it leads the composite key.
    closed = [
        ClosedItemset(items=(3,), support=7),
        ClosedItemset(items=(2, 3), support=4),
    ]
    got = derive_candidates(closed, ITEMS)
    assert got[0].columns == ("b", "a")


def test_support_coherence_against_singletons():
    rng = random.Random(31)
    for _ in range(30):
        rows = [
            frozenset(
                AttributeItem(t, c)
                for t, cols in (("t", "ab"), ("s", "kd"))
                for c in cols
                if rng.random() < 0.5
            )
            for _ in range(rng.randint(1, 15))
        ]
        contexts = [TransactionContext(i, row) for i, row in enumerate(rows)]
        db, items_by_id = build_database(contexts)
        if not db.universe:
            continue
        closed = mine_tables(db, items_by_id, 1)
        rows_with = {
            (a.table, a.column): sum(c for row, c in zip(db.transactions, db.counts)
                                     if i in row)
            for i, a in items_by_id.items()
        }
        for cand in derive_candidates(closed, items_by_id, maximal_only=False):
            cap = min(rows_with[cand.table, col] for col in cand.columns)
            assert cand.support <= cap


def test_maximal_only_matches_strict_superset_definition():
    rng = random.Random(53)
    for _ in range(40):
        tables = {f"t{k}": tuple(f"c{j}" for j in range(rng.randint(1, 6)))
                  for k in range(rng.randint(2, 3))}
        rows = [
            frozenset(
                AttributeItem(table, column)
                for table, columns in tables.items()
                for column in columns
                if rng.random() < 0.5
            )
            for _ in range(rng.randint(1, 12))
        ]
        db, items_by_id = build_database([
            TransactionContext(i, row) for i, row in enumerate(rows)
        ])
        if not db.universe:
            continue
        closed = mine_tables(db, items_by_id, 1)
        everything = derive_candidates(closed, items_by_id, maximal_only=False)
        expected = [
            cand for cand in everything
            if not any(other.table == cand.table
                       and set(cand.columns) < set(other.columns)
                       for other in everything)
        ]
        assert derive_candidates(closed, items_by_id) == expected


def test_maximal_only_matches_strict_superset_definition_at_scale():
    """Three-table families, the first with over 2,000 closed sets on one table,
    fed in shuffled order: the filter keeps exactly the sets no other set on
    their table strictly contains."""
    rng = random.Random(1818)
    for n_columns, n_rows in ((12, 300), (6, 60), (8, 120)):
        tables = {"big": [f"c{j:02d}" for j in range(n_columns)],
                  "s": ["d", "e", "k"], "u": ["x", "y"]}
        rows = [
            frozenset(AttributeItem(table, column)
                      for table, columns in tables.items()
                      for column in columns if rng.random() < 0.5)
            for _ in range(n_rows)
        ]
        db, items_by_id = build_database([
            TransactionContext(i, row) for i, row in enumerate(rows)
        ])
        closed = mine_tables(db, items_by_id, 1)
        rng.shuffle(closed)
        everything = derive_candidates(closed, items_by_id, maximal_only=False)
        if n_columns == 12:
            assert sum(cand.table == "big" for cand in everything) >= 2000
        on_table: dict[str, list[set[str]]] = {}
        for cand in everything:
            on_table.setdefault(cand.table, []).append(set(cand.columns))
        expected = [cand for cand in everything
                    if not any(set(cand.columns) < other for other in on_table[cand.table])]
        assert derive_candidates(closed, items_by_id) == expected


def test_raising_minsup_never_adds_candidates():
    rng = random.Random(17)
    for _ in range(20):
        rows = [
            frozenset(
                AttributeItem(t, c)
                for t, cols in (("t", "abx"), ("s", "kd"))
                for c in cols
                if rng.random() < 0.4
            )
            for _ in range(rng.randint(1, 20))
        ]
        db, items_by_id = build_database([
            TransactionContext(i, row) for i, row in enumerate(rows)
        ])
        if not db.universe:
            continue
        n = sum(db.counts)
        previous = None
        for threshold in range(1, n + 1):
            closed = mine_tables(db, items_by_id, threshold)
            got = {
                (c.table, c.columns, c.support)
                for c in derive_candidates(closed, items_by_id,
                                           maximal_only=False)
            }
            if previous is not None:
                assert got <= previous
            previous = got


# -- select -------------------------------------------------------------------


def test_select_all_keeps_every_candidate():
    pool = [candidate("t", ["a"]), candidate("t", ["b"]), candidate("s", ["k"]),
            candidate("s", ["d"]), candidate("t", ["a", "b"])]
    config = select(pool, Strategy.ALL, dict(t=10, s=10), workload_size=4)
    assert len(config.candidates) == 5
    assert set(config.candidates) == set(pool)


def test_select_large_tables_filters_small_ones():
    pool = [candidate("big", ["a"], support=2), candidate("tiny", ["b"], support=2)]
    config = select(pool, Strategy.LARGE_TABLES, dict(big=6_000_000, tiny=25),
                    threshold_rows=100_000, workload_size=4)
    assert [c.table for c in config.candidates] == ["big"]


def test_select_large_tables_threshold_is_inclusive():
    pool = [candidate("big", ["a"], support=2), candidate("tiny", ["b"], support=2),
            candidate("edge", ["c"], support=2), candidate("empty", ["d"], support=2)]
    rows = dict(big=6_000_000, tiny=25, edge=100_000, empty=0)
    config = select(pool, Strategy.LARGE_TABLES, rows,
                    threshold_rows=100_000, workload_size=4)
    # A table of exactly the threshold's row count is large.
    assert [c.table for c in config.candidates] == ["big", "edge"]
    config = select(pool, Strategy.LARGE_TABLES, rows, threshold_rows=0,
                    workload_size=4)
    assert {c.table for c in config.candidates} == {"big", "tiny", "edge", "empty"}


def test_select_large_tables_is_subset_of_all():
    rng = random.Random(8)
    for _ in range(25):
        pool = [
            candidate(f"t{i}", ["c"], support=rng.randint(1, 9))
            for i in range(rng.randint(0, 8))
        ]
        stats = {f"t{i}": rng.randrange(0, 10**6) for i in range(8)}
        threshold = rng.randrange(0, 10**6)
        all_kept = select(pool, Strategy.ALL, stats, threshold, workload_size=10)
        large = select(pool, Strategy.LARGE_TABLES, stats, threshold, workload_size=10)
        assert set(large.candidates) <= set(all_kept.candidates)


def test_select_missing_stats_lists_tables():
    pool = [candidate("known", ["a"]), candidate("ghost", ["b"])]
    with pytest.raises(MissingStatsError, match="table\\(s\\): 'ghost'$"):
        select(pool, Strategy.LARGE_TABLES, dict(known=10), workload_size=2)
    with pytest.raises(MissingStatsError, match="table\\(s\\): 'ghost', 'known'$"):
        select(pool, Strategy.LARGE_TABLES, {}, workload_size=2)


def test_select_orders_by_score_then_name():
    pool = [
        candidate("t", ["a"], support=1),
        candidate("t", ["b"], support=4),
        candidate("s", ["k"], support=4),
    ]
    config = select(pool, Strategy.ALL, dict(t=1000, s=1000), workload_size=4)
    assert [c.columns[0] for c in config.candidates] == ["k", "b", "a"]
    scores = [value for _, value, _ in config.rows]
    assert scores == sorted(scores, reverse=True)


def test_select_without_stats_scores_zero_with_diagnostic():
    diags = []
    config = select([candidate("t", ["a"], support=3)], Strategy.ALL, {},
                    workload_size=3, diagnostics=diags)
    assert [(value, size) for _, value, size in config.rows] == [(0.0, 0)]
    assert diags == ["no statistics for table 't'; score set to 0"]


def test_select_without_stats_reports_each_table_once():
    diags = []
    pool = [candidate("t", ["a"]), candidate("s", ["k"]), candidate("t", ["a", "b"]),
            candidate("s", ["d"]), candidate("t", ["b"])]
    config = select(pool, Strategy.ALL, {}, workload_size=3, diagnostics=diags)
    assert len(config.rows) == 5
    assert diags == ["no statistics for table 't'; score set to 0",
                     "no statistics for table 's'; score set to 0"]


def test_select_rejects_duplicate_candidates():
    dupe = [candidate("t", ["a"]), candidate("t", ["a"])]
    with pytest.raises(ValueError):
        select(dupe, Strategy.ALL, {}, workload_size=1)


# -- score --------------------------------------------------------------------


def test_score_zero_support_scores_zero():
    assert score(candidate("t", ["a"], support=0), 500, 20) == 0.0


def test_score_rejects_an_empty_workload():
    with pytest.raises(ValueError, match="workload_size must be >= 1"):
        score(candidate("t", ["a"], support=0), 500, 0)


def test_score_example_value():
    got = score(candidate("t", ["a"], support=10), 1, 20)
    assert got == pytest.approx(0.5)


def test_score_monotone_in_row_count():
    small = score(candidate("t", ["a"], support=5), 1000, 10)
    large = score(candidate("t", ["a"], support=5), 2000, 10)
    assert large >= small


def test_estimated_bytes_grow_with_key_width():
    single = estimated_index_bytes(candidate("t", ["a"]), 1000)
    double = estimated_index_bytes(candidate("t", ["a", "b"]), 1000)
    assert single == 1000 * 24
    assert double == 1000 * 40
