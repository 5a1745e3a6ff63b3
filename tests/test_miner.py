from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from bruteforce import BRUTE_FORCE_MAX_ITEMS, at_threshold, mine_bruteforce, mine_by_intersection

from idxminer.cli import main
from idxminer.miner import (
    ClosedItemset,
    TransactionDatabase,
    canonical_order,
    mine_closed,
)

A, B, C = 0, 1, 2
THREE_ROWS = TransactionDatabase.from_transactions([{A, B}, {A, C}, {A, B, C}])


def random_database(rng: random.Random, max_items=12, max_rows=30) -> TransactionDatabase:
    n_items = rng.randint(1, max_items)
    n_rows = rng.randint(1, max_rows)
    density = rng.uniform(0.05, 0.7)
    rows = [
        {i for i in range(n_items) if rng.random() < density} for _ in range(n_rows)
    ]
    return TransactionDatabase.from_transactions(rows)


def scan_support(db: TransactionDatabase, itemset) -> int:
    wanted = frozenset(itemset)
    return sum(1 for row in db.transactions if wanted <= row)


def counted_and_expanded(rng: random.Random) -> tuple[TransactionDatabase, TransactionDatabase]:
    """Distinct rows with counts, and the same rows each repeated count times."""
    db = random_database(rng)
    rows = list(dict.fromkeys(db.transactions))
    counts = [rng.choice([1, 1, 2, 3, 7]) for _ in rows]
    expanded = [row for row, count in zip(rows, counts) for _ in range(count)]
    rng.shuffle(expanded)
    return (TransactionDatabase.from_transactions(rows, counts),
            TransactionDatabase.from_transactions(expanded))


# -- mine_closed --------------------------------------------------------------


def test_three_row_example():
    got = mine_closed(THREE_ROWS, 2)
    assert got == [
        ClosedItemset(items=(A,), support=3),
        ClosedItemset(items=(A, B), support=2),
        ClosedItemset(items=(A, C), support=2),
    ]
    # {A} lies inside {A, B}, which keeps the threshold.
    assert mine_closed(THREE_ROWS, 2, maximal_only=True) == got[1:]


def test_empty_transaction_list():
    db = TransactionDatabase.from_transactions([])
    assert mine_closed(db, 1) == []


@pytest.mark.parametrize("threshold", [0, -1])
def test_threshold_below_one_raises(threshold):
    for db in (THREE_ROWS, TransactionDatabase.from_transactions([])):
        with pytest.raises(ValueError, match="threshold must be >= 1"):
            mine_closed(db, threshold)


def test_threshold_above_every_support():
    assert mine_closed(THREE_ROWS, 4) == []


def test_empty_rows_keep_counting_in_fraction_resolution():
    db = TransactionDatabase.from_transactions([{A}, set(), set(), set()])
    # 0.5 of 4 rows resolves to 2, which {A} does not reach.
    n = sum(db.counts)
    assert mine_closed(db, math.ceil(Fraction(1, 2) * n)) == []
    assert mine_closed(db, math.ceil(Fraction(1, 4) * n)) == [
        ClosedItemset(items=(A,), support=1)]


def test_canonical_output_order():
    db = TransactionDatabase.from_transactions([{A, B}, {A, B}, {C}, {C}, {A}])
    got = mine_closed(db, 2)
    assert got == canonical_order(got)
    assert [c.support for c in got] == sorted((c.support for c in got), reverse=True)


def test_mining_is_repeatable():
    rng = random.Random(7)
    db = random_database(rng)
    assert mine_closed(db, 2) == mine_closed(db, 2)


# -- minimum support: the one count the CLI hands the miner --------------------


def run_minsup(tmp_path, capsys, text, statements):
    """The CLI's exit code and stdout at ``--minsup text`` over a workload of
    ``statements`` copies of one statement."""
    (tmp_path / "w.sql").write_text("SELECT a FROM t WHERE a = 1;\n" * statements,
                                    encoding="utf-8")
    (tmp_path / "s.txt").write_text("TABLE t\n a\n", encoding="utf-8")
    code = main(["--workload", str(tmp_path / "w.sql"), "--schema", str(tmp_path / "s.txt"),
                 "--minsup", text, "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().out


def test_minsup_absolute_passthrough(tmp_path, capsys):
    code, out = run_minsup(tmp_path, capsys, "3", 100)
    assert code == 0
    assert "minimum support: 3 of 100 statements\n" in out


@pytest.mark.parametrize(
    "value,n,expected",
    [
        ("0.25", 22, 6),
        ("0.1", 30, 3),  # must not become 4 through float noise
        ("1.0", 7, 7),
        (Fraction(1, 3), 9, 3),
        ("0.5", 5, 3),
        ("0.0000000001", 100, 1),
    ],
)
def test_minsup_fraction_resolves_by_ceiling(tmp_path, capsys, value, n, expected):
    code, out = run_minsup(tmp_path, capsys, str(value), n)
    assert code == 0
    assert f"minimum support: {expected} of {n} statements\n" in out


COUNT_ERROR = "absolute minimum support must be >= 1"
FRACTION_ERROR = "fractional minimum support must be in (0, 1]"


@pytest.mark.parametrize(
    "bad", [0, -2, 0.0, 1.5, -0.1, "abc", Fraction(0), Fraction(3, 2), True]
)
def test_minsup_rejects_invalid_values(fixture_args, capsys, bad):
    text = str(bad)
    reason = {"0": COUNT_ERROR, "-2": COUNT_ERROR, "0.0": FRACTION_ERROR,
              "1.5": FRACTION_ERROR, "-0.1": FRACTION_ERROR, "3/2": FRACTION_ERROR,
              }.get(text, f"Invalid literal for Fraction: {text!r}")
    assert main(fixture_args("--minsup", text)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid --minsup {text!r}: {reason}\n"


# -- brute-force oracle ---------------------------------------------------------


def test_bruteforce_three_row_example():
    assert mine_bruteforce(THREE_ROWS, 2) == mine_closed(THREE_ROWS, 2)


def test_bruteforce_refuses_large_universe():
    db = TransactionDatabase.from_transactions(
        [set(range(BRUTE_FORCE_MAX_ITEMS + 1))]
    )
    with pytest.raises(ValueError):
        mine_bruteforce(db, 1)


def test_oracle_equivalence_smoke():
    rng = random.Random(2024)
    for _ in range(60):
        db = random_database(rng)
        everything = mine_bruteforce(db, 1)
        for threshold in range(1, len(db.transactions) + 1):
            for maximal_only in (False, True):
                expected = at_threshold(everything, threshold, maximal_only)
                assert mine_closed(db, threshold, maximal_only) == expected


def test_differential_on_wider_universes():
    # The acceptance oracle stops at 12 items; brute force is still cheap at 16.
    rng = random.Random(1316)
    for n_items in (13, 14, 15, 16):
        for _ in range(2):
            db = TransactionDatabase.from_transactions([])
            while len(db.universe) != n_items:
                density = rng.uniform(0.15, 0.6)
                db = TransactionDatabase.from_transactions(
                    {i for i in range(n_items) if rng.random() < density}
                    for _ in range(rng.randint(10, 30))
                )
            everything = mine_bruteforce(db, 1)
            for threshold in range(1, len(db.transactions) + 1):
                for maximal_only in (False, True):
                    expected = at_threshold(everything, threshold, maximal_only)
                    assert mine_closed(db, threshold, maximal_only) == expected


def test_bruteforce_references_agree():
    rng = random.Random(7)
    for _ in range(40):
        db = random_database(rng)
        for threshold in (1, 2, 3):
            for maximal_only in (False, True):
                assert mine_by_intersection(db, threshold, maximal_only) == \
                    mine_bruteforce(db, threshold, maximal_only)


def test_differential_on_wide_sparse_universes():
    # Far beyond brute force: 64-160 items, rows of 2-8 items drawn with a
    # skew, so long tails of infrequent items sit beside frequent ones.
    rng = random.Random(1313)
    for _ in range(12):
        n_items = rng.randint(64, 160)
        weights = [1 / (i + 1) for i in range(n_items)]
        db = TransactionDatabase.from_transactions([])
        while len(db.universe) < 64:
            rows = []
            for _ in range(rng.randint(100, 300)):
                size = rng.randint(2, 8)
                row = set()
                while len(row) < size:
                    row.update(rng.choices(range(n_items), weights, k=size - len(row)))
                rows.append(row)
            db = TransactionDatabase.from_transactions(rows)
        everything = mine_by_intersection(db, 1)
        for threshold in (1, 2, 3):
            for maximal_only in (False, True):
                expected = at_threshold(everything, threshold, maximal_only)
                assert mine_closed(db, threshold, maximal_only) == expected


def test_counted_rows_mine_as_their_expansion():
    rng = random.Random(1604)
    for _ in range(150):
        counted, expanded = counted_and_expanded(rng)
        assert sum(counted.counts) == len(expanded.transactions)
        # Every threshold from 1 to one above the total count.
        for threshold in range(1, sum(counted.counts) + 2):
            for maximal_only in (False, True):
                assert mine_closed(counted, threshold, maximal_only) == \
                    mine_closed(expanded, threshold, maximal_only)


def test_bruteforce_references_sum_counts():
    rng = random.Random(1605)
    for _ in range(40):
        counted, expanded = counted_and_expanded(rng)
        for threshold in (1, 2, 5):
            for maximal_only in (False, True):
                expected = mine_bruteforce(expanded, threshold, maximal_only)
                assert mine_bruteforce(counted, threshold, maximal_only) == expected
                assert mine_by_intersection(counted, threshold, maximal_only) == expected
                assert mine_closed(counted, threshold, maximal_only) == expected


def test_staircase_chain_of_closed_sets():
    # Row i is {0..i}: every prefix is closed, nested 1,100 deep.
    n = 1100
    db = TransactionDatabase.from_transactions(set(range(i + 1)) for i in range(n))
    assert mine_closed(db, 1) == [
        ClosedItemset(items=tuple(range(k + 1)), support=n - k) for k in range(n)
    ]
    assert mine_closed(db, 1, maximal_only=True) == [ClosedItemset(tuple(range(n)), 1)]


# -- structural properties ------------------------------------------------------


def test_closedness_and_support_exactness():
    rng = random.Random(99)
    for _ in range(40):
        db = random_database(rng)
        for result in mine_closed(db, 1):
            base = set(result.items)
            assert scan_support(db, base) == result.support
            for extra in db.universe:
                if extra not in base:
                    assert scan_support(db, base | {extra}) < result.support


def test_anti_monotonicity():
    rng = random.Random(4)
    for _ in range(40):
        db = random_database(rng)
        results = mine_closed(db, 1)
        for x in results:
            for y in results:
                if set(x.items) < set(y.items):
                    assert x.support >= y.support


def test_threshold_monotonicity():
    rng = random.Random(11)
    for _ in range(40):
        db = random_database(rng)
        previous = None
        for threshold in range(1, len(db.transactions) + 1):
            current = {(c.items, c.support) for c in mine_closed(db, threshold)}
            if previous is not None:
                assert current <= previous
            previous = current
