from __future__ import annotations

import random
from fractions import Fraction

import pytest

from idxminer.miner import (
    BRUTE_FORCE_MAX_ITEMS,
    ClosedItemset,
    MinSupport,
    TransactionDatabase,
    canonical_order,
    closure,
    mine_bruteforce,
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


# -- mine_closed --------------------------------------------------------------


def test_three_row_example():
    got = mine_closed(THREE_ROWS, MinSupport(2))
    assert got == [
        ClosedItemset(items=(A,), support=3),
        ClosedItemset(items=(A, B), support=2),
        ClosedItemset(items=(A, C), support=2),
    ]


def test_empty_transaction_list():
    db = TransactionDatabase.from_transactions([])
    assert mine_closed(db, MinSupport(1)) == []
    assert mine_closed(db, MinSupport(0.5)) == []


def test_threshold_above_every_support():
    assert mine_closed(THREE_ROWS, MinSupport(4)) == []


def test_empty_rows_keep_counting_in_fraction_resolution():
    db = TransactionDatabase.from_transactions([{A}, set(), set(), set()])
    # 0.5 of 4 rows resolves to 2, which {A} does not reach.
    assert mine_closed(db, MinSupport(0.5)) == []
    assert mine_closed(db, MinSupport(0.25)) == [ClosedItemset(items=(A,), support=1)]


def test_canonical_output_order():
    db = TransactionDatabase.from_transactions([{A, B}, {A, B}, {C}, {C}, {A}])
    got = mine_closed(db, MinSupport(2))
    assert got == canonical_order(got)
    assert [c.support for c in got] == sorted((c.support for c in got), reverse=True)


def test_mining_is_repeatable():
    rng = random.Random(7)
    db = random_database(rng)
    assert mine_closed(db, MinSupport(2)) == mine_closed(db, MinSupport(2))


# -- closure ------------------------------------------------------------------


def test_closure_of_b_over_three_rows():
    assert closure({B}, THREE_ROWS) == {A, B}


def test_closure_of_empty_set_is_common_items():
    assert closure(set(), THREE_ROWS) == {A}


def test_closure_unsupported_returns_none():
    db = TransactionDatabase.from_transactions([{A}, {B}])
    assert closure({A, B}, db) is None


def test_closure_rejects_items_outside_universe():
    with pytest.raises(ValueError):
        closure({99}, THREE_ROWS)


# -- MinSupport ---------------------------------------------------------------


def test_minsup_absolute_passthrough():
    assert MinSupport(3).resolve(100) == 3


@pytest.mark.parametrize(
    "value,n,expected",
    [
        (0.25, 22, 6),
        (0.1, 30, 3),  # must not become 4 through float noise
        (1.0, 7, 7),
        (Fraction(1, 3), 9, 3),
        (0.5, 5, 3),
    ],
)
def test_minsup_fraction_resolves_by_ceiling(value, n, expected):
    assert MinSupport(value).resolve(n) == expected


@pytest.mark.parametrize("bad", [0, -2, 0.0, 1.5, -0.1, True, "3"])
def test_minsup_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        MinSupport(bad)


# -- brute-force oracle ---------------------------------------------------------


def test_bruteforce_three_row_example():
    assert mine_bruteforce(THREE_ROWS, MinSupport(2)) == mine_closed(
        THREE_ROWS, MinSupport(2)
    )


def test_bruteforce_refuses_large_universe():
    db = TransactionDatabase.from_transactions(
        [set(range(BRUTE_FORCE_MAX_ITEMS + 1))]
    )
    with pytest.raises(ValueError):
        mine_bruteforce(db, MinSupport(1))


def test_oracle_equivalence_smoke():
    rng = random.Random(2024)
    for _ in range(60):
        db = random_database(rng)
        everything = mine_bruteforce(db, MinSupport(1))
        for threshold in range(1, len(db.transactions) + 1):
            expected = [c for c in everything if c.support >= threshold]
            assert mine_closed(db, MinSupport(threshold)) == expected


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
            everything = mine_bruteforce(db, MinSupport(1))
            for threshold in range(1, len(db.transactions) + 1):
                expected = [c for c in everything if c.support >= threshold]
                assert mine_closed(db, MinSupport(threshold)) == expected


def test_staircase_chain_of_closed_sets():
    # Row i is {0..i}: every prefix is closed, nested 1,100 deep.
    n = 1100
    db = TransactionDatabase.from_transactions(set(range(i + 1)) for i in range(n))
    assert mine_closed(db, MinSupport(1)) == [
        ClosedItemset(items=tuple(range(k + 1)), support=n - k) for k in range(n)
    ]


# -- structural properties ------------------------------------------------------


def test_closedness_and_support_exactness():
    rng = random.Random(99)
    for _ in range(40):
        db = random_database(rng)
        for result in mine_closed(db, MinSupport(1)):
            base = set(result.items)
            assert scan_support(db, base) == result.support
            for extra in db.universe:
                if extra not in base:
                    assert scan_support(db, base | {extra}) < result.support


def test_anti_monotonicity():
    rng = random.Random(4)
    for _ in range(40):
        db = random_database(rng)
        results = mine_closed(db, MinSupport(1))
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
            current = set(mine_closed(db, MinSupport(threshold)))
            if previous is not None:
                assert current <= previous
            previous = current
