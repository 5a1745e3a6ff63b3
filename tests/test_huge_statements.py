"""Parse plus extract stays near-linear on single huge statements.

Each shape below grows one statement by a repeated part: a long IN list (of
literals, of numbers alone, or of literals that a name ends), an OR chain,
a wide select list, many subqueries or derived tables, many aliases, a long
string, an INSERT body, or a failing statement whose bad character comes
last. The guard pins a ratio, not a time, since CPU speed drifts too much
for an absolute bound: the median cost of parsing and extracting the
statement at four times its size stays under eight times its cost at 1x.
Linear work gives about 4; quadratic work gives 16. Each shape seeds its own
generator with its name.

Tokenizing a long list of numbers also holds little memory beyond its words:
the regex reads a run of at most 256 numbers at once.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc

import pytest

from idxminer import workload

SCHEMA = workload.parse_schema("TABLE t\n a\n b\n c\n\nTABLE s\n a\n b\n d\n")

# Repeated parts at 1x: each statement is about 3.5 to 16 KB there.
PARTS = 700
RUNS = 5
MAX_RATIO = 8


def literal(rng: random.Random) -> str:
    return str(rng.randint(0, 10 ** 6)) if rng.random() < 0.7 else f"'v{rng.randint(0, 999)}'"


def column(rng: random.Random) -> str:
    return "t." + rng.choice("abc")


# Shape -> (statement of n parts, its expected kind, a piece of its diagnostics).
SHAPES = {
    "in-list": (lambda rng, n: "SELECT a FROM t WHERE t.b IN ("
                + ", ".join(literal(rng) for _ in range(n)) + ")", "SELECT", ""),
    "number-in-list": (lambda rng, n: "SELECT a FROM t WHERE t.b IN ("
                       + ", ".join(str(rng.randint(0, 10 ** 6)) for _ in range(n)) + ")",
                       "SELECT", ""),
    "in-list-ending-in-a-name": (lambda rng, n: "SELECT a FROM t WHERE t.b IN ("
                                 + ", ".join(literal(rng) for _ in range(n)) + ", t.c)",
                                 "SELECT", ""),
    "or-chain": (lambda rng, n: "SELECT a FROM t WHERE "
                 + " OR ".join(f"{column(rng)} = {literal(rng)}" for _ in range(n)),
                 "SELECT", ""),
    "select-list": (lambda rng, n: "SELECT "
                    + ", ".join(f"{column(rng)} + {literal(rng)} AS x{i}" for i in range(n))
                    + " FROM t", "SELECT", ""),
    "unknown-columns": (lambda rng, n: "SELECT a FROM t WHERE "
                        + " AND ".join(f"x{rng.randrange(n)} = {literal(rng)}"
                                       for _ in range(n)),
                        "SELECT", "unresolvable column"),
    "ambiguous-columns": (lambda rng, n: "SELECT * FROM t, s WHERE "
                          + " AND ".join(f"{rng.choice('ab')} = {literal(rng)}"
                                         for _ in range(n)),
                          "SELECT", "ambiguous column"),
    "in-subqueries": (lambda rng, n: "SELECT a FROM t WHERE " + " AND ".join(
        f"{column(rng)} IN (SELECT b FROM s WHERE s.d = {literal(rng)})"
        for _ in range(n // 4)), "SELECT", ""),
    "exists-subqueries": (lambda rng, n: "SELECT a FROM t WHERE " + " OR ".join(
        f"EXISTS (SELECT * FROM s WHERE s.b = {column(rng)})" for _ in range(n // 4)),
        "SELECT", ""),
    "derived-tables": (lambda rng, n: "SELECT * FROM " + ", ".join(
        f"(SELECT a FROM t WHERE t.b = {literal(rng)}) d{i}" for i in range(n // 4))
        + " WHERE d0.a = 1", "SELECT", "belongs to a derived table"),
    "many-aliases": (lambda rng, n: "SELECT * FROM "
                     + ", ".join(f"t a{i}" for i in range(n // 2)) + " WHERE "
                     + " AND ".join(f"a{i}.a = a{i + 1}.b" for i in range(n // 2 - 1)),
                     "SELECT", ""),
    "duplicate-aliases": (lambda rng, n: "SELECT * FROM " + ", ".join("t x" for _ in range(n))
                          + " WHERE x.a = 1", "SELECT", "duplicate alias 'x'"),
    "long-string": (lambda rng, n: "SELECT a FROM t WHERE t.b = '" + "".join(
        rng.choice(["abc", " ", "it''s", "x;y", "--", "é"]) for _ in range(3 * n)) + "'",
        "SELECT", ""),
    "insert-body": (lambda rng, n: "INSERT INTO t VALUES " + ", ".join(
        f"({literal(rng)}, ({literal(rng)}))" for _ in range(n // 2)), "INSERT", ""),
    "parenthesized": (lambda rng, n: "SELECT a FROM t WHERE " + " AND ".join(
        f"(({column(rng)}) = ({literal(rng)}))" for _ in range(n)), "SELECT", ""),
    "bad-character-at-end": (lambda rng, n: "SELECT a FROM t WHERE " + " AND ".join(
        f"{column(rng)} = {literal(rng)}" for _ in range(n)) + " é",
        "OTHER", "unexpected character 'é'"),
}


def parse_and_extract(text: str) -> tuple[list[workload.WorkloadQuery], list[str]]:
    diagnostics: list[str] = []
    queries = workload.parse_workload(text)
    workload.extract_workload(queries, SCHEMA, workload.POSITIONS, diagnostics)
    return queries, diagnostics


def cost(text: str) -> float:
    start = time.perf_counter()
    parse_and_extract(text)
    return time.perf_counter() - start


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_four_times_the_statement_costs_under_eight_times(shape):
    make, kind, diagnostic = SHAPES[shape]
    rng = random.Random(shape)
    (query,), diagnostics = parse_and_extract(make(rng, PARTS))
    assert query.kind.value == kind, query.parse_error
    assert (diagnostic in "\n".join(diagnostics)) if diagnostic else diagnostics == []
    small, large = [], []
    for _ in range(RUNS):
        small.append(cost(make(rng, PARTS)))
        large.append(cost(make(rng, 4 * PARTS)))
    ratio = statistics.median(large) / statistics.median(small)
    assert ratio < MAX_RATIO, f"{shape}: 4x the statement cost {ratio:.1f}x"


def test_tokenizing_a_long_number_list_holds_little_beyond_its_words():
    text = "SELECT a FROM t WHERE t.b IN (" + ", ".join(map(str, range(20_000))) + ")"
    workload.tokenize(text)  # the vocabulary learns the statement's names
    tracemalloc.start()
    try:
        words = workload.tokenize(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 40_011
    # The word list takes 8 bytes a word; reading the list as one match of an
    # unbounded regex repeat held about 290 more.
    assert peak < 64 * len(words), f"{peak / 2 ** 20:.2f} MiB"
