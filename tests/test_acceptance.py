"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS] line when its criterion holds; run with
``pytest -v -s tests/test_acceptance.py`` to see them. Randomized cases are
seeded so every run checks the same inputs.
"""

from __future__ import annotations

import ast
import math
import random
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import (
    FIXTURES,
    GOLDEN,
    SCHEMA_PATH,
    STATS_PATH,
    WORKLOAD_PATH,
    extract_one,
    run_cli_process,
)
from bruteforce import mine_bruteforce

from idxminer.advisor import (
    IndexCandidate,
    Strategy,
    build_database,
    select,
)
from idxminer.cli import main
from idxminer.miner import (
    TransactionDatabase,
    mine_closed,
)
from idxminer.report import parse_structured_report
from idxminer.workload import (
    extract_workload,
    parse_schema,
    parse_workload,
)

SEED = 20240117
N_RANDOM_DATABASES = 500


@lru_cache(maxsize=1)
def random_databases() -> tuple[TransactionDatabase, ...]:
    rng = random.Random(SEED)
    databases = []
    for _ in range(N_RANDOM_DATABASES):
        n_items = rng.randint(1, 12)
        n_rows = rng.randint(1, 30)
        density = rng.uniform(0.05, 0.7)
        rows = [
            {i for i in range(n_items) if rng.random() < density}
            for _ in range(n_rows)
        ]
        databases.append(TransactionDatabase.from_transactions(rows))
    return tuple(databases)


def scan_support(db: TransactionDatabase, itemset) -> int:
    wanted = frozenset(itemset)
    return sum(count for row, count in zip(db.transactions, db.counts) if wanted <= row)


def test_miner_oracle_equivalence():
    """mine_closed equals the brute-force oracle on 500 random databases."""
    started = time.monotonic()
    rng = random.Random(SEED + 1)
    comparisons = 0
    for db in random_databases():
        n = len(db.transactions)
        oracle_all = mine_bruteforce(db, 1)
        # Spot-check that filtering the minsup-1 oracle matches a direct
        # oracle run at an arbitrary threshold.
        probe = rng.randint(1, n)
        direct = mine_bruteforce(db, probe)
        assert direct == [c for c in oracle_all if c.support >= probe]
        for threshold in range(1, n + 1):
            expected = [c for c in oracle_all if c.support >= threshold]
            assert mine_closed(db, threshold) == expected
            comparisons += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle equivalence exceeded budget: {elapsed:.1f}s"
    print(f"\n[PASS] miner oracle equivalence "
          f"({len(random_databases())} databases, {comparisons} thresholds, "
          f"{elapsed:.1f}s)")


def test_miner_oracle_equivalence_on_counted_rows():
    """The same 500 databases, each row given a count: mine_closed sums them."""
    rng = random.Random(SEED + 2)
    comparisons = 0
    for db in random_databases():
        counted = TransactionDatabase.from_transactions(
            db.transactions, [rng.randint(1, 4) for _ in db.transactions])
        oracle_all = mine_bruteforce(counted, 1)
        for threshold in range(1, sum(counted.counts) + 1):
            expected = [c for c in oracle_all if c.support >= threshold]
            assert mine_closed(counted, threshold) == expected
            comparisons += 1
    print(f"\n[PASS] miner oracle equivalence on counted rows "
          f"({len(random_databases())} databases, {comparisons} thresholds)")


def test_miner_structural_properties():
    """Closedness, anti-monotonicity, exact supports, threshold monotonicity."""
    for db in random_databases():
        n = len(db.transactions)
        previous = None
        for threshold in (1, max(1, n // 2), n):
            results = mine_closed(db, threshold)
            for closed in results:
                base = set(closed.items)
                assert scan_support(db, base) == closed.support
                for extra in db.universe:
                    if extra not in base:
                        assert scan_support(db, base | {extra}) < closed.support
            for x in results:
                for y in results:
                    if set(x.items) < set(y.items):
                        assert x.support >= y.support
            current = set(results)
            if previous is not None:
                assert current <= previous
            previous = current
    print(f"\n[PASS] miner structural properties ({len(random_databases())} databases)")


EXPECTED_CANDIDATES = [
    ("lineitem", ("l_shipdate",), 9),
    ("customer", ("c_custkey",), 8),
    ("lineitem", ("l_orderkey",), 6),
    ("lineitem", ("l_quantity",), 6),
    ("orders", ("o_orderdate", "o_custkey"), 6),
    ("orders", ("o_orderkey",), 6),
]


def test_pipeline_golden(fixture_args, tmp_path):
    """Fixture workload at minsup 0.25 pins the candidate list and the DDL bytes."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(fixture_args(out=out_a)) == 0
    assert main(fixture_args(out=out_b)) == 0

    golden_sql = (GOLDEN / "recommendation.sql").read_bytes()
    assert (out_a / "recommendation.sql").read_bytes() == golden_sql
    assert (out_b / "recommendation.sql").read_bytes() == golden_sql
    for name in ("report.txt", "report.dat"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / name).read_bytes() == (GOLDEN / name).read_bytes()

    _, rows = parse_structured_report(
        (out_a / "report.dat").read_text(encoding="utf-8")
    )
    assert rows == EXPECTED_CANDIDATES

    # Independent completeness check of the mined sets behind the golden: a
    # frequent closed itemset only ever contains frequent items, so the
    # brute-force oracle on the frequent-item projection is exact.
    schema = parse_schema(SCHEMA_PATH.read_text(encoding="utf-8"))
    queries = parse_workload(WORKLOAD_PATH.read_text(encoding="utf-8"))
    contexts = extract_workload(queries, schema)
    db, _ = build_database(contexts)
    threshold = math.ceil(Fraction(1, 4) * len(queries))
    frequent = {i for i in db.universe if scan_support(db, {i}) >= threshold}
    assert len(frequent) <= 20
    projected = TransactionDatabase.from_transactions(
        [row & frequent for row in db.transactions], db.counts
    )
    assert mine_closed(db, threshold) == mine_bruteforce(projected, threshold)
    print("\n[PASS] pipeline golden (pinned candidates, byte-identical outputs)")


GOLDEN_RUNS = {
    "tpcr": (["--workload", str(WORKLOAD_PATH), "--schema", str(SCHEMA_PATH),
              "--stats", str(STATS_PATH), "--minsup", "0.25"], GOLDEN),
    "diagnostics": (["--workload", str(FIXTURES / "diagnostics_workload.sql"),
                     "--schema", str(FIXTURES / "diagnostics_schema.txt"),
                     "--stats", str(FIXTURES / "diagnostics_stats.txt"),
                     "--minsup", "2"], GOLDEN / "diagnostics"),
}
OUTPUT_FILES = ("recommendation.sql", "report.txt", "report.dat")


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_outputs_ignore_hash_seed_and_warm_memo(name, tmp_path, capsys):
    """Runs under two hash seeds, and two runs in one process, match the golden."""
    args, golden = GOLDEN_RUNS[name]
    stderr = golden / "stderr.txt"
    expected_err = stderr.read_bytes() if stderr.exists() else b""
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hash-seed-{seed}"
        done = run_cli_process([*args, "--out", str(out), "-v"],
                               PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8")
        assert done.returncode == 0, done.stderr
        runs.append((out, done.stdout, done.stderr))
    for again in ("first", "second"):  # the second meets the first's vocabulary
        out = tmp_path / f"in-process-{again}"
        assert main([*args, "--out", str(out), "-v"]) == 0
        captured = capsys.readouterr()
        runs.append((out, captured.out.encode(), captured.err.encode()))
    for out, stdout, err in runs:
        for file in OUTPUT_FILES:
            assert (out / file).read_bytes() == (golden / file).read_bytes(), (out, file)
        assert stdout == (golden / "report.txt").read_bytes(), out
        assert err == expected_err, out
    print(f"\n[PASS] {name} outputs identical under hash seeds 0 and 1 and a warm memo")


@pytest.mark.parametrize("mode", ["-v", "--mine-only"])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_no_read_or_write_leaves_out_its_encoding(name, mode, tmp_path):
    """Under EncodingWarning as an error, every file the CLI opens names its encoding."""
    args, _ = GOLDEN_RUNS[name]
    done = run_cli_process(
        [*args, "--out", str(tmp_path / "out"), mode],
        python_flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"),
    )
    assert done.returncode == 0, done.stderr
    assert b"EncodingWarning" not in done.stderr
    print(f"\n[PASS] {name} {mode} runs clean under EncodingWarning as an error")


def test_diagnostics_golden(tmp_path, capsys):
    """A log that triggers every extractor diagnostic pins their order and text."""
    out = tmp_path / "out"
    args, _ = GOLDEN_RUNS["diagnostics"]
    assert main([*args, "--out", str(out), "-v"]) == 0
    captured = capsys.readouterr()
    golden = GOLDEN / "diagnostics"
    for name in ("recommendation.sql", "report.txt", "report.dat"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
    assert captured.out == (golden / "report.txt").read_text(encoding="utf-8")
    assert captured.err == (golden / "stderr.txt").read_text(encoding="utf-8")
    print("\n[PASS] diagnostics golden (every extractor diagnostic, byte-identical)")


def random_pool(rng: random.Random):
    tables = [f"t{i}" for i in range(rng.randint(1, 8))]
    candidates = []
    seen = set()
    for _ in range(rng.randint(0, 12)):
        table = rng.choice(tables)
        width = rng.randint(1, 3)
        columns = tuple(f"c{j}" for j in rng.sample(range(6), width))
        if (table, columns) in seen:
            continue
        seen.add((table, columns))
        candidates.append(IndexCandidate(table=table, columns=columns,
                                         support=rng.randint(1, 9)))
    return candidates, {t: rng.randrange(0, 10**7) for t in tables}


def test_strategy_properties(tmp_path, capsys):
    """LARGE_TABLES selects a subset of ALL and shrinks as thresholds rise."""
    rng = random.Random(SEED + 2)
    for _ in range(200):
        candidates, row_counts = random_pool(rng)
        threshold = rng.randrange(0, 10**7)
        everything = select(candidates, Strategy.ALL, row_counts, threshold,
                            workload_size=20)
        large = select(candidates, Strategy.LARGE_TABLES, row_counts, threshold,
                       workload_size=20)
        assert set(large.candidates) <= set(everything.candidates)
        higher = select(candidates, Strategy.LARGE_TABLES, row_counts,
                        min(10**7, threshold * 2 + 1), workload_size=20)
        assert set(higher.candidates) <= set(large.candidates)

    partial = tmp_path / "partial_stats.txt"
    partial.write_text("lineitem\t6000000\t120\n", encoding="utf-8")
    exit_code = main([
        "--workload", str(WORKLOAD_PATH),
        "--schema", str(SCHEMA_PATH),
        "--stats", str(partial),
        "--minsup", "0.25",
        "--strategy", "large-tables",
        "--out", str(tmp_path / "out"),
    ])
    assert exit_code == 1
    capsys.readouterr()
    print("\n[PASS] strategy properties (200 random pools, exit-1 on missing stats)")


ALIAS_TEMPLATES = [
    "SELECT {c}.c_name FROM customer {c} "
    "WHERE {c}.c_acctbal > {lit} ORDER BY {c}.c_name",
    "SELECT {o}.o_orderkey FROM orders {o} INNER JOIN customer {c} "
    "ON {o}.o_custkey = {c}.c_custkey WHERE {c}.c_mktsegment = '{seg}'",
    "SELECT {l}.l_orderkey, sum({l}.l_extendedprice) FROM lineitem {l}, orders {o} "
    "WHERE {l}.l_orderkey = {o}.o_orderkey AND {o}.o_orderdate < date '1995-0{m}-01' "
    "GROUP BY {l}.l_orderkey",
    "SELECT count(*) FROM lineitem {l} WHERE {l}.l_shipdate >= date '199{m}-01-01' "
    "AND {l}.l_discount BETWEEN 0.0{m} AND 0.07",
    "SELECT {c}.c_custkey FROM customer {c} WHERE {c}.c_custkey IN "
    "(SELECT {o}.o_custkey FROM orders {o} WHERE {o}.o_totalprice > {lit})",
    "SELECT {n}.n_name, count(*) FROM nation {n} INNER JOIN customer {c} "
    "ON {n}.n_nationkey = {c}.c_nationkey GROUP BY {n}.n_name HAVING count(*) > {m}",
    "SELECT {p}.p_type FROM part {p}, lineitem {l} "
    "WHERE {p}.p_partkey = {l}.l_partkey AND {p}.p_size = {m} ORDER BY {p}.p_type",
    "UPDATE orders SET o_orderstatus = 'F' WHERE o_orderdate < date '199{m}-01-01'",
    "DELETE FROM lineitem WHERE l_shipdate < date '199{m}-06-01' AND l_quantity = 0",
    "SELECT {s}.s_name FROM supplier {s} LEFT JOIN nation {n} "
    "ON {s}.s_nationkey = {n}.n_nationkey WHERE {n}.n_regionkey = {m}",
]

ALIASES_A = {"c": "c", "o": "o", "l": "l", "n": "n", "p": "p", "s": "s"}
ALIASES_B = {"c": "cst_9", "o": "ord_9", "l": "lin_9", "n": "nat_9",
             "p": "prt_9", "s": "sup_9"}


def render_corpus(aliases) -> list[str]:
    corpus = []
    for variant in range(3):
        for template in ALIAS_TEMPLATES:
            corpus.append(template.format(
                lit=1000 + 17 * variant, seg=["AUTO", "BUILDING", "MACHINERY"][variant],
                m=variant + 2, **aliases,
            ))
    return corpus


def test_extraction_properties():
    """Alias renaming never changes the item set; items always match the schema."""
    schema = parse_schema(SCHEMA_PATH.read_text(encoding="utf-8"))
    corpus_a = render_corpus(ALIASES_A)
    corpus_b = render_corpus(ALIASES_B)
    assert len(corpus_a) == 30
    for sql_a, sql_b in zip(corpus_a, corpus_b):
        (query_a,) = parse_workload(sql_a)
        (query_b,) = parse_workload(sql_b)
        assert query_a.parse_error is None, (sql_a, query_a.parse_error)
        diagnostics: list[str] = []
        items_a = extract_one(query_a, schema, diagnostics=diagnostics).items
        items_b = extract_one(query_b, schema, diagnostics=diagnostics).items
        assert items_a == items_b, sql_a
        assert diagnostics == [], sql_a
        assert items_a, sql_a
        for item in items_a:
            assert item.column in schema[item.table]
    print("\n[PASS] extraction properties (30-query corpus, alias invariance)")


def test_score_model_substitute_check():
    """Positive support on a populated table always scores above zero, and the
    reported benefit order is exactly the score order."""
    rng = random.Random(SEED + 3)
    for _ in range(200):
        candidates, row_counts = random_pool(rng)
        config = select(candidates, Strategy.ALL, row_counts, workload_size=30)
        for candidate, value, _ in config.rows:
            row_count = row_counts[candidate.table]
            if candidate.support > 0 and row_count > 0:
                assert value > 0.0
        scores = [value for _, value, _ in config.rows]
        assert scores == sorted(scores, reverse=True)
    print("\n[PASS] score model substitute check (200 random configurations)")


CLI_MATRIX = [
    (["--minsup", "0.25"], 0),                      # clean run
    (["--minsup", "3"], 0),                         # absolute threshold
    (["--mine-only"], 0),                           # debug dump
    (["--minsup", "0"], 1),                         # invalid threshold
    (["--minsup", "-1"], 1),                        # invalid threshold
    (["--minsup", "2.5"], 1),                       # fraction out of range
    (["--strategy", "sideways"], 1),                # bad flag value
    (["--dialect", "tsql"], 1),                     # unrecognized argument
    (["--threshold-rows", "-4"], 1),                # negative threshold
    (["--policy", "nowhere"], 1),                   # unknown policy position
]


@pytest.mark.parametrize("extra,expected", CLI_MATRIX)
def test_cli_contract_matrix(fixture_args, capsys, extra, expected):
    args = fixture_args(*extra)
    assert main(args) == expected


def test_cli_contract_file_level_failures(fixture_args, tmp_path, capsys):
    missing = fixture_args()
    missing[missing.index("--workload") + 1] = str(tmp_path / "absent.sql")
    assert main(missing) == 2

    undecodable = tmp_path / "latin.sql"
    undecodable.write_bytes(b"SELECT '\xff' FROM t;")
    args = fixture_args()
    args[args.index("--workload") + 1] = str(undecodable)
    assert main(args) == 2

    no_stats = fixture_args("--strategy", "large-tables")
    del no_stats[no_stats.index("--stats") + 1]
    no_stats.remove("--stats")
    assert main(no_stats) == 1
    capsys.readouterr()
    print("\n[PASS] CLI contract (exit codes 0/1/2 across the invocation matrix)")


def test_runtime_is_stdlib_only():
    """The package imports only the standard library and itself."""
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "idxminer").rglob("*.py"))
    assert modules
    outside = []
    seen = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                seen.add(f"{path.name}: {top}")
                if top != "__future__" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
    # The walk reaches imports inside functions, as the digest modules are.
    assert {"report.py: hashlib", "report.py: json"} <= seen
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
    print(f"\n[PASS] stdlib-only runtime ({len(modules)} modules)")
