from __future__ import annotations

import random

import pytest

from idxminer.catalog import (
    DEFAULT_AVG_ROW_BYTES,
    CatalogSnapshot,
    MissingStatsError,
    StatsError,
    TableStats,
    dump_stats,
    is_large,
    load_stats,
)


def test_load_single_line():
    snapshot = load_stats("lineitem\t6000000\t120\n")
    stats = snapshot.get("lineitem")
    assert stats.row_count == 6000000
    assert stats.avg_row_bytes == 120


def test_load_empty_file():
    assert load_stats("").stats == {}


def test_row_bytes_default_applied():
    snapshot = load_stats("t\t10\n")
    assert snapshot.get("t").avg_row_bytes == DEFAULT_AVG_ROW_BYTES


def test_comments_and_blank_lines_ignored():
    snapshot = load_stats("# header\n\nt\t10\t50  # trailing\n")
    assert snapshot.get("t").row_count == 10


def test_duplicate_table_errors_with_line_number():
    with pytest.raises(StatsError, match="line 2"):
        load_stats("t\t1\nt\t2\n")


def test_malformed_line_errors():
    with pytest.raises(StatsError, match="line 1"):
        load_stats("just-one-field\n")
    with pytest.raises(StatsError, match="integers"):
        load_stats("t\tmany\n")


def test_negative_row_count_rejected():
    with pytest.raises(StatsError, match="line 1"):
        load_stats("t\t-5\n")


def test_table_names_canonicalized():
    snapshot = load_stats("LINEITEM\t10\n")
    assert "lineitem" in snapshot


def test_round_trip_is_semantically_identical():
    original = load_stats("b\t2\t30\na\t1\n")
    recovered = load_stats(dump_stats(original))
    assert recovered.stats == original.stats


def test_is_large_direct_comparisons():
    snapshot = load_stats("big\t6000000\nsmall\t25\n")
    assert is_large("big", snapshot, 100000)
    assert not is_large("small", snapshot, 100000)
    assert is_large("small", snapshot, 0)


def test_is_large_unknown_table_is_an_error():
    with pytest.raises(MissingStatsError):
        is_large("ghost", CatalogSnapshot(), 10)


def test_is_large_rejects_negative_threshold():
    snapshot = load_stats("t\t10\n")
    with pytest.raises(ValueError):
        is_large("t", snapshot, -1)


def test_is_large_monotone_in_threshold():
    rng = random.Random(5)
    snapshot = CatalogSnapshot(
        stats={
            f"t{i}": TableStats(table=f"t{i}", row_count=rng.randrange(0, 10**7))
            for i in range(20)
        }
    )
    thresholds = sorted(rng.randrange(0, 10**7) for _ in range(10))
    for table in snapshot.stats:
        flags = [is_large(table, snapshot, t) for t in thresholds]
        # once the flag drops to False it must stay False as thresholds rise
        assert flags == sorted(flags, reverse=True)
