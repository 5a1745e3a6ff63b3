from __future__ import annotations

import random

import pytest

from idxminer.catalog import MissingStatsError, StatsError, is_large, load_stats


def test_load_single_line():
    assert load_stats("lineitem\t6000000\t120\n") == {"lineitem": 6000000}


def test_load_empty_file():
    assert load_stats("") == {}


def test_comments_and_blank_lines_ignored():
    assert load_stats("# header\n\nt\t10\t50  # trailing\n") == {"t": 10}


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


@pytest.mark.parametrize("row_bytes", ["0", "-3"])
def test_non_positive_row_bytes_rejected(row_bytes):
    with pytest.raises(StatsError, match="line 2: non-positive row bytes"):
        load_stats(f"s\t1\nt\t10\t{row_bytes}\n")


def test_non_integer_row_bytes_rejected():
    with pytest.raises(StatsError, match="line 1: counts must be integers"):
        load_stats("t\t10\twide\n")


def test_table_names_canonicalized():
    assert "lineitem" in load_stats("LINEITEM\t10\n")


def test_is_large_direct_comparisons():
    rows = load_stats("big\t6000000\nsmall\t25\n")
    assert is_large("big", rows, 100000)
    assert not is_large("small", rows, 100000)
    assert is_large("small", rows, 0)


def test_is_large_unknown_table_is_an_error():
    with pytest.raises(MissingStatsError):
        is_large("ghost", {}, 10)


def test_is_large_rejects_negative_threshold():
    with pytest.raises(ValueError):
        is_large("t", load_stats("t\t10\n"), -1)


def test_is_large_monotone_in_threshold():
    rng = random.Random(5)
    rows = {f"t{i}": rng.randrange(0, 10**7) for i in range(20)}
    thresholds = sorted(rng.randrange(0, 10**7) for _ in range(10))
    for table in rows:
        flags = [is_large(table, rows, t) for t in thresholds]
        # once the flag drops to False it must stay False as thresholds rise
        assert flags == sorted(flags, reverse=True)
