from __future__ import annotations

import pytest

from idxminer.catalog import StatsError, load_stats


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


def test_quoted_table_names_read_as_quoted_identifiers():
    rows = load_stats('"Odd-Name"\t10\n"order"\t20\n"A""b"\t30\n"Plain"\t40\n')
    assert rows == {"Odd-Name": 10, "order": 20, 'A"b': 30, "plain": 40}
