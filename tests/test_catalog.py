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


def test_zero_rows_and_one_byte_rows_are_accepted():
    """Only negative counts and non-positive row bytes are errors."""
    assert load_stats("t\t0\t1\nu\t0\n") == {"t": 0, "u": 0}


def test_non_integer_row_bytes_rejected():
    with pytest.raises(StatsError, match="line 1: counts must be integers"):
        load_stats("t\t10\twide\n")


def test_table_names_canonicalized():
    assert "lineitem" in load_stats("LINEITEM\t10\n")


def test_quoted_table_names_read_as_quoted_identifiers():
    rows = load_stats('"Odd-Name"\t10\n"order"\t20\n"A""b"\t30\n"Plain"\t40\n')
    assert rows == {"Odd-Name": 10, "order": 20, 'A"b': 30, "plain": 40}


def test_hash_inside_a_quoted_name_starts_no_comment():
    assert load_stats('"x#y"\t5\n"#"\t6  # note\n') == {"x#y": 5, "#": 6}


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_lines_break_at_line_breaks_only(brk):
    assert load_stats(f"t\t5{brk}\n") == {"t": 5}
    with pytest.raises(StatsError, match=r"^line 2: counts must be integers$"):
        load_stats(f"t\t5{brk}\nu\tx\n")


def test_table_names_cannot_be_empty():
    with pytest.raises(StatsError, match=r"^line 2: empty table name$"):
        load_stats('t\t5\n""\t6\n')
