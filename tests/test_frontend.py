"""Pinned behaviour of the SQL front end: statement splitting and tokenizing.

The tables spell out the exact output for inputs where a hand-written
scanner is easy to get wrong; the property tests check invariants over
random text drawn from the SQL alphabet plus some non-ASCII characters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from idxminer.workload import SqlParseError, parse_statement, split_statements, tokenize

SPLIT_CASES = [
    ("", []),
    (" ; ; ", []),
    ("SELECT a FROM t", ["SELECT a FROM t"]),
    ("SELECT a;  \n ", ["SELECT a"]),
    ("SELECT a FROM t -- no newline at end", ["SELECT a FROM t"]),
    ("SELECT a FROM t /* unterminated; x", ["SELECT a FROM t"]),
    ("a--b\nc;d", ["a \nc", "d"]),
    ("a/*x*/b", ["a b"]),
    ("a/*/b*/c", ["a c"]),
    ("--;\n;x", ["x"]),
    ("/* ; */ ; -- ;\n", []),
    ("SELECT ';' FROM t; SELECT 2", ["SELECT ';' FROM t", "SELECT 2"]),
    ('SELECT "a;b" FROM t;c', ['SELECT "a;b" FROM t', "c"]),
    ("SELECT 'it''s;' FROM t;x", ["SELECT 'it''s;' FROM t", "x"]),
    ('SELECT "a"";b" FROM t;x', ['SELECT "a"";b" FROM t', "x"]),
    ("SELECT '--' FROM t; SELECT '/*'", ["SELECT '--' FROM t", "SELECT '/*'"]),
    ("SELECT 'open; x", ["SELECT 'open; x"]),
    ("SELECT 'ab''", ["SELECT 'ab''"]),
    ("a -- c ; 'x\n; b", ["a", "b"]),
]


@pytest.mark.parametrize("text, expected", SPLIT_CASES)
def test_split_statements(text, expected):
    assert split_statements(text) == expected


TOKENIZE_CASES = [
    ("", [("end", "", 0)]),
    ("  \n\t", [("end", "", 4)]),
    ("a  ", [("ident", "a", 0), ("end", "", 3)]),
    ("SELECT 'it''s' FROM t",
     [("ident", "SELECT", 0), ("string", "it''s", 7), ("ident", "FROM", 15),
      ("ident", "t", 20), ("end", "", 21)]),
    ("''", [("string", "", 0), ("end", "", 2)]),
    ("'a'  'b'", [("string", "a", 0), ("string", "b", 5), ("end", "", 8)]),
    ("'x;--y'", [("string", "x;--y", 0), ("end", "", 7)]),
    ('"a""b" x', [("qident", 'a"b', 0), ("ident", "x", 7), ("end", "", 8)]),
    ('""', [("qident", "", 0), ("end", "", 2)]),
    ('"My Col"', [("qident", "My Col", 0), ("end", "", 8)]),
    (".5", [("number", ".5", 0), ("end", "", 2)]),
    ("1.e5", [("number", "1", 0), ("punct", ".", 1), ("ident", "e5", 2), ("end", "", 4)]),
    ("1.", [("number", "1", 0), ("punct", ".", 1), ("end", "", 2)]),
    ("1.5e+3 2E-2 7e",
     [("number", "1.5e+3", 0), ("number", "2E-2", 7), ("number", "7", 12),
      ("ident", "e", 13), ("end", "", 14)]),
    ("12abc", [("number", "12", 0), ("ident", "abc", 2), ("end", "", 5)]),
    ("a.b", [("ident", "a", 0), ("punct", ".", 1), ("ident", "b", 2), ("end", "", 3)]),
    ("a.5", [("ident", "a", 0), ("number", ".5", 1), ("end", "", 3)]),
    ("t.*", [("ident", "t", 0), ("punct", ".", 1), ("op", "*", 2), ("end", "", 3)]),
    ("_x9 X_", [("ident", "_x9", 0), ("ident", "X_", 4), ("end", "", 6)]),
    ("a <> b != c || d",
     [("ident", "a", 0), ("op", "<>", 2), ("ident", "b", 5), ("op", "!=", 7),
      ("ident", "c", 10), ("op", "||", 12), ("ident", "d", 15), ("end", "", 16)]),
    ("<=>=<>=", [("op", "<=", 0), ("op", ">=", 2), ("op", "<>", 4), ("op", "=", 6),
                 ("end", "", 7)]),
    ("+-*/%", [("op", "+", 0), ("op", "-", 1), ("op", "*", 2), ("op", "/", 3),
               ("op", "%", 4), ("end", "", 5)]),
    ("f(x),y",
     [("ident", "f", 0), ("punct", "(", 1), ("ident", "x", 2), ("punct", ")", 3),
      ("punct", ",", 4), ("ident", "y", 5), ("end", "", 6)]),
    ("a b", [("ident", "a", 0), ("ident", "b", 2), ("end", "", 3)]),
]


@pytest.mark.parametrize("text, expected", TOKENIZE_CASES)
def test_tokenize(text, expected):
    assert [(t.kind, t.value, t.pos) for t in tokenize(text)] == expected


# ``word`` is what the parser's keyword tests and the memo shape read.
WORD_CASES = [
    ("SeLeCt", "ident", "select"),
    ("1.5e3", "number", "0"),
    ("'x'", "string", "''"),
    ('"A""b"', "qident", '"A""b"'),
    ("<=", "op", "<="),
    ("(", "punct", "("),
]


@pytest.mark.parametrize("text, kind, word", WORD_CASES)
def test_token_word(text, kind, word):
    assert [(t.kind, t.word) for t in tokenize(text)] == [(kind, word), ("end", "")]


TOKENIZE_ERRORS = [
    ("'abc", "unterminated string literal", 0),
    ("x = 'a'' AND y = 'b'", "unterminated string literal", 19),
    # A trailing doubled quote escapes a quote; it does not close the literal.
    ("'ab''", "unterminated string literal", 0),
    ('""" x', "unterminated quoted identifier", 0),
    ("a = '", "unterminated string literal", 4),
    ('x "abc', "unterminated quoted identifier", 2),
    ("a @ b", "unexpected character '@'", 2),
    ("a ! b", "unexpected character '!'", 2),
    ("a | b", "unexpected character '|'", 2),
    # Unquoted identifiers and numbers are ASCII only.
    ("SELECT é FROM t", "unexpected character 'é'", 7),
    ("abé", "unexpected character 'é'", 2),
    ("a = ²", "unexpected character '²'", 4),
    ("a = ٣", "unexpected character '٣'", 4),
]


@pytest.mark.parametrize("text, message, pos", TOKENIZE_ERRORS)
def test_tokenize_errors(text, message, pos):
    with pytest.raises(SqlParseError) as info:
        tokenize(text)
    assert str(info.value) == message
    assert info.value.pos == pos


# -- properties over random text ---------------------------------------------

SQL_ALPHABET = (
    "abcxyzSELCTFROMWHEINDTabcdefghijklmnopqrstuvwxyz_0123456789"
    " \t\n'\";.,()*=<>!|+-/%"
    "é²٣ "
)
SQL_WORDS = ["SELECT ", " FROM ", " WHERE ", " AND ", " OR ", " NOT ", " IN ",
             "(", ")", "--", "/*", "*/", "''", '""', " t.a ", " 1.5e3 "]
sql_text = st.lists(st.one_of(st.text(SQL_ALPHABET, max_size=6),
                              st.sampled_from(SQL_WORDS)),
                    max_size=30).map("".join)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(sql_text)
def test_front_end_raises_only_parse_errors(text):
    for statement in split_statements(text):
        assert statement and statement == statement.strip()
    try:
        tokens = tokenize(text)
    except SqlParseError:
        pass
    else:
        positions = [t.pos for t in tokens]
        assert positions == sorted(set(positions))
        assert tokens[-1].kind == "end" and tokens[-1].pos == len(text)
    try:
        parse_statement(text)
    except SqlParseError:
        pass
