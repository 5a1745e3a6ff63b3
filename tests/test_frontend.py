"""Pinned behaviour of the SQL front end: statement splitting and tokenizing.

The tables spell out the exact output for inputs where a hand-written
scanner is easy to get wrong; the property tests check invariants over
random text drawn from the SQL alphabet plus some non-ASCII characters.
"""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import WORKLOAD_PATH, parsed, scanned_words, sql_text
from idxminer import workload
from idxminer.workload import SqlParseError, parse_statement, scan, split_statements, tokenize

GENERATORS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "idxbench" / "workloads.py"))["GENERATORS"]

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


def reference_split(text: str) -> list[str]:
    """``split_statements`` one character at a time.

    A quote runs to the first quote of its kind that is not doubled, or to
    the end; a ``--`` comment runs to the newline, a ``/*`` one past the
    first ``*/`` or to the end, and each reads as one space.
    """
    statements: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in "'\"":
            j = i + 1
            while j < len(text) and not (text[j] == c and text[j + 1:j + 2] != c):
                j += 2 if text[j] == c else 1
            j = min(j + 1, len(text))
            current.append(text[i:j])
        elif text.startswith("--", i):
            j = text.find("\n", i)
            j = len(text) if j < 0 else j
            current.append(" ")
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = len(text) if j < 0 else j + 2
            current.append(" ")
        elif c == ";":
            statements.append("".join(current))
            current = []
            j = i + 1
        else:
            current.append(c)
            j = i + 1
        i = j
    statements.append("".join(current))
    return [s.strip() for s in statements if s.strip()]


@pytest.mark.parametrize("text, expected", SPLIT_CASES)
def test_split_statements(text, expected):
    assert split_statements(text) == expected
    assert reference_split(text) == expected


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
    assert scan(text) == expected


# A word is what the parser and the memo shape read of a token.
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
    assert [token[0] for token in scan(text)] == [kind, "end"]
    assert tokenize(text) == [word, ""]


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
    for tokenizer in (scan, tokenize):
        with pytest.raises(SqlParseError) as info:
            tokenizer(text)
        assert str(info.value) == message
        assert info.value.pos == pos


# -- properties over random text ---------------------------------------------


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(sql_text)
def test_front_end_raises_only_parse_errors(text):
    for statement in split_statements(text):
        assert statement and statement == statement.strip()
    try:
        tokens = scan(text)
    except SqlParseError:
        pass
    else:
        positions = [pos for _, _, pos in tokens]
        assert positions == sorted(set(positions))
        assert tokens[-1] == ("end", "", len(text))
    try:
        parse_statement(text)
    except SqlParseError:
        pass


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(sql_text)
def test_split_statements_equals_the_reference_splitter(text):
    assert split_statements(text) == reference_split(text)


def assert_tokenize_agrees_with_scan(text: str) -> None:
    """``tokenize`` gives the words of ``scan``'s tokens, or raises its error."""
    assert parsed(text, tokenize) == parsed(text, scanned_words), text


# The first examples are the fuzz finds of a literal-masking tokenizer: a
# number that a second fraction or a fractional exponent cuts short. The
# others sit on both sides of the choice between a masked and an unmasked
# statement: strings that hold whitespace or a doubled quote,
# a quoted identifier that holds whitespace, unpaired quotes, a string after
# a bad character, whitespace that only ``\s`` and ``str.isspace`` know,
# and a number list.
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(sql_text)
@example(".5.5")
@example("2e5.5")
@example("291e-.5")
@example("SELECT 'a b' FROM t")
@example('SELECT "a b" FROM t')
@example("x 'it''s a' y")
@example("\"a 'b\" c'")
@example("'a")
@example("@ 'a b'")
@example("a\x1cb\xa0c\u3000d")
@example("x'a, 1'y AND 'b\u3000''s'=z")
@example("'a' 'b")
@example("SELECT a FROM t WHERE t.a IN (1, 2 ,3e1,\t.5, 4) AND 'x y' = b")
def test_tokenize_agrees_with_scan_on_random_text(text):
    assert_tokenize_agrees_with_scan(text)


def redrawn(text: str, digits: list[str]) -> str:
    """``text`` with its i-th ASCII digit replaced by ``digits[i]``, where there is one."""
    found = iter(digits)
    return re.sub(r"[0-9]", lambda m: next(found, m.group()), text)


# ``tokenize`` keeps a statement's words under its mask, with strings emptied
# and digits zeroed, so the words it gives a text after one with other digits
# must still be the scanner's. The digits drawn replace the text's in place;
# an example may put a longer number in the place of a digit. The examples
# are the fuzz finds of a literal-masking tokenizer, names with digits,
# numbers that a dot or an exponent ends, strings holding digits and
# whitespace, whitespace that only ``\s`` and ``str.isspace`` know, a lone
# surrogate, which UTF-8 cannot encode strictly, and a quoted identifier,
# which keeps its digits.
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(sql_text, st.lists(st.sampled_from("0123456789")))
@example(".5.5", ["7", "3"])
@example("2e5.5", ["3", "1", "4"])
@example("291e-.5", ["1", "0", "0", "7"])
@example("t1_c01 = 5", ["2", "0", "2", "7"])
@example("x = 5.", ["55"])
@example("a = 1e5", ["2", "7"])
@example("b = 'v 1' AND c = 'it''s 2'", ["8", "9"])
@example("a\xa0= 1", ["4"])
@example("select \ud800 from t", [])
@example('SELECT "1" FROM t', ["2"])
def test_tokenize_agrees_with_scan_after_a_text_with_other_digits(text, digits):
    workload.parse_workload("")
    parsed(text, tokenize)
    assert_tokenize_agrees_with_scan(redrawn(text, digits))


def test_str_split_and_the_regex_agree_on_whitespace():
    r"""``split_statements`` strips a statement with ``str.strip``, where the
    regexes skip ``\s``: the two must take the same characters for
    whitespace."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


@pytest.mark.parametrize("name, size", [("templated", 1), ("diverse", 40),
                                        ("long-statements", 2)])
def test_tokenize_agrees_with_scan_on_the_benchmark_workloads(name, size):
    statements = split_statements(GENERATORS[name](1, size).sql)
    workload.parse_workload("")
    for statement in statements:
        assert_tokenize_agrees_with_scan(statement)
    # Masked and unmasked statements both occur in each workload but the
    # last, whose statements all hold number lists.
    unmasked = [workload._maskable(s) is None for s in statements]
    assert any(unmasked)
    assert all(unmasked) == (name == "long-statements")


@pytest.mark.parametrize("name, size", [("templated", 2), ("diverse", 40),
                                        ("long-statements", 2)])
def test_tokenizing_the_benchmark_workloads_twice_gives_the_same_words(name, size):
    statements = split_statements(GENERATORS[name](1, size).sql)
    workload.parse_workload("")
    for _ in range(2):
        for statement in statements:
            assert_tokenize_agrees_with_scan(statement)
    # Only the templated workload keeps statements whole: every name in the
    # diverse one holds a digit, and the long statements hold number lists.
    assert bool(workload._MASKED) == (name == "templated")


def test_the_fixture_workload_splits_and_tokenizes_as_the_references_do():
    text = WORKLOAD_PATH.read_text(encoding="utf-8")
    statements = split_statements(text)
    assert statements == reference_split(text)
    for statement in statements:
        assert_tokenize_agrees_with_scan(statement)
