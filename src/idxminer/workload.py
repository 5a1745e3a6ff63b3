"""SQL workload parsing and indexable-attribute extraction.

A workload file is UTF-8 text holding SQL statements separated by
semicolons. ``--`` line comments and ``/* */`` block comments may appear
anywhere; they are stripped while splitting, so a statement's stored text
is comment-free.

The statement grammar is a deliberate subset of SQL aimed at
decision-support query logs. The statement table ``_STATEMENTS`` maps the
lead word of each statement below to its kind and its parser rule:

* single-block ``SELECT`` with comma joins and ``INNER``/``LEFT JOIN .. ON``,
  ``WHERE`` (AND/OR/NOT, comparisons, ``BETWEEN``/``IN``/``LIKE``,
  ``IS [NOT] NULL``), ``GROUP BY``, ``HAVING``, ``ORDER BY``;
* ``UPDATE .. SET .. WHERE`` and ``DELETE FROM .. WHERE``;
* ``INSERT`` (body accepted opaquely, it never yields items);
* ``CREATE INDEX name ON table (col, ..)`` so emitted DDL re-parses.

Unquoted identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``; any other
character outside quotes, and nesting of parentheses, subqueries, NOT or
unary signs deeper than ``MAX_NESTING`` (50), put a statement outside the
subset. Subqueries are parsed as nested blocks wherever an expression or a
FROM source may appear, and each nested block is harvested with its own
scope. Statements outside the subset are kept (kind ``OTHER``,
per-statement diagnostic) so workload counts stay stable.

Every SELECT, UPDATE and DELETE parses to one record, ``Block``: its
sources (bound name to base table or nested block), its select-list aliases
and its clause-level expressions tagged with their positions, in text
order. An UPDATE or DELETE is a block with one source and at most a WHERE
clause. The parser builds no expression tree. For each clause-level
expression it keeps only what extraction reads: the column references and
the subquery blocks, each in order (``Expr``). The expression grammar has
two levels of binary operators, one for AND and OR, one for arithmetic and
``||``; a recognizer that builds nothing needs no precedence between them.

The tokenizer returns each token's *word* and nothing else: an identifier
lower-cased, a symbol or a quoted identifier as written, ``0`` for a number
and ``''`` for a string. The word tells the parser the token's kind as well.
One regex pass yields the raw tokens and a vocabulary maps each name and
symbol to its word, so no object is built per token. A raw token may be a
*run*: a number and up to 255 more that follow it after commas, each led by
a digit, as in a long IN list; its words ``0 , 0 .. 0`` are written out by
list arithmetic. Only an error message quotes a token's value and position,
so a failing statement alone is scanned again in full (``scan``).

A list that opens with a bare literal and a comma is checked at once: when
its words up to the first ``)`` alternate literal and comma, it records
nothing and the parser steps to that ``)``. Any other list is parsed item by
item, so both ways find the same block or the same error.

Query logs repeat a few templates with new literals, so ``parse_statement``
memoizes parses by *shape*: the join of its words, in which each literal
reads ``0`` or ``''``. The records hold no literal, so statements of one
shape parse alike. Every successful parse is kept, a failing one never, as
its message quotes its own token. The memo holds the workload being read:
``parse_workload`` empties it on entry and ``extract_workload`` before it
returns, so no workload sees another's shapes and no block outlives
extraction.

Every record here is a ``typing.NamedTuple``, so hashing and comparing a
whole ``Block`` run in C. ``extract_workload`` uses that to walk each
distinct block once per call, for one schema and one policy: a block that
equals one extracted before replays its item set and its diagnostic
messages, and each message goes out under the replaying statement's own
ordinal. The replays are keyed by the block's value, never its ``id`` or
its shape, so equal blocks of different shapes share one walk.

A schema file declares tables in blank-line-separated stanzas; ``#``
outside double quotes starts a comment::

    TABLE customer
        c_custkey
        c_name

    TABLE orders
        o_orderkey

Column lines may be indented or not. All names are canonicalized the same
way identifiers in queries are: a name is lower-cased unless it is written
in double quotes (``"Odd-Name"``, ``""`` for a quote inside) and holds
characters outside the identifier alphabet, when it is kept verbatim. A
name cannot be empty or hold whitespace.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Optional, Union

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def canonical_identifier(text: str, quoted: bool = False) -> str:
    """Canonical form of an identifier: lower case, quoted oddities verbatim."""
    if quoted and not _IDENT_RE.fullmatch(text):
        return text
    return text.lower()


def canonical_name(word: str) -> str:
    """Canonical form of a schema or stats file name.

    A name wrapped in double quotes reads as a quoted identifier does in a
    query: the quotes go and ``""`` stands for one ``"``.
    """
    if len(word) > 1 and word[0] == word[-1] == '"':
        return canonical_identifier(word[1:-1].replace('""', '"'), quoted=True)
    return canonical_identifier(word)


# A line's text before its comment: a ``#`` inside a double-quoted run,
# closed or not, starts none.
_BEFORE_COMMENT_RE = re.compile(r'(?:[^"#]|"[^"]*"?)*')


def strip_comment(line: str) -> str:
    """A schema or stats file line up to its first ``#`` outside double quotes."""
    return _BEFORE_COMMENT_RE.match(line).group()


class SchemaError(ValueError):
    """Raised when a schema file cannot be parsed."""


class SqlParseError(ValueError):
    """Raised when a statement falls outside the supported SQL subset."""

    def __init__(self, message: str, pos: int = -1):
        super().__init__(message)
        self.pos = pos


# Table name to ordered column list, both canonicalized.
SchemaMap = dict[str, tuple[str, ...]]


def parse_schema(schema_text: str) -> SchemaMap:
    """Parse the stanza-based schema format described in the module docstring."""
    tables: dict[str, list[str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(schema_text.split("\n"), start=1):
        line = strip_comment(raw).rstrip()
        if not line.strip():
            current = None
            continue
        words = line.split()
        if words[0].upper() == "TABLE":
            if len(words) != 2:
                raise SchemaError(f"line {lineno}: expected 'TABLE <name>'")
            name = canonical_name(words[1])
            if not name:
                raise SchemaError(f"line {lineno}: empty table name")
            if name in tables:
                raise SchemaError(f"line {lineno}: duplicate table {name!r}")
            tables[name] = []
            current = name
            continue
        if current is None:
            raise SchemaError(f"line {lineno}: column outside a TABLE stanza")
        if len(words) != 1:
            raise SchemaError(f"line {lineno}: expected a single column name")
        column = canonical_name(words[0])
        if not column:
            raise SchemaError(f"line {lineno}: empty column name")
        if column in tables[current]:
            raise SchemaError(
                f"line {lineno}: duplicate column {column!r} in table {current!r}"
            )
        tables[current].append(column)
    return {t: tuple(cols) for t, cols in tables.items()}


# ---------------------------------------------------------------------------
# Statement splitting
# ---------------------------------------------------------------------------


# Comments, quoted runs (closing quote optional, so an unterminated one runs
# to the end) and statement separators.
_SPLIT_RE = re.compile(
    r"""--[^\n]*|/\*.*?(?:\*/|\Z)|'[^']*(?:''[^']*)*'?|"[^"]*(?:""[^"]*)*"?|;""",
    re.S,
)


def split_statements(text: str) -> list[str]:
    """Split workload text on semicolons, stripping comments.

    Comments are replaced by a single space so token boundaries survive;
    semicolons inside string literals or quoted identifiers do not split.
    Empty statements (including comment-only ones) are dropped.
    """
    statements: list[str] = []
    buf: list[str] = []
    last = 0
    for m in _SPLIT_RE.finditer(text):
        lead = text[m.start()]
        if lead in "'\"":
            continue  # quoted runs stay in place; they only hide separators
        buf.append(text[last:m.start()])
        last = m.end()
        if lead == ";":
            statements.append("".join(buf))
            buf = []
        else:
            buf.append(" ")
    buf.append(text[last:])
    statements.append("".join(buf))
    return [s for s in map(str.strip, statements) if s]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One pattern per token kind, in the order they are tried. A quoted token
# closes at the first quote that is not doubled, so an unterminated one fails
# as a whole and leaves its opening quote a bad character.
_TOKEN_PATTERNS = (
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("number", r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"),
    ("string", r"'[^']*(?:''[^']*)*'(?!')"),
    ("qident", r'"[^"]*(?:""[^"]*)*"(?!")'),
    ("op", r"<=|>=|<>|!=|\|\||[=<>+\-*/%]"),
    ("punct", r"[(),.]"),
)

# The full scanner, tried after skipping whitespace: ``end`` matches only at
# the end of the text and ``bad`` takes any other character, so every match
# ends in a token and the leading ``\s*`` never backtracks.
_TOKEN_RE = re.compile(
    r"\s*(?:" + "".join(f"(?P<{kind}>{pattern})|" for kind, pattern in _TOKEN_PATTERNS)
    + r"(?P<end>\Z)|(?P<bad>.))",
    re.S,
)

# The raw text of each token, bad characters included: ``findall`` skips the
# whitespace, where no alternative matches. A number led by a digit takes up
# to 255 more after commas, each led by a digit too, as one raw token (a
# *run*); the bound keeps the regex's backtracking state small. Each number
# head is led by a class, so the regex skips it at once at any other
# character.
_EXPONENT = r"(?:[eE][+-]?[0-9]+)?"
_RUN_TAIL = rf"(?:\s*,\s*[0-9]+(?:\.[0-9]+)?{_EXPONENT}){{0,255}}"
_RAW_TOKEN_RE = re.compile("|".join(
    rf"[0-9]+(?:\.[0-9]+)?{_EXPONENT}{_RUN_TAIL}|\.[0-9]+{_EXPONENT}"
    if kind == "number" else pattern for kind, pattern in _TOKEN_PATTERNS) + r"|\S")

# The word a run stands for until ``tokenize`` writes out its words; no
# token has it.
_RUN = "0,"

# Raw identifier, quoted identifier and symbol -> its word. Literals are never
# kept, so the vocabulary grows with the workload's names, not its length;
# ``parse_workload`` empties it, so it holds one workload's names.
_VOCABULARY: dict[str, str] = {}

_DIGITS = "0123456789"


def scan(text: str) -> list[tuple[str, str, int]]:
    """Every token of ``text`` as (kind, value, position), ending in ``end``.

    The kinds are ident, qident, number, string, op, punct and end. A
    string's value drops its quotes; a quoted identifier's drops them too and
    reads ``""`` as ``"``. Raises SqlParseError at the first bad character.
    Only an error message needs a value or a position, so only the error
    path scans this way.
    """
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.start(kind)
        if kind == "string":
            value = value[1:-1]
        elif kind == "qident":
            value = value[1:-1].replace('""', '"')
        elif kind == "bad":
            if value == "'":
                raise SqlParseError("unterminated string literal", pos)
            if value == '"':
                raise SqlParseError("unterminated quoted identifier", pos)
            raise SqlParseError(f"unexpected character {value!r}", pos)
        tokens.append((kind, value, pos))
        if kind == "end":
            break
    return tokens


def tokenize(text: str) -> list[str]:
    """The words of ``text``'s tokens, ending in the empty word.

    A word is all the parser and the memo shape read of a token: an
    identifier lower-cased, a symbol as written, a quoted identifier as
    written (inner ``""`` kept), ``0`` for any number and ``''`` for any
    string. Raises SqlParseError as ``scan`` does.
    """
    known = _VOCABULARY.get
    runs: list[str] = []  # ``append`` gives None, so a run's word is _RUN
    # A raw token led by ``'`` is a whole string, unless it is a lone ``'``.
    words = [known(raw) or ("''" if raw[0] == "'" != raw
                            else _new_word(raw, text) if raw[0] not in _DIGITS
                            else "0" if "," not in raw
                            else runs.append(raw) or _RUN)
             for raw in _RAW_TOKEN_RE.findall(text)]
    if runs:
        # A run of k commas stands for the words 0 , 0 , .. 0: 2k + 1 of them.
        spliced: list[str] = []
        start = 0
        for run in runs:
            i = words.index(_RUN, start)
            spliced += words[start:i]
            spliced += ["0", ","] * run.count(",")
            spliced.append("0")
            start = i + 1
        spliced += words[start:]
        words = spliced
    words.append("")
    return words


def _new_word(raw: str, text: str) -> str:
    """The word of a raw token the vocabulary lacks; a name or symbol joins it."""
    kind = _TOKEN_RE.match(raw).lastgroup
    if kind == "number":
        return "0"
    if kind == "bad":
        scan(text)  # raises at the first bad character
    word = _VOCABULARY[raw] = raw.lower() if kind == "ident" else raw
    return word


# ---------------------------------------------------------------------------
# Parsed statements
# ---------------------------------------------------------------------------


class ColumnRef(NamedTuple):
    qualifier: Optional[str]
    column: str


class Expr(NamedTuple):
    """What extraction reads of one clause-level expression.

    ``refs`` are its column references in text order. ``blocks`` are its
    subquery blocks in text order, except that an ``IN (SELECT ..)`` block
    comes before any block inside the operand it tests.
    """

    refs: tuple[ColumnRef, ...]
    blocks: tuple["Block", ...]


class Block(NamedTuple):
    """One SELECT block, or the target and WHERE clause of an UPDATE or DELETE.

    ``sources`` pairs each bound name (the alias, else the table) with its
    base table's name or, for a derived table, its block. FROM entries come
    first, then JOIN entries: the order in which names bind, the first
    binding of a duplicate name winning. ``clauses`` pairs each clause-level
    expression with its position (``select``, ``join``, ``where``,
    ``group_by``, ``having`` or ``order_by``), in text order.
    """

    sources: tuple[tuple[str, Union[str, "Block"]], ...]
    select_aliases: tuple[str, ...]
    clauses: tuple[tuple[str, Expr], ...]


# INSERT and CREATE INDEX parse to None: they yield no items.
Statement = Optional[Block]

# Words that terminate an implicit alias after a table reference.
_RESERVED = {
    "where", "group", "order", "having", "on", "inner", "left", "right",
    "full", "cross", "outer", "join", "union", "set", "and", "or", "not",
    "as", "limit", "from", "select",
}

# The keywords of ``parse_primary``: the last four are names unless a string follows.
_PRIMARY_KEYWORDS = frozenset({"null", "exists", "date", "time", "timestamp", "interval"})
_INTERVAL_UNITS = frozenset({"year", "month", "day", "hour", "minute", "second"})

# Deepest nesting of parentheses, subqueries, NOT and unary signs accepted.
# A level costs at most 8 Python frames (a parenthesis 5, a subquery 8), so
# the deepest statement stays well inside the default recursion limit of 1000.
MAX_NESTING = 50


# Leading characters of a name's word: an identifier's, lower-cased, or the
# quote of a quoted identifier.
_NAME_LEADS = frozenset('abcdefghijklmnopqrstuvwxyz_"')

# The words of a number and of a string.
_LITERALS = frozenset({"0", "''"})


class _Parser:
    """Recursive descent over one statement's words.

    A word tells its token's kind: the empty word is the end, ``0`` a number,
    ``''`` a string, a leading ``"`` a quoted identifier and a leading letter
    or ``_`` an identifier; any other word is a symbol. ``text`` is read only
    to word an error.

    The expression rules check the grammar and build nothing: each appends
    the column references it meets to ``refs`` and the subquery blocks to
    ``blocks``, the sinks of the clause-level expression being parsed. As
    each Python call costs parse time, the rules are flat and test words
    inline: ``parse_expr`` reads NOT, AND and OR and calls ``parse_not`` only
    at a NOT, ``parse_primary`` reads a unary sign (one nesting level, ended
    by its operand) and a name, ``name.col``, ``name.*`` or a call, and
    ``self.i += words[self.i] == word`` steps over an optional word.
    """

    def __init__(self, words: list[str], text: str):
        self.words = words
        self.text = text
        self.i = 0
        self.depth = 0
        self.refs: list[ColumnRef] = []
        self.blocks: list[Block] = []

    # -- word helpers --------------------------------------------------------

    def error(self, message: str, i: Optional[int] = None) -> SqlParseError:
        """``message`` at token ``i``, by default the current one.

        A ``{!r}`` in ``message`` quotes the token's value. Words keep no
        value or position, so the one failing statement is scanned again.
        """
        _, value, pos = scan(self.text)[self.i if i is None else i]
        return SqlParseError(message.format(value), pos)

    def accept_kw(self, word: str) -> bool:
        if self.words[self.i] == word:
            self.i += 1
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if self.words[self.i] != word:
            shown = word.upper() if word.isalpha() else repr(word)
            raise self.error(f"expected {shown}, found {{!r}}")
        self.i += 1

    def expect_name(self) -> str:
        word = self.words[self.i]
        if word[:1] in _NAME_LEADS:
            self.i += 1
            return canonical_name(word) if word[0] == '"' else word
        raise self.error("expected identifier, found {!r}")

    def nested(self, parse):
        """Run one recursive descent step, bounding the nesting depth.

        A parser is dropped after its first error, so an exception needs no
        unwinding of ``depth``.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("nesting too deep")
        result = parse()
        self.depth -= 1
        return result

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.words[0] not in _STATEMENTS:
            raise self.error("unsupported statement start {!r}")
        stmt = _STATEMENTS[self.words[0]][1](self)
        if self.words[self.i]:
            raise self.error("unexpected trailing input {!r}")
        return stmt

    def parse_select_block(self) -> Block:
        words = self.words
        self.expect_kw("select")
        self.i += words[self.i] == "distinct"
        clauses: list[tuple[str, Expr]] = []
        aliases: list[str] = []
        while True:
            if words[self.i] == "*":
                self.i += 1
            else:
                clauses.append(("select", self.expression()))
                if (alias := self.alias()) is not None:
                    aliases.append(alias)
            if words[self.i] != ",":
                break
            self.i += 1
        self.expect_kw("from")
        sources = [self.parse_table_source()]
        joined: list[tuple[str, Union[str, Block]]] = []
        while (word := words[self.i]) in (",", "inner", "left", "join"):
            self.i += 1
            if word == ",":
                sources.append(self.parse_table_source())
                continue
            self.i += word == "left" and words[self.i] == "outer"
            if word != "join":
                self.expect_kw("join")
            joined.append(self.parse_table_source())
            self.expect_kw("on")
            clauses.append(("join", self.expression()))
        clauses += self.where_clause()
        if words[self.i] == "group":
            self.i += 1
            self.expect_kw("by")
            clauses.append(("group_by", self.expression()))
            while words[self.i] == ",":
                self.i += 1
                clauses.append(("group_by", self.expression()))
            if words[self.i] == "having":
                self.i += 1
                clauses.append(("having", self.expression()))
        if words[self.i] == "order":
            self.i += 1
            self.expect_kw("by")
            while True:
                clauses.append(("order_by", self.expression()))
                self.i += words[self.i] in ("asc", "desc")
                if words[self.i] != ",":
                    break
                self.i += 1
        if words[self.i] == "limit":
            if words[self.i + 1] != "0":
                raise self.error("expected a number after LIMIT, found {!r}", self.i + 1)
            self.i += 2
        return Block(tuple(sources + joined), tuple(aliases), tuple(clauses))

    def parse_table_source(self) -> tuple[str, Union[str, Block]]:
        """A FROM or JOIN entry as (bound name, base table name or block)."""
        if self.words[self.i] == "(":
            self.i += 1
            query = self.nested(self.parse_select_block)
            self.expect_kw(")")
            self.i += self.words[self.i] == "as"
            return self.expect_name(), query
        table = self.expect_name()
        return self.alias(table), table

    def alias(self, default: Optional[str] = None) -> Optional[str]:
        """An alias, after ``AS`` or implicit (no reserved word); else ``default``."""
        word = self.words[self.i]
        if word == "as":
            self.i += 1
        elif word[:1] not in _NAME_LEADS or word in _RESERVED:
            return default
        return self.expect_name()

    def where_clause(self) -> tuple[tuple[str, Expr], ...]:
        return (("where", self.expression()),) if self.accept_kw("where") else ()

    def parse_update(self) -> Block:
        self.expect_kw("update")
        table = self.expect_name()
        self.expect_kw("set")
        self.parse_assignment()
        while self.accept_kw(","):
            self.parse_assignment()
        return Block(((table, table),), (), self.where_clause())

    def parse_assignment(self) -> None:
        # The assigned values are checked but yield no items: their
        # references land in the statement-level sinks, which nothing reads.
        self.expect_name()
        if not self.accept_kw("="):
            raise self.error("expected '=' in SET clause, found {!r}")
        self.parse_expr()

    def parse_delete(self) -> Block:
        self.expect_kw("delete")
        self.expect_kw("from")
        table = self.expect_name()
        return Block(((table, table),), (), self.where_clause())

    def parse_insert(self) -> None:
        self.expect_kw("insert")
        self.expect_kw("into")
        self.expect_name()
        # The remainder (column list, VALUES, SELECT) carries no indexable
        # positions; accept it opaquely but insist on balanced parentheses.
        depth = 0
        while word := self.words[self.i]:
            self.i += 1
            if word == "(":
                depth += 1
            elif word == ")":
                depth -= 1
                if depth < 0:
                    raise self.error("unbalanced ')' in INSERT body", self.i - 1)
        if depth != 0:
            raise self.error("unbalanced '(' in INSERT body")

    def parse_create_index(self) -> None:
        self.expect_kw("create")
        self.expect_kw("index")
        self.expect_name()
        self.expect_kw("on")
        self.expect_name()
        self.expect_kw("(")
        self.expect_name()
        while self.accept_kw(","):
            self.expect_name()
        self.expect_kw(")")

    # -- expressions ----------------------------------------------------------

    def expression(self) -> Expr:
        """Parse one clause-level expression into a record of its own.

        The enclosing sinks are set aside meanwhile and, as a parser is
        dropped after its first error, restored only on success.
        """
        outer = self.refs, self.blocks
        self.refs, self.blocks = [], []
        self.parse_expr()
        expr = Expr(tuple(self.refs), tuple(self.blocks))
        self.refs, self.blocks = outer
        return expr

    def parse_expr(self) -> None:
        words = self.words
        if words[self.i] in _LITERALS and words[self.i + 1] in (",", ")"):
            # A bare literal ending a list item holds nothing to record.
            self.i += 1
            return
        while True:
            if words[self.i] == "not":
                self.i += 1
                self.nested(self.parse_not)
            else:
                self.parse_predicate()
            if words[self.i] not in ("and", "or"):
                return
            self.i += 1

    def parse_expr_list(self) -> None:
        words, i = self.words, self.i
        if words[i] in _LITERALS and words[i + 1] == ",":
            # Bare literals up to the first ")" record nothing, so such a list
            # is checked at once; any other list takes the loop below.
            try:
                end = words.index(")", i)
            except ValueError:  # no ")": the loop reports the error
                end = i
            if ((end - i) % 2 and _LITERALS.issuperset(words[i:end:2])
                    and words[i + 1:end:2].count(",") == (end - i) // 2):
                self.i = end
                return
        self.parse_expr()
        while self.words[self.i] == ",":
            self.i += 1
            self.parse_expr()

    def parse_not(self) -> None:
        """The operand of a NOT: a predicate, or another NOT a level deeper."""
        if self.words[self.i] == "not":
            self.i += 1
            self.nested(self.parse_not)
        else:
            self.parse_predicate()

    def parse_predicate(self) -> None:
        mark = len(self.blocks)
        self.parse_additive()
        words = self.words
        word = words[self.i]
        if word in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.i += 1
            self.parse_additive()
            return
        if word == "not" and words[self.i + 1] in ("between", "in", "like"):
            self.i += 1
            word = words[self.i]
        if word not in ("between", "in", "like", "is"):
            return
        self.i += 1
        if word == "between":
            self.parse_additive()
            self.expect_kw("and")
            self.parse_additive()
        elif word == "in":
            self.expect_kw("(")
            if words[self.i] == "select":
                # The tested subquery is walked before any inside the operand.
                self.blocks.insert(mark, self.nested(self.parse_select_block))
            else:
                self.nested(self.parse_expr_list)
            self.expect_kw(")")
        elif word == "like":
            self.parse_additive()
        else:
            self.i += words[self.i] == "not"
            self.expect_kw("null")

    def parse_additive(self) -> None:
        self.parse_primary()
        while self.words[self.i] in ("+", "-", "||", "*", "/", "%"):
            self.i += 1
            self.parse_primary()

    def parse_primary(self) -> None:
        words, i = self.words, self.i
        word = words[i]
        if word in _PRIMARY_KEYWORDS:
            if word == "null":
                self.i = i + 1
                return
            if word == "exists":
                self.i = i + 1
                self.expect_kw("(")
                self.blocks.append(self.nested(self.parse_select_block))
                self.expect_kw(")")
                return
            if words[i + 1] == "''":  # a typed literal; else the word is a name
                self.i = i + 2
                if word == "interval" and words[self.i] in _INTERVAL_UNITS:
                    self.i += 1
                return
        elif word[:1] not in _NAME_LEADS:
            self.i = i + 1
            if word in _LITERALS:
                return
            if word == "(":
                if words[self.i] == "select":
                    self.blocks.append(self.nested(self.parse_select_block))
                else:
                    self.nested(self.parse_expr)
                self.expect_kw(")")
                return
            if word in ("+", "-"):
                # A sign nests to its operand only: the arithmetic after the
                # operand is read one level up.
                self.nested(self.parse_primary)
                return
            raise self.error("unexpected token {!r}", i)
        # A name: a column, qualified or not, ``name.*`` or a function call.
        name = canonical_name(word) if word[0] == '"' else word
        following = words[i + 1]
        if following == "(":
            self.i = i + 2 + (words[i + 2] == "distinct")
            if not self.accept_kw("*") and words[self.i] != ")":
                self.nested(self.parse_expr_list)
            self.expect_kw(")")
        elif following != ".":
            self.i = i + 1
            self.refs.append(ColumnRef(None, name))
        elif words[i + 2] == "*":
            self.i = i + 3
        else:
            self.i = i + 2
            self.refs.append(ColumnRef(name, self.expect_name()))


# The memo of ``parse_statement``: shape -> parse, for the workload being read.
_shape_parses: dict[str, Statement] = {}


def parse_statement(text: str) -> Statement:
    """Parse one semicolon-free statement; raises SqlParseError outside the subset.

    The shape is the statement's words joined by spaces. It is literal-free
    and safe to share: the parser reads nothing but the words on success.
    Every successful parse is kept under its shape; a failing one raises
    before it is kept, as its error rescans its own text. The memo holds
    the workload being read (see the module docstring).
    """
    words = tokenize(text)
    shape = " ".join(words)
    if shape in _shape_parses:
        return _shape_parses[shape]
    stmt = _shape_parses[shape] = _Parser(words, text).parse_statement()
    return stmt


# ---------------------------------------------------------------------------
# Workload-level parsing
# ---------------------------------------------------------------------------


class QueryKind(str, Enum):
    SELECT = "SELECT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    INSERT = "INSERT"
    OTHER = "OTHER"


# Lead word -> kind and parser rule. A CREATE INDEX yields no items: OTHER.
_STATEMENTS = {
    "select": (QueryKind.SELECT, _Parser.parse_select_block),
    "update": (QueryKind.UPDATE, _Parser.parse_update),
    "delete": (QueryKind.DELETE, _Parser.parse_delete),
    "insert": (QueryKind.INSERT, _Parser.parse_insert),
    "create": (QueryKind.OTHER, _Parser.parse_create_index),
}


class WorkloadQuery(NamedTuple):
    ordinal: int
    raw_text: str
    kind: QueryKind
    parse_error: Optional[str] = None


def parse_workload(workload_text: str) -> list[WorkloadQuery]:
    """Split workload text into classified statements.

    Statements come back in file order with contiguous ordinals. A statement
    outside the supported subset is kept with kind OTHER and a diagnostic in
    ``parse_error`` rather than dropped, so downstream frequency denominators
    stay stable. Name resolution happens later, at extraction. Empties the
    memo of ``parse_statement`` and the vocabulary of ``tokenize`` first, so
    each workload parses afresh and no earlier workload's names are kept.
    """
    _shape_parses.clear()
    _VOCABULARY.clear()
    queries: list[WorkloadQuery] = []
    for ordinal, text in enumerate(split_statements(workload_text)):
        lead = _IDENT_RE.match(text)
        first = lead.group(0).lower() if lead else ""
        kind, error = QueryKind.OTHER, f"unsupported statement kind {first!r}"
        if first in _STATEMENTS:
            try:
                parse_statement(text)
                kind, error = _STATEMENTS[first][0], None
            except SqlParseError as exc:
                error = str(exc)
        queries.append(WorkloadQuery(ordinal=ordinal, raw_text=text, kind=kind,
                                     parse_error=error))
    return queries


# ---------------------------------------------------------------------------
# Item extraction
# ---------------------------------------------------------------------------


class AttributeItem(NamedTuple):
    """A (table, column) pair; ordering is lexicographic by both fields."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


class TransactionContext(NamedTuple):
    query_ordinal: int
    items: frozenset[AttributeItem]


# Syntactic positions that can yield items. The default policy takes every one
# where an index can change the access path, and leaves projection out.
POSITIONS = frozenset({"where", "join", "group_by", "order_by", "having", "select"})
DEFAULT_POLICY = POSITIONS - {"select"}


def extraction_policy(names: list[str]) -> frozenset[str]:
    """The positions ``names`` spell, in any case and with ``-`` for ``_``."""
    policy = frozenset(n.strip().lower().replace("-", "_") for n in names if n.strip())
    if not policy:
        raise ValueError("the extraction policy names no position")
    unknown = policy - POSITIONS
    if unknown:
        raise ValueError(f"unknown extraction positions: {sorted(unknown)}")
    return policy


# Positions where a bare name may be a select-list alias: the aliased
# expression is projection, so such a name yields no item.
_ALIAS_POSITIONS = frozenset({"group_by", "having", "order_by"})

# Table name -> column name -> its one item, for the schema of one call.
_Columns = dict[str, dict[str, AttributeItem]]

# A scope maps each bound name to its base table's name, or to the block of
# the derived table it names. It comes with the columns of its base tables in
# table-name order, sorted once: the order in which an unqualified column is
# looked up.
_Scope = tuple[dict[str, Union[str, Block]], list[dict[str, AttributeItem]]]


class _Extractor:
    """Walks one block, collecting its items and its bare diagnostic messages.

    The caller prefixes each message with its statement's ordinal."""

    def __init__(self, columns: _Columns, policy: frozenset[str]):
        self.columns = columns
        self.policy = policy
        self.items: set[AttributeItem] = set()
        self.messages: list[str] = []

    def block_scope(self, block: Block) -> _Scope:
        scope: dict[str, Union[str, Block]] = {}
        for name, source in block.sources:
            if name in scope:
                self.messages.append(
                    f"duplicate alias {name!r} in FROM; first binding kept")
                continue
            scope[name] = source
        tables = sorted({t for t in scope.values() if isinstance(t, str)})
        return scope, [self.columns[t] for t in tables if t in self.columns]

    def resolve(self, ref: ColumnRef, scopes: list[_Scope],
                select_aliases: frozenset[str]) -> None:
        if ref.qualifier is None and ref.column in select_aliases:
            return
        if ref.qualifier is not None:
            for scope, _ in scopes:
                if ref.qualifier in scope:
                    table = scope[ref.qualifier]
                    if not isinstance(table, str):
                        self.messages.append(
                            f"column {ref.qualifier + '.' + ref.column!r} belongs to a "
                            "derived table; skipped"
                        )
                        return
                    item = self.columns.get(table, {}).get(ref.column)
                    if item is None:
                        self.messages.append(
                            f"column {ref.qualifier + '.' + ref.column!r} not found in "
                            f"table {table!r}; skipped"
                        )
                        return
                    self.items.add(item)
                    return
            self.messages.append(f"unknown table or alias {ref.qualifier!r}; skipped")
            return
        for _, tables in scopes:
            matches = [columns[ref.column] for columns in tables if ref.column in columns]
            if len(matches) == 1:
                self.items.add(matches[0])
                return
            if len(matches) > 1:
                self.messages.append(
                    f"ambiguous column {ref.column!r} (in tables "
                    f"{', '.join(repr(item.table) for item in matches)}); skipped"
                )
                return
        self.messages.append(f"unresolvable column {ref.column!r}; skipped")

    def walk_block(self, block: Block, outer_scopes: list[_Scope]) -> None:
        """Resolve each wanted clause's columns, then its subqueries, in text order."""
        scopes = [self.block_scope(block)] + outer_scopes
        aliases = frozenset(block.select_aliases)
        for position, expr in block.clauses:
            if position in self.policy:
                shadowed = aliases if position in _ALIAS_POSITIONS else frozenset()
                for ref in expr.refs:
                    self.resolve(ref, scopes, shadowed)
            for sub in expr.blocks:
                self.walk_block(sub, scopes)
        # Derived tables in FROM are their own blocks; they see only scopes
        # enclosing this block, not its sibling FROM entries.
        for _, source in block.sources:
            if isinstance(source, Block):
                self.walk_block(source, outer_scopes)


def extract_workload(
    queries: list[WorkloadQuery],
    schema: SchemaMap,
    policy: frozenset[str] = DEFAULT_POLICY,
    diagnostics: Optional[list[str]] = None,
) -> list[TransactionContext]:
    """One transaction context per statement, in workload order.

    Every statement becomes a transaction: OTHER and INSERT statements get
    empty item sets, which keeps support denominators equal to the workload
    size. Unresolvable or ambiguous columns are skipped with a diagnostic;
    they never abort extraction. Given a sink, each statement's diagnostics
    go to ``diagnostics`` in statement order: an OTHER statement's
    ``parse_error``, or the extraction diagnostics of the others. Every
    block walked is kept for replay (see the module docstring), and the
    memo of ``parse_statement`` is emptied before returning.
    """
    columns: _Columns = {table: {c: AttributeItem(table, c) for c in cols}
                         for table, cols in schema.items()}
    replays: dict[Block, tuple[frozenset[AttributeItem], tuple[str, ...]]] = {}
    contexts: list[TransactionContext] = []
    for query in queries:
        if query.kind is QueryKind.OTHER or query.kind is QueryKind.INSERT:
            if query.parse_error and diagnostics is not None:
                diagnostics.append(f"statement {query.ordinal}: {query.parse_error}")
            contexts.append(TransactionContext(query.ordinal, frozenset()))
            continue
        block = parse_statement(query.raw_text)
        extraction = replays.get(block)
        if extraction is None:
            extractor = _Extractor(columns, policy)
            extractor.walk_block(block, [])
            extraction = frozenset(extractor.items), tuple(extractor.messages)
            replays[block] = extraction
        items, messages = extraction
        if diagnostics is not None:
            diagnostics.extend(f"statement {query.ordinal}: {m}" for m in messages)
        contexts.append(TransactionContext(query.ordinal, items))
    _shape_parses.clear()
    return contexts
