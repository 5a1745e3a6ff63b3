"""SQL workload parsing and indexable-attribute extraction.

A workload file is UTF-8 text holding SQL statements separated by
semicolons. ``--`` line comments and ``/* */`` block comments may appear
anywhere; they are stripped while splitting, so a statement's stored text
is comment-free.

The statement grammar is a deliberate subset of SQL aimed at
decision-support query logs:

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

A schema file declares tables in blank-line-separated stanzas; ``#``
starts a comment line::

    TABLE customer
        c_custkey
        c_name

    TABLE orders
        o_orderkey

Column lines may be indented or not. All names are canonicalized the same
way identifiers in queries are: lower-cased, with quoted identifiers kept
verbatim when they contain characters outside the identifier alphabet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def canonical_identifier(text: str, quoted: bool = False) -> str:
    """Canonical form of an identifier: lower case, quoted oddities verbatim."""
    if quoted and not _IDENT_RE.fullmatch(text):
        return text
    return text.lower()


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
    for lineno, raw in enumerate(schema_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            current = None
            continue
        words = line.split()
        if words[0].upper() == "TABLE":
            if len(words) != 2:
                raise SchemaError(f"line {lineno}: expected 'TABLE <name>'")
            name = canonical_identifier(words[1])
            if name in tables:
                raise SchemaError(f"line {lineno}: duplicate table '{name}'")
            tables[name] = []
            current = name
            continue
        if current is None:
            raise SchemaError(f"line {lineno}: column outside a TABLE stanza")
        if len(words) != 1:
            raise SchemaError(f"line {lineno}: expected a single column name")
        column = canonical_identifier(words[0])
        if column in tables[current]:
            raise SchemaError(
                f"line {lineno}: duplicate column '{column}' in table '{current}'"
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

# One alternative per token kind, tried after skipping whitespace. A quoted
# token closes at the first quote that is not doubled, so an unterminated one
# fails as a whole and ``bad`` reports its opening quote. ``end`` matches only
# at the end of the text and ``bad`` takes any other character, so every
# match ends in a token and the leading ``\s*`` never backtracks.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<qident>"[^"]*(?:""[^"]*)*"(?!"))
      | (?P<op><=|>=|<>|!=|\|\||[=<>+\-*/%])
      | (?P<punct>[(),.])
      | (?P<end>\Z)
      | (?P<bad>.)
    )""",
    re.S | re.X,
)


class Token:
    """One token; ``word`` is the lower-cased text of an ident, else empty."""

    __slots__ = ("kind", "value", "pos", "word")

    def __init__(self, kind: str, value: str, pos: int):
        self.kind = kind  # ident | qident | number | string | op | punct | end
        self.value = value
        self.pos = pos
        self.word = value.lower() if kind == "ident" else ""

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, {self.pos})"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
        tokens.append(Token(kind, value, pos))
        if kind == "end":
            break
    return tokens


# ---------------------------------------------------------------------------
# Parsed statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    qualifier: Optional[str]
    column: str


@dataclass(frozen=True)
class Expr:
    """What extraction reads of one clause-level expression.

    ``refs`` are its column references in text order. ``blocks`` are its
    subquery blocks in text order, except that an ``IN (SELECT ..)`` block
    comes before any block inside the operand it tests.
    """

    refs: tuple[ColumnRef, ...]
    blocks: tuple["Block", ...]


@dataclass(frozen=True)
class Block:
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

_TYPED_LITERAL_PREFIXES = {"date", "time", "timestamp"}

# Deepest nesting of parentheses, subqueries, NOT and unary signs accepted.
# Each level costs about a dozen Python frames, so the deepest statement
# stays well inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 50


class _Parser:
    """Recursive descent over one statement's tokens.

    The expression rules check the grammar and build nothing: each appends
    the column references it meets to ``refs`` and the subquery blocks to
    ``blocks``, the sinks of the clause-level expression being parsed.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.refs: list[ColumnRef] = []
        self.blocks: list[Block] = []

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.i + offset, len(self.tokens) - 1)]
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        return self.tokens[self.i].word in words

    def accept_kw(self, *words: str) -> bool:
        if self.tokens[self.i].word in words:
            self.i += 1
            return True
        return False

    def expect_kw(self, word: str) -> None:
        if not self.accept_kw(word):
            tok = self.peek()
            raise SqlParseError(f"expected {word.upper()}, found {tok.value!r}", tok.pos)

    def at_alias(self) -> bool:
        """True at a name that can be an implicit alias (no reserved word)."""
        tok = self.tokens[self.i]
        return tok.kind in ("ident", "qident") and tok.word not in _RESERVED

    def accept_punct(self, value: str) -> bool:
        tok = self.tokens[self.i]
        if tok.kind == "punct" and tok.value == value:
            self.i += 1
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            tok = self.peek()
            raise SqlParseError(f"expected {value!r}, found {tok.value!r}", tok.pos)

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return tok.word
        if tok.kind == "qident":
            self.advance()
            return canonical_identifier(tok.value, quoted=True)
        raise SqlParseError(f"expected identifier, found {tok.value!r}", tok.pos)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise SqlParseError(f"unexpected trailing input {tok.value!r}", tok.pos)

    def nested(self, parse):
        """Run one recursive descent step, bounding the nesting depth.

        A parser is dropped after its first error, so an exception needs no
        unwinding of ``depth``.
        """
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SqlParseError("nesting too deep", self.peek().pos)
        result = parse()
        self.depth -= 1
        return result

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self.at_kw("insert"):
            self.parse_insert()  # runs to the end of the statement
            return None
        if self.at_kw("select"):
            stmt = self.parse_select_block()
        elif self.at_kw("update"):
            stmt = self.parse_update()
        elif self.at_kw("delete"):
            stmt = self.parse_delete()
        elif self.at_kw("create"):
            stmt = self.parse_create_index()
        else:
            tok = self.peek()
            raise SqlParseError(f"unsupported statement start {tok.value!r}", tok.pos)
        self.expect_end()
        return stmt

    def parse_select_block(self) -> Block:
        self.expect_kw("select")
        self.accept_kw("distinct")
        clauses: list[tuple[str, Expr]] = []
        aliases: list[str] = []
        self.parse_select_item(clauses, aliases)
        while self.accept_punct(","):
            self.parse_select_item(clauses, aliases)
        self.expect_kw("from")
        sources = [self.parse_table_source()]
        joined: list[tuple[str, Union[str, Block]]] = []
        while True:
            if self.accept_punct(","):
                sources.append(self.parse_table_source())
                continue
            if self.at_kw("inner", "left", "join"):
                if self.accept_kw("left"):
                    self.accept_kw("outer")
                else:
                    self.accept_kw("inner")
                self.expect_kw("join")
                joined.append(self.parse_table_source())
                self.expect_kw("on")
                clauses.append(("join", self.expression()))
                continue
            break
        clauses += self.where_clause()
        if self.accept_kw("group"):
            self.expect_kw("by")
            clauses.append(("group_by", self.expression()))
            while self.accept_punct(","):
                clauses.append(("group_by", self.expression()))
            if self.accept_kw("having"):
                clauses.append(("having", self.expression()))
        if self.accept_kw("order"):
            self.expect_kw("by")
            while True:
                clauses.append(("order_by", self.expression()))
                self.accept_kw("asc", "desc")
                if not self.accept_punct(","):
                    break
        if self.accept_kw("limit"):
            tok = self.advance()
            if tok.kind != "number":
                raise SqlParseError(f"expected a number after LIMIT, found {tok.value!r}",
                                    tok.pos)
        return Block(tuple(sources + joined), tuple(aliases), tuple(clauses))

    def parse_select_item(self, clauses: list[tuple[str, Expr]],
                          aliases: list[str]) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "*":
            self.advance()
            return
        clauses.append(("select", self.expression()))
        if self.accept_kw("as") or self.at_alias():
            aliases.append(self.expect_name())

    def parse_table_source(self) -> tuple[str, Union[str, Block]]:
        """A FROM or JOIN entry as (bound name, base table name or block)."""
        if self.accept_punct("("):
            query = self.nested(self.parse_select_block)
            self.expect_punct(")")
            self.accept_kw("as")
            return self.expect_name(), query
        table = self.expect_name()
        if self.accept_kw("as") or self.at_alias():
            return self.expect_name(), table
        return table, table

    def where_clause(self) -> tuple[tuple[str, Expr], ...]:
        return (("where", self.expression()),) if self.accept_kw("where") else ()

    def parse_update(self) -> Block:
        self.expect_kw("update")
        table = self.expect_name()
        self.expect_kw("set")
        self.parse_assignment()
        while self.accept_punct(","):
            self.parse_assignment()
        return Block(((table, table),), (), self.where_clause())

    def parse_assignment(self) -> None:
        # The assigned values are checked but yield no items: their
        # references land in the statement-level sinks, which nothing reads.
        self.expect_name()
        tok = self.peek()
        if not (tok.kind == "op" and tok.value == "="):
            raise SqlParseError(f"expected '=' in SET clause, found {tok.value!r}", tok.pos)
        self.advance()
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
        while self.peek().kind != "end":
            tok = self.advance()
            if tok.kind == "punct" and tok.value == "(":
                depth += 1
            elif tok.kind == "punct" and tok.value == ")":
                depth -= 1
                if depth < 0:
                    raise SqlParseError("unbalanced ')' in INSERT body", tok.pos)
        if depth != 0:
            raise SqlParseError("unbalanced '(' in INSERT body", self.peek().pos)

    def parse_create_index(self) -> None:
        self.expect_kw("create")
        self.expect_kw("index")
        self.expect_name()
        self.expect_kw("on")
        self.expect_name()
        self.expect_punct("(")
        self.expect_name()
        while self.accept_punct(","):
            self.expect_name()
        self.expect_punct(")")

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
        tok = self.tokens[self.i]
        if tok.kind in ("number", "string"):
            # A bare literal ending a list item holds nothing to record.
            nxt = self.tokens[self.i + 1]
            if nxt.kind == "punct" and nxt.value in (",", ")"):
                self.i += 1
                return
        self.parse_not()
        while self.accept_kw("and", "or"):
            self.parse_not()

    def parse_expr_list(self) -> None:
        self.parse_expr()
        while self.accept_punct(","):
            self.parse_expr()

    def parse_not(self) -> None:
        if self.accept_kw("not"):
            self.nested(self.parse_not)
        else:
            self.parse_predicate()

    def parse_predicate(self) -> None:
        mark = len(self.blocks)
        self.parse_additive()
        tok = self.tokens[self.i]
        if tok.kind == "op" and tok.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            self.parse_additive()
            return
        if tok.kind != "ident":
            return  # every predicate form below starts with a keyword
        negated = False
        if self.at_kw("not") and self.peek(1).word in ("between", "in", "like"):
            self.advance()
            negated = True
        if self.accept_kw("between"):
            self.parse_additive()
            self.expect_kw("and")
            self.parse_additive()
            return
        if self.accept_kw("in"):
            self.expect_punct("(")
            if self.at_kw("select"):
                # The tested subquery is walked before any inside the operand.
                query = self.nested(self.parse_select_block)
                self.blocks.insert(mark, query)
            else:
                self.nested(self.parse_expr_list)
            self.expect_punct(")")
            return
        if self.accept_kw("like"):
            self.parse_additive()
            return
        if negated:
            raise SqlParseError("dangling NOT in predicate", tok.pos)
        if self.accept_kw("is"):
            self.accept_kw("not")
            self.expect_kw("null")

    def parse_additive(self) -> None:
        self.parse_factor()
        while True:
            tok = self.tokens[self.i]
            if tok.kind == "op" and tok.value in ("+", "-", "||", "*", "/", "%"):
                self.advance()
                self.parse_factor()
            else:
                return

    def parse_factor(self) -> None:
        tok = self.tokens[self.i]
        if tok.kind == "op" and tok.value in ("+", "-"):
            self.advance()
            self.nested(self.parse_factor)
        else:
            self.parse_primary()

    def parse_primary(self) -> None:
        tok = self.tokens[self.i]
        if tok.kind in ("number", "string"):
            self.advance()
            return
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            if self.at_kw("select"):
                query = self.nested(self.parse_select_block)
                self.blocks.append(query)
            else:
                self.nested(self.parse_expr)
            self.expect_punct(")")
            return
        if tok.kind in ("ident", "qident"):
            word = tok.word
            if word == "null":
                self.advance()
                return
            if word == "exists":
                self.advance()
                self.expect_punct("(")
                query = self.nested(self.parse_select_block)
                self.blocks.append(query)
                self.expect_punct(")")
                return
            if word in _TYPED_LITERAL_PREFIXES and self.peek(1).kind == "string":
                self.i += 2
                return
            if word == "interval" and self.peek(1).kind == "string":
                self.i += 2
                if self.at_kw("year", "month", "day", "hour", "minute", "second"):
                    self.advance()
                return
            name = self.expect_name()
            if self.accept_punct("("):
                self.parse_func_args()
                return
            if self.accept_punct("."):
                nxt = self.peek()
                if nxt.kind == "op" and nxt.value == "*":
                    self.advance()
                    return
                self.refs.append(ColumnRef(qualifier=name, column=self.expect_name()))
                return
            self.refs.append(ColumnRef(qualifier=None, column=name))
            return
        raise SqlParseError(f"unexpected token {tok.value!r}", tok.pos)

    def parse_func_args(self) -> None:
        self.accept_kw("distinct")
        tok = self.peek()
        if tok.kind == "op" and tok.value == "*":
            self.advance()
        elif not (tok.kind == "punct" and tok.value == ")"):
            self.nested(self.parse_expr_list)
        self.expect_punct(")")


def parse_statement(text: str) -> Statement:
    """Parse one semicolon-free statement; raises SqlParseError outside the subset."""
    return _Parser(tokenize(text)).parse_statement()


# ---------------------------------------------------------------------------
# Workload-level parsing
# ---------------------------------------------------------------------------


class QueryKind(str, Enum):
    SELECT = "SELECT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    INSERT = "INSERT"
    OTHER = "OTHER"


_LEAD_KINDS = {kind.value.lower(): kind for kind in QueryKind
               if kind is not QueryKind.OTHER}


@dataclass(frozen=True)
class WorkloadQuery:
    ordinal: int
    raw_text: str
    kind: QueryKind
    parse_error: Optional[str] = None


def parse_workload(workload_text: str) -> list[WorkloadQuery]:
    """Split workload text into classified statements.

    Statements come back in file order with contiguous ordinals. A statement
    outside the supported subset is kept with kind OTHER and a diagnostic in
    ``parse_error`` rather than dropped, so downstream frequency denominators
    stay stable. Name resolution happens later, at extraction.
    """
    queries: list[WorkloadQuery] = []
    for ordinal, text in enumerate(split_statements(workload_text)):
        lead = _IDENT_RE.match(text)
        first = lead.group(0).lower() if lead else ""
        kind = _LEAD_KINDS.get(first, QueryKind.OTHER)
        error: Optional[str] = None
        if first in ("select", "update", "delete", "insert", "create"):
            try:
                parse_statement(text)
            except SqlParseError as exc:
                kind = QueryKind.OTHER
                error = str(exc)
        else:
            error = f"unsupported statement kind {first!r}"
        queries.append(WorkloadQuery(ordinal=ordinal, raw_text=text, kind=kind,
                                     parse_error=error))
    return queries


# ---------------------------------------------------------------------------
# Item extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AttributeItem:
    """A (table, column) pair; ordering is lexicographic by both fields."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class TransactionContext:
    query_ordinal: int
    items: frozenset[AttributeItem]


@dataclass(frozen=True)
class ExtractionPolicy:
    """Which syntactic positions yield items.

    Valid position names: where, join, group_by, order_by, having, select.
    The default covers every position where an index can change the access
    path and leaves projection-only columns out.
    """

    positions: frozenset[str]

    VALID_POSITIONS = frozenset({"where", "join", "group_by", "order_by",
                                 "having", "select"})

    def __post_init__(self):
        unknown = self.positions - self.VALID_POSITIONS
        if unknown:
            raise ValueError(f"unknown extraction positions: {sorted(unknown)}")

    @classmethod
    def from_names(cls, names: list[str]) -> "ExtractionPolicy":
        cleaned = frozenset(n.strip().lower().replace("-", "_") for n in names if n.strip())
        return cls(positions=cleaned)

    def wants(self, position: str) -> bool:
        return position in self.positions


DEFAULT_POLICY = ExtractionPolicy(
    positions=frozenset({"where", "join", "group_by", "order_by", "having"})
)

# Positions where a bare name may be a select-list alias: the aliased
# expression is projection, so such a name yields no item.
_ALIAS_POSITIONS = frozenset({"group_by", "having", "order_by"})

# A scope maps each bound name to its base table's name, or to the block of
# the derived table it names.
_Scope = dict[str, Union[str, Block]]


class _Extractor:
    def __init__(self, schema: SchemaMap, policy: ExtractionPolicy,
                 ordinal: int, diagnostics: Optional[list[str]]):
        self.schema = schema
        self.policy = policy
        self.ordinal = ordinal
        self.diagnostics = diagnostics
        self.items: set[AttributeItem] = set()

    def diag(self, message: str) -> None:
        if self.diagnostics is not None:
            self.diagnostics.append(f"statement {self.ordinal}: {message}")

    def block_scope(self, block: Block) -> _Scope:
        scope: _Scope = {}
        for name, source in block.sources:
            if name in scope:
                self.diag(f"duplicate alias '{name}' in FROM; first binding kept")
                continue
            scope[name] = source
        return scope

    def resolve(self, ref: ColumnRef, scopes: list[_Scope],
                select_aliases: frozenset[str]) -> None:
        if ref.qualifier is None and ref.column in select_aliases:
            return
        if ref.qualifier is not None:
            for scope in scopes:
                if ref.qualifier in scope:
                    table = scope[ref.qualifier]
                    if not isinstance(table, str):
                        self.diag(
                            f"column '{ref.qualifier}.{ref.column}' belongs to a "
                            "derived table; skipped"
                        )
                        return
                    if ref.column not in self.schema.get(table, ()):
                        self.diag(
                            f"column '{ref.qualifier}.{ref.column}' not found in "
                            f"table '{table}'; skipped"
                        )
                        return
                    self.items.add(AttributeItem(table=table, column=ref.column))
                    return
            self.diag(f"unknown table or alias '{ref.qualifier}'; skipped")
            return
        for scope in scopes:
            tables = sorted({t for t in scope.values() if isinstance(t, str)})
            matches = [t for t in tables if ref.column in self.schema.get(t, ())]
            if len(matches) == 1:
                self.items.add(AttributeItem(table=matches[0], column=ref.column))
                return
            if len(matches) > 1:
                self.diag(
                    f"ambiguous column '{ref.column}' (in tables "
                    f"{', '.join(matches)}); skipped"
                )
                return
        self.diag(f"unresolvable column '{ref.column}'; skipped")

    def walk_block(self, block: Block, outer_scopes: list[_Scope]) -> None:
        """Resolve each wanted clause's columns, then its subqueries, in text order."""
        scopes = [self.block_scope(block)] + outer_scopes
        aliases = frozenset(block.select_aliases)
        for position, expr in block.clauses:
            if self.policy.wants(position):
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


def extract_items(
    query: WorkloadQuery,
    schema: SchemaMap,
    policy: ExtractionPolicy = DEFAULT_POLICY,
    diagnostics: Optional[list[str]] = None,
) -> TransactionContext:
    """Extract the indexable attribute items of one parsed statement.

    INSERT statements yield an empty item set. Unresolvable or ambiguous
    columns are skipped with a diagnostic appended to ``diagnostics`` when a
    sink list is given; they never abort extraction.
    """
    if query.kind is QueryKind.OTHER:
        raise ValueError("cannot extract items from an unparsed (OTHER) statement")
    if query.kind is QueryKind.INSERT:
        return TransactionContext(query_ordinal=query.ordinal, items=frozenset())
    extractor = _Extractor(schema, policy, query.ordinal, diagnostics)
    extractor.walk_block(parse_statement(query.raw_text), [])
    return TransactionContext(query_ordinal=query.ordinal,
                              items=frozenset(extractor.items))


def extract_workload(
    queries: list[WorkloadQuery],
    schema: SchemaMap,
    policy: ExtractionPolicy = DEFAULT_POLICY,
    diagnostics: Optional[list[str]] = None,
) -> list[TransactionContext]:
    """One transaction context per statement, in workload order.

    Every statement becomes a transaction: OTHER and INSERT statements get
    empty item sets, which keeps support denominators equal to the workload
    size.
    """
    contexts: list[TransactionContext] = []
    for query in queries:
        if query.kind is QueryKind.OTHER:
            contexts.append(TransactionContext(query_ordinal=query.ordinal,
                                               items=frozenset()))
            continue
        contexts.append(extract_items(query, schema, policy, diagnostics))
    return contexts
