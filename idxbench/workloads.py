"""Seeded workload generators for the idxminer benchmark.

Each generator returns a ``Workload``: the three input files the CLI reads
(workload SQL, schema, stats), the CLI flags for the run, and the reference
answer that the output check uses. The reference never comes from idxminer:
for ``templated`` it is a hand-written table of each template's attribute
set, and for ``diverse`` and ``long-statements`` it is the set the
generator planted while writing the statement.

Attribute sets follow idxminer's default extraction policy: columns in
WHERE, JOIN .. ON, GROUP BY, HAVING and ORDER BY count, select-list
columns and SET targets do not, and INSERT yields nothing.

The same (name, seed) always gives byte-identical files.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

KINDS = ("select", "update", "delete", "insert", "other")
THRESHOLD_ROWS = 100_000  # idxminer's default --threshold-rows


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    sql: str
    schema: str
    stats: str
    minsup: str
    strategy: str
    kinds: tuple[str, ...]
    planted: tuple[frozenset[tuple[str, str]], ...]
    row_counts: dict[str, int]

    @property
    def statements(self) -> int:
        return len(self.kinds)

    @property
    def flags(self) -> tuple[str, ...]:
        return ("--minsup", self.minsup, "--strategy", self.strategy)

    def resolved_minsup(self) -> int:
        """Absolute support threshold, from the flag value alone."""
        if "." in self.minsup or "/" in self.minsup:
            return max(1, ceil(Fraction(self.minsup) * self.statements))
        return int(self.minsup)

    def shape(self) -> dict:
        by_kind = {kind: self.kinds.count(kind) for kind in KINDS}
        return {
            "workload": self.name,
            "seed": self.seed,
            "statements": self.statements,
            "by_kind": by_kind,
            "bytes": len(self.sql.encode("utf-8")),
            "distinct_transactions": len(set(self.planted)),
            "items": len(set().union(*self.planted)),
            "minsup": self.minsup,
            "minsup_resolved": self.resolved_minsup(),
        }


def render_schema(tables: dict[str, tuple[str, ...]]) -> str:
    stanzas = ["TABLE " + t + "\n" + "".join(f"    {c}\n" for c in cols)
               for t, cols in tables.items()]
    return "\n".join(stanzas)


def render_stats(rows: dict[str, int]) -> str:
    return "".join(f"{table}\t{count}\n" for table, count in rows.items())


def join_statements(statements: list[str]) -> str:
    return "".join(s + ";\n" for s in statements)


# ---------------------------------------------------------------------------
# templated: the 22 decision-support statements of the TPC-R fixture, with
# literals redrawn per copy
# ---------------------------------------------------------------------------

TPCR_TABLES = {
    "region": ("r_regionkey", "r_name", "r_comment"),
    "nation": ("n_nationkey", "n_name", "n_regionkey", "n_comment"),
    "supplier": ("s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone",
                 "s_acctbal", "s_comment"),
    "customer": ("c_custkey", "c_name", "c_address", "c_nationkey", "c_phone",
                 "c_acctbal", "c_mktsegment", "c_comment"),
    "part": ("p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size",
             "p_container", "p_retailprice", "p_comment"),
    "partsupp": ("ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost",
                 "ps_comment"),
    "orders": ("o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
               "o_orderdate", "o_orderpriority", "o_clerk", "o_shippriority",
               "o_comment"),
    "lineitem": ("l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                 "l_quantity", "l_extendedprice", "l_discount", "l_tax",
                 "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
                 "l_receiptdate", "l_shipinstruct", "l_shipmode", "l_comment"),
}

TPCR_ROWS = {
    "region": 5, "nation": 25, "supplier": 10_000, "customer": 150_000,
    "part": 200_000, "partsupp": 800_000, "orders": 1_500_000,
    "lineitem": 6_000_000,
}


def _attrs(spec: str) -> frozenset[tuple[str, str]]:
    """'lineitem: a b; orders: c' -> {(lineitem, a), (lineitem, b), (orders, c)}"""
    out = set()
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        table, columns = part.split(":")
        out.update((table.strip(), c) for c in columns.split())
    return frozenset(out)


# (template, expected attribute set), written by reading each statement.
TEMPLATES: tuple[tuple[str, frozenset[tuple[str, str]]], ...] = (
    ("SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*)"
     " FROM lineitem WHERE l_shipdate <= date '1998-09-02'"
     " GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
     _attrs("lineitem: l_shipdate l_returnflag l_linestatus")),
    ("SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem"
     " WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'"
     " AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
     _attrs("lineitem: l_shipdate l_discount l_quantity")),
    ("SELECT l.l_orderkey, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue,"
     " o.o_orderdate FROM customer c, orders o, lineitem l"
     " WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey"
     " AND l.l_orderkey = o.o_orderkey AND o.o_orderdate < date '1995-03-15'"
     " AND l.l_shipdate > date '1995-03-15'"
     " GROUP BY l.l_orderkey, o.o_orderdate ORDER BY o.o_orderdate",
     _attrs("customer: c_mktsegment c_custkey; orders: o_custkey o_orderkey o_orderdate;"
            " lineitem: l_orderkey l_shipdate")),
    ("SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue"
     " FROM customer, orders, lineitem, nation, region"
     " WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey"
     " AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey"
     " AND r_name = 'ASIA' AND o_orderdate >= date '1994-01-01'"
     " GROUP BY n_name ORDER BY revenue DESC",
     _attrs("customer: c_custkey c_nationkey; orders: o_custkey o_orderkey o_orderdate;"
            " lineitem: l_orderkey; nation: n_nationkey n_regionkey n_name;"
            " region: r_regionkey r_name")),
    ("SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue"
     " FROM customer, orders, lineitem, nation"
     " WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey"
     " AND o_orderdate >= date '1993-10-01' AND l_returnflag = 'R'"
     " AND c_nationkey = n_nationkey"
     " GROUP BY c_custkey, c_name ORDER BY revenue DESC",
     _attrs("customer: c_custkey c_nationkey c_name; orders: o_custkey o_orderkey o_orderdate;"
            " lineitem: l_orderkey l_returnflag; nation: n_nationkey")),
    ("SELECT o_orderdate, count(*) FROM orders"
     " INNER JOIN lineitem ON o_orderkey = l_orderkey"
     " WHERE l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'"
     " GROUP BY o_orderdate ORDER BY o_orderdate",
     _attrs("orders: o_orderkey o_orderdate; lineitem: l_orderkey l_shipdate")),
    ("SELECT avg(l_extendedprice) FROM lineitem"
     " WHERE l_shipdate >= date '1997-01-01' AND l_discount > 0.03"
     " AND l_quantity BETWEEN 10 AND 20",
     _attrs("lineitem: l_shipdate l_discount l_quantity")),
    ("SELECT p.p_brand, count(*) FROM part p, lineitem l"
     " WHERE p.p_partkey = l.l_partkey AND p.p_type LIKE '%BRASS'"
     " AND l.l_shipdate >= date '1996-01-01' GROUP BY p.p_brand",
     _attrs("part: p_partkey p_type p_brand; lineitem: l_partkey l_shipdate")),
    ("SELECT l_returnflag, sum(l_quantity) AS total_qty FROM lineitem"
     " INNER JOIN orders ON l_orderkey = o_orderkey GROUP BY l_returnflag"
     " HAVING sum(l_quantity) > 100 ORDER BY l_returnflag",
     _attrs("lineitem: l_orderkey l_returnflag l_quantity; orders: o_orderkey")),
    ("SELECT c_mktsegment, count(*) AS orders_placed FROM customer"
     " INNER JOIN orders ON c_custkey = o_custkey"
     " WHERE o_orderdate >= date '1996-01-01' GROUP BY c_mktsegment",
     _attrs("customer: c_custkey c_mktsegment; orders: o_custkey o_orderdate")),
    ("SELECT o_custkey, count(*) FROM orders"
     " INNER JOIN customer ON o_custkey = c_custkey"
     " WHERE o_orderdate BETWEEN date '1994-01-01' AND date '1994-12-31'"
     " GROUP BY o_custkey",
     _attrs("orders: o_custkey o_orderdate; customer: c_custkey")),
    ("SELECT l_linenumber, l_extendedprice FROM lineitem"
     " WHERE l_shipdate < date '1993-01-01' AND l_discount <= 0.04"
     " ORDER BY l_quantity DESC",
     _attrs("lineitem: l_shipdate l_discount l_quantity")),
    ("SELECT p.p_name, l.l_extendedprice FROM part p, lineitem l"
     " WHERE p.p_partkey = l.l_partkey AND l.l_quantity < 30",
     _attrs("part: p_partkey; lineitem: l_partkey l_quantity")),
    ("SELECT c_name FROM customer WHERE c_custkey IN ("
     "SELECT o_custkey FROM orders WHERE o_orderdate >= date '1995-01-01')",
     _attrs("customer: c_custkey; orders: o_orderdate")),
    ("SELECT c.c_name, c.c_acctbal FROM customer c, nation n"
     " WHERE c.c_nationkey = n.n_nationkey AND n.n_regionkey = 1"
     " ORDER BY c.c_custkey",
     _attrs("customer: c_nationkey c_custkey; nation: n_nationkey n_regionkey")),
    ("UPDATE orders SET o_orderstatus = 'F' WHERE o_orderdate < date '1993-01-01'",
     _attrs("orders: o_orderdate")),
    ("UPDATE lineitem SET l_discount = 0.00"
     " WHERE l_shipdate < date '1992-06-01' AND l_quantity = 0",
     _attrs("lineitem: l_shipdate l_quantity")),
    ("DELETE FROM lineitem WHERE l_shipdate < date '1992-01-08'",
     _attrs("lineitem: l_shipdate")),
    ("INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_orderdate)"
     " VALUES (4500001, 101, 'O', date '1996-01-02')",
     frozenset()),
    ("SELECT o.o_orderkey, o.o_totalprice FROM orders o"
     " INNER JOIN customer c ON o.o_custkey = c.c_custkey"
     " WHERE c.c_mktsegment = 'MACHINERY' ORDER BY o.o_orderdate",
     _attrs("orders: o_custkey o_orderdate; customer: c_custkey c_mktsegment")),
    ("SELECT l_returnflag, count(*) FROM lineitem"
     " INNER JOIN orders ON l_orderkey = o_orderkey"
     " WHERE o_orderdate < date '1994-01-01' GROUP BY l_returnflag",
     _attrs("lineitem: l_orderkey l_returnflag; orders: o_orderkey o_orderdate")),
    ("SELECT r_name FROM region WHERE r_name = 'EUROPE'",
     _attrs("region: r_name")),
)

_LITERAL_RE = re.compile(r"date '\d{4}-\d\d-\d\d'|'[^']*'|\b\d+\.\d+\b|\b\d+\b")
_WORDS = ("BUILDING", "MACHINERY", "AUTOMOBILE", "FURNITURE", "HOUSEHOLD",
          "ASIA", "EUROPE", "AFRICA", "AMERICA", "BRASS", "COPPER", "NICKEL",
          "STEEL", "TIN", "R", "A", "N", "F", "O", "P")


def _redraw(match: re.Match, rng: random.Random) -> str:
    text = match.group(0)
    if text.startswith("date"):
        return (f"date '{rng.randint(1992, 1998)}-{rng.randint(1, 12):02d}"
                f"-{rng.randint(1, 28):02d}'")
    if text.startswith("'"):
        word = rng.choice(_WORDS)
        return f"'%{word}'" if text.startswith("'%") else f"'{word}'"
    if "." in text:
        return f"0.{rng.randint(0, 99):02d}"
    return str(rng.randint(0, 10 ** len(text)))


def templated(seed: int, copies: int = 200) -> Workload:
    """Every template ``copies`` times, literals redrawn, order shuffled."""
    rng = random.Random(f"templated/{seed}")
    order = [i for i in range(len(TEMPLATES)) for _ in range(copies)]
    rng.shuffle(order)
    statements, kinds, planted = [], [], []
    for i in order:
        template, attrs = TEMPLATES[i]
        statements.append(_LITERAL_RE.sub(lambda m: _redraw(m, rng), template))
        kinds.append(template.split(None, 1)[0].lower())
        planted.append(attrs)
    return Workload(
        name="templated", seed=seed, sql=join_statements(statements),
        schema=render_schema(TPCR_TABLES), stats=render_stats(TPCR_ROWS),
        minsup="0.02", strategy="large-tables",
        kinds=tuple(kinds), planted=tuple(planted), row_counts=dict(TPCR_ROWS),
    )


# ---------------------------------------------------------------------------
# Synthetic wide schema shared by diverse and long-statements
# ---------------------------------------------------------------------------

WIDE_TABLES = {f"t{t}": tuple(f"t{t}_c{c:02d}" for c in range(16)) for t in range(8)}
WIDE_ROWS = {f"t{t}": 10 ** (3 + t % 5) * (1 + t) for t in range(8)}


def _zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


_TABLE_WEIGHTS = _zipf_weights(len(WIDE_TABLES), 1.0)
_COLUMN_WEIGHTS = _zipf_weights(16, 0.6)


def _draw_distinct(rng: random.Random, population, weights, k: int,
                   chosen: list | None = None) -> list:
    chosen = list(chosen or ())
    while len(chosen) < k:
        pick = rng.choices(population, weights)[0]
        if pick not in chosen:
            chosen.append(pick)
    return chosen


def _predicate(rng: random.Random, ref: str) -> str:
    form = rng.randrange(7)
    if form == 0:
        return f"{ref} = {rng.randint(0, 999)}"
    if form == 1:
        return f"{ref} < {rng.randint(0, 999)}"
    if form == 2:
        low = rng.randint(0, 500)
        return f"{ref} BETWEEN {low} AND {low + rng.randint(1, 500)}"
    if form == 3:
        values = ", ".join(str(rng.randint(0, 999)) for _ in range(rng.randint(2, 6)))
        return f"{ref} IN ({values})"
    if form == 4:
        return f"{ref} LIKE '{rng.choice('abcdefgh')}{rng.randint(0, 99)}%'"
    if form == 5:
        return f"{ref} IS NOT NULL"
    return f"{ref} >= {rng.randint(0, 999)}.{rng.randint(0, 9)}"


class _Scope:
    """Tables of one statement and how their columns are written."""

    def __init__(self, tables: list[str], aliased: bool):
        self.alias = {t: f"a{i}" for i, t in enumerate(tables)} if aliased else {}

    def ref(self, table: str, column: str) -> str:
        return f"{self.alias[table]}.{column}" if self.alias else column

    def source(self, table: str) -> str:
        return f"{table} {self.alias[table]}" if self.alias else table


def _draw_column(rng: random.Random, table: str) -> str:
    return rng.choices(WIDE_TABLES[table], _COLUMN_WEIGHTS)[0]


def _spread(rng: random.Random, n: int, weights: dict) -> list:
    """n values in fixed proportion to their weights, in seeded order.

    Statement shapes and lead tables are spread this way rather than drawn
    independently, so that every seed has the same mix and only columns,
    joined tables and literals change; the cost of a run then depends little
    on the seed.
    """
    total = sum(weights.values())
    values = [v for v, w in weights.items() for _ in range(n * w // total)]
    values += [next(iter(weights))] * (n - len(values))
    rng.shuffle(values)
    return values


def _diverse_select(rng: random.Random, lead: str, n_tables: int, n_predicates: int,
                    group_by: bool, order_by: bool, use_or: bool,
                    aliased: bool, explicit_join: bool) -> tuple[str, set]:
    tables = _draw_distinct(rng, list(WIDE_TABLES), _TABLE_WEIGHTS, n_tables, [lead])
    scope = _Scope(tables, aliased)
    attrs: set = set()
    where: list[str] = []
    joins: list[str] = []
    for prev, table in zip(tables, tables[1:]):
        left, right = _draw_column(rng, prev), _draw_column(rng, table)
        attrs |= {(prev, left), (table, right)}
        cond = f"{scope.ref(prev, left)} = {scope.ref(table, right)}"
        if explicit_join:
            joins.append(f" INNER JOIN {scope.source(table)} ON {cond}")
        else:
            where.append(cond)
    for _ in range(n_predicates):
        table = rng.choice(tables)
        column = _draw_column(rng, table)
        attrs.add((table, column))
        where.append(_predicate(rng, scope.ref(table, column)))
    if use_or:
        where[-2:] = [f"({where[-2]} OR {where[-1]})"]
    projected = [scope.ref(t, rng.choice(WIDE_TABLES[t])) for t in tables]
    tail = ""
    if group_by:
        table = rng.choice(tables)
        column = _draw_column(rng, table)
        attrs.add((table, column))
        projected = [scope.ref(table, column), "count(*)"]
        tail += f" GROUP BY {scope.ref(table, column)}"
    if order_by:
        table = rng.choice(tables)
        column = _draw_column(rng, table)
        attrs.add((table, column))
        tail += f" ORDER BY {scope.ref(table, column)} DESC"
    if explicit_join:
        sources = scope.source(tables[0]) + "".join(joins)
    else:
        sources = ", ".join(scope.source(t) for t in tables)
    sql = (f"SELECT {', '.join(projected)} FROM {sources}"
           f" WHERE {' AND '.join(where)}{tail}")
    return sql, attrs


def _diverse_write(rng: random.Random, kind: str, table: str,
                   n_columns: int) -> tuple[str, set]:
    columns = _draw_distinct(rng, WIDE_TABLES[table], _COLUMN_WEIGHTS, n_columns)
    where = " AND ".join(_predicate(rng, c) for c in columns)
    if kind == "update":
        target = rng.choice(WIDE_TABLES[table])
        sql = f"UPDATE {table} SET {target} = {rng.randint(0, 99)} WHERE {where}"
    else:
        sql = f"DELETE FROM {table} WHERE {where}"
    return sql, {(table, c) for c in columns}


def diverse(seed: int, statements: int = 2000) -> Workload:
    """Planted 2-6 column predicate sets over 1-3 tables; ~20% writes."""
    rng = random.Random(f"diverse/{seed}")
    kinds = _spread(rng, statements, {"select": 8, "update": 1, "delete": 1})
    selects = kinds.count("select")

    def yes_no(yes: int, no: int) -> list[bool]:
        return _spread(rng, selects, {True: yes, False: no})

    lead_weights = {t: 840 // (rank + 1) for rank, t in enumerate(WIDE_TABLES)}  # Zipf, s=1
    shapes = zip(_spread(rng, selects, lead_weights),
                 _spread(rng, selects, {1: 5, 2: 3, 3: 2}),
                 _spread(rng, selects, {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}),
                 yes_no(1, 4), yes_no(1, 4), yes_no(3, 7), yes_no(1, 1), yes_no(1, 1))
    writes = zip(_spread(rng, statements - selects, lead_weights),
                 _spread(rng, statements - selects, {1: 1, 2: 1, 3: 1, 4: 1}))
    sql, planted = [], []
    for kind in kinds:
        if kind == "select":
            text, attrs = _diverse_select(rng, *next(shapes))
        else:
            text, attrs = _diverse_write(rng, kind, *next(writes))
        sql.append(text)
        planted.append(frozenset(attrs))
    return Workload(
        name="diverse", seed=seed, sql=join_statements(sql),
        schema=render_schema(WIDE_TABLES), stats=render_stats(WIDE_ROWS),
        minsup="2", strategy="all",
        kinds=tuple(kinds), planted=tuple(planted), row_counts=dict(WIDE_ROWS),
    )


# ---------------------------------------------------------------------------
# long-statements: few statements, each tens of KB
# ---------------------------------------------------------------------------


def _ladder(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """n sizes spread evenly over [low, high], in seeded order.

    Every seed gets the same multiset of sizes, so the total work of a run
    does not depend on the seed, only its literals and columns do.
    """
    sizes = [low + (high - low) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _long_select(rng: random.Random, n_projected: int, n_in: int,
                 n_terms: int) -> tuple[str, set]:
    tables = _draw_distinct(rng, list(WIDE_TABLES), _TABLE_WEIGHTS, rng.randint(1, 2))
    attrs: set = set()
    projected = []
    for _ in range(n_projected):
        table = rng.choice(tables)
        a, b = rng.sample(WIDE_TABLES[table], 2)
        projected.append(rng.choice((a, f"{a} * {b}", f"coalesce({a}, {b}, 0)")))
    where = []
    if len(tables) == 2:
        left, right = _draw_column(rng, tables[0]), _draw_column(rng, tables[1])
        attrs |= {(tables[0], left), (tables[1], right)}
        where.append(f"{left} = {right}")
    table = rng.choice(tables)
    column = _draw_column(rng, table)
    attrs.add((table, column))
    values = ", ".join(str(rng.randint(10000, 99999)) for _ in range(n_in))
    where.append(f"{column} IN ({values})")
    chain_columns = [(t, _draw_column(rng, t))
                     for t in (rng.choice(tables) for _ in range(rng.randint(4, 10)))]
    terms = []
    for _ in range(n_terms):
        table, column = rng.choice(chain_columns)
        attrs.add((table, column))
        terms.append(_predicate(rng, column))
    where.append("(" + " OR ".join(terms) + ")")
    sql = (f"SELECT {', '.join(projected)} FROM {', '.join(tables)}"
           f" WHERE {' AND '.join(where)}")
    return sql, attrs


def long_statements(seed: int, statements: int = 32) -> Workload:
    """IN lists of hundreds to thousands of literals, ~100-term OR chains."""
    rng = random.Random(f"long-statements/{seed}")
    shapes = zip(_ladder(rng, statements, 40, 120),
                 _ladder(rng, statements, 300, 3000),
                 _ladder(rng, statements, 80, 120))
    sql, planted = [], []
    for n_projected, n_in, n_terms in shapes:
        text, attrs = _long_select(rng, n_projected, n_in, n_terms)
        sql.append(text)
        planted.append(frozenset(attrs))
    return Workload(
        name="long-statements", seed=seed, sql=join_statements(sql),
        schema=render_schema(WIDE_TABLES), stats=render_stats(WIDE_ROWS),
        minsup="0.05", strategy="all",
        kinds=("select",) * statements, planted=tuple(planted),
        row_counts=dict(WIDE_ROWS),
    )


GENERATORS = {
    "templated": templated,
    "diverse": diverse,
    "long-statements": long_statements,
}
