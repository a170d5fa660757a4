"""Ternary Logic Partitioning (Rigger & Su, OOPSLA 2020) over NULLs,
signed zeros and NaN.

Every row of a query ``Q`` makes a predicate ``p`` true, false or
unknown, so ``Q`` is the multiset union of ``Q WHERE p``,
``Q WHERE NOT (p)`` and ``Q WHERE (p) IS NULL`` — and ``COUNT``,
``SUM``, ``MIN`` and ``MAX`` over ``Q`` fold the three partitions'
values.  No reference engine is needed: a path that treats unknown as
false somewhere (a two-valued ``NOT``, ``IS NULL`` over a predicate, an
``IN`` list holding NULL) loses or repeats rows.

The worlds hold nullable INT and float columns with NULL, 0.0 and
-0.0; column ``y`` may also hold NaN.  SQLite stores a NaN as NULL, so
NaN is only a NaN on the bundled engine's paths.  The paths: the
bundled engine with the vectorized executor on and off, the SQLite
backend the table is shipped to, and ``Sieve.serve`` over the table
protected, its querier holding one policy that admits every row.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import connect
from repro.backend import SqliteBackend
from repro.core import Sieve
from repro.policy import ObjectCondition, Policy, PolicyStore
from repro.storage.schema import Column, ColumnType, Schema

COLUMNS = "id, a, b, x, y"
#: The aggregate split reads columns Python's ``min`` orders: no NaN.
AGGREGATES = "COUNT(*), SUM(a), MIN(a), MAX(a), SUM(b), MIN(b), MAX(x), SUM(x), MIN(x)"

INT_VALUES = st.sampled_from([None, 0, 1, 2, -1, 3])
#: Halves and quarters: every sum of a few is exact, in any order.
FLOAT_VALUES = st.sampled_from([None, 0.0, -0.0, 0.5, -1.5, 2.25])
ROWS = st.lists(
    st.tuples(INT_VALUES, INT_VALUES, FLOAT_VALUES, FLOAT_VALUES | st.just(math.nan)),
    min_size=1,
    max_size=10,
)

INT_TEXT = st.sampled_from(["NULL", "0", "1", "2", "-1", "3"])
FLOAT_TEXT = st.sampled_from(["NULL", "0.0", "-0.0", "0.5", "-1.5", "2.25"])
OPERAND = st.sampled_from(["a", "b", "x", "y"]) | INT_TEXT | FLOAT_TEXT
COLUMN = st.sampled_from(["a", "b", "x", "y"])


def _atoms():
    compare = st.builds(lambda l, op, r: f"{l} {op} {r}", COLUMN, st.sampled_from(["=", "<"]), OPERAND)
    between = st.builds(lambda e, lo, hi: f"{e} BETWEEN {lo} AND {hi}", COLUMN, OPERAND, OPERAND)
    listed = st.builds(
        lambda e, neg, items: f"{e} {'NOT IN' if neg else 'IN'} ({', '.join(items)})",
        COLUMN,
        st.booleans(),
        st.lists(INT_TEXT | FLOAT_TEXT, min_size=1, max_size=3),
    )
    is_null = st.builds(lambda e: f"{e} IS NULL", OPERAND)
    return compare | between | listed | is_null


PREDICATES = st.recursive(
    _atoms(),
    lambda inner: st.builds(lambda p: f"NOT ({p})", inner)
    | st.builds(lambda p, q: f"({p}) AND ({q})", inner, inner)
    | st.builds(lambda p, q: f"({p}) OR ({q})", inner, inner)
    | st.builds(lambda p: f"({p}) IS NULL", inner),
    max_leaves=5,
)


def _paths(rows):
    """``[(name, run(sql) -> rows)]`` over one world."""
    db = connect("postgres")
    db.create_table(
        "t",
        Schema([
            Column("id", ColumnType.INT),
            Column("owner", ColumnType.INT),
            Column("a", ColumnType.INT, nullable=True),
            Column("b", ColumnType.INT, nullable=True),
            Column("x", ColumnType.FLOAT, nullable=True),
            Column("y", ColumnType.FLOAT, nullable=True),
        ]),
    )
    db.insert("t", [(i, 0, *row) for i, row in enumerate(rows)])
    db.create_index("t", "owner")  # a guard is an indexed condition
    db.analyze()
    backend = SqliteBackend().ship(db)
    store = PolicyStore(db)
    store.insert(Policy(  # every row is owner 0's
        owner=0, querier="q", purpose="p", table="t",
        object_conditions=(ObjectCondition("owner", "=", 0),),
    ))
    sieve = Sieve(db, store)

    def bundled(vectorized):
        def run(sql):
            db.vectorized = vectorized
            return db.execute(sql).rows

        return run

    return [
        ("vectorized", bundled(True)),
        ("tuple", bundled(False)),
        ("sqlite", lambda sql: backend.execute(sql).rows),
        ("sieve", lambda sql: sieve.serve(sql, "q", "p").result.rows),
    ]


def _multiset(rows):
    """Rows as a multiset, each value by its ``repr``: -0.0 is not 0.0
    and NaN equals NaN."""
    return Counter(tuple(repr(value) for value in row) for row in rows)


def _values(rows):
    """Rows as a multiset of SQL values — 0.0 and -0.0 are one value, as
    are 1 and 1.0 — for comparing paths, which may spell them apart."""
    return Counter(tuple("NaN" if value != value else value for value in row) for row in rows)


def _fold(name, values):
    present = [value for value in values if value is not None]
    if name == "COUNT" or name == "SUM":
        return sum(present) if present else (0 if name == "COUNT" else None)
    if not present:
        return None
    return min(present) if name == "MIN" else max(present)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(rows=ROWS, p=PREDICATES)
def test_every_row_falls_in_exactly_one_partition(rows, p):
    """On each path ``Q`` is the union of its three partitions, rows
    and aggregates alike, and every path answers each partition as the
    tuple executor does (SQLite only where no NaN was stored).  The
    second check is what sees an engine that is two-valued throughout:
    its partitions add up, but unknown rows sit in the wrong one."""
    names = [item.split("(")[0] for item in AGGREGATES.split(", ")]
    wheres = ["", f"WHERE {p}", f"WHERE NOT ({p})", f"WHERE ({p}) IS NULL"]
    sqls = [f"SELECT {COLUMNS} FROM t {where}" for where in wheres]
    sqls += [f"SELECT {AGGREGATES} FROM t {where}" for where in wheres]
    answers = {path: [run(sql) for sql in sqls] for path, run in _paths(rows)}
    for path, (whole, *parts, total, t_true, t_false, t_null) in answers.items():
        union = sum((_multiset(part) for part in parts), Counter())
        assert union == _multiset(whole), (path, p)
        split = [t_true[0], t_false[0], t_null[0]]
        folded = tuple(_fold(name, column) for name, column in zip(names, zip(*split)))
        assert folded == tuple(total[0]), (path, p)
    stored_nan = any(value != value for row in rows for value in row)
    reference = [_values(answer) for answer in answers["tuple"]]
    for path, answer in answers.items():
        if path != "sqlite" or not stored_nan:
            assert [_values(result) for result in answer] == reference, (path, p)
