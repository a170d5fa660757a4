"""Two query shapes that used to leave through an untyped door.

* A protected relation named inside a ``WHERE`` / select-list subquery:
  Sieve redirects it to the statement's ``<table>_sieve`` CTE, so the
  subquery has to be planned with the enclosing statement's CTEs in
  scope (it used to end in ``CatalogError: unknown table``).
* Input nested deeper than the parser follows: a ``ParseError`` from
  every tier, never the interpreter's ``RecursionError``.
"""

from __future__ import annotations

import pytest

from repro import connect
from repro.backend import SqliteBackend
from repro.cluster import SieveCluster
from repro.common.errors import ParseError, PlanError
from repro.core import Sieve
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.service import SieveServer
from repro.sql.parser import MAX_NESTING_DEPTH, parse_query
from repro.storage.schema import ColumnType, Schema

QUERIER, PURPOSE = "auditor", "analytics"
_WIFI = [(i, i % 5, i % 3) for i in range(60)]  # id, owner, ap
_PEOPLE = [(i, i % 5) for i in range(0, 90, 3)]  # id, owner


def build_world(personality: str = "mysql", vectorized: bool = True):
    """``wifi`` is protected (the querier may read owners 1 and 2),
    ``people`` is not; both carry ``id`` and ``owner`` so an unqualified
    column inside a subquery has two places it could resolve."""
    db = connect(personality, vectorized=vectorized)
    db.create_table(
        "wifi",
        Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT), ("ap", ColumnType.INT)),
    )
    db.insert("wifi", _WIFI)
    db.create_table("people", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
    db.insert("people", _PEOPLE)
    for column in ("id", "owner"):
        db.create_index("wifi", column)
    db.analyze()
    store = PolicyStore(db, GroupDirectory())
    for owner in (1, 2):
        store.insert(
            Policy(
                owner=owner,
                querier=QUERIER,
                purpose=PURPOSE,
                table="wifi",
                object_conditions=(ObjectCondition("owner", "=", owner),),
            )
        )
    return db, store


def subquery_cases(owners: set[int]):
    """(sql, the rows a querier allowed ``owners``' wifi rows must read)."""
    visible = [w for w in _WIFI if w[1] in owners]
    return [
        (
            "SELECT id FROM people WHERE id IN (SELECT id FROM wifi)",
            [(p,) for p, _ in _PEOPLE if p in {w[0] for w in visible}],
        ),
        (
            "SELECT id FROM people WHERE id = (SELECT MAX(id) FROM wifi)",
            [(p,) for p, _ in _PEOPLE if p == max((w[0] for w in visible), default=None)],
        ),
        (  # correlated, in the select list, qualified
            "SELECT id, (SELECT count(*) FROM wifi WHERE wifi.owner = people.owner) AS n "
            "FROM people WHERE id < 20",
            [(p, sum(1 for w in visible if w[1] == o)) for p, o in _PEOPLE if p < 20],
        ),
        (  # correlated, in WHERE; `owner` and `id` unqualified inside are wifi's
            "SELECT id FROM people WHERE owner = (SELECT max(owner) FROM wifi WHERE id = people.id)",
            [(p,) for p, o in _PEOPLE if any(w[0] == p and w[1] == o for w in visible)],
        ),
    ]


@pytest.mark.parametrize("personality", ["mysql", "postgres"])
@pytest.mark.parametrize("vectorized", [True, False], ids=["product", "oracle"])
@pytest.mark.parametrize("querier,owners", [(QUERIER, {1, 2}), ("nobody", set())])
def test_protected_relation_under_a_subquery(personality, vectorized, querier, owners):
    """Both engines and the SQLite backend answer with the permitted
    rows; a policy-less querier reads none of ``wifi``."""
    db, store = build_world(personality, vectorized)
    sieve = Sieve(db, store)
    on_sqlite = Sieve(db, store, backend=SqliteBackend().ship(db))
    for sql, expected in subquery_cases(owners):
        assert bool(expected) == (bool(owners) or "AS n" in sql), f"vacuous case: {sql}"
        assert sorted(sieve.execute(sql, querier, PURPOSE).rows) == sorted(expected), sql
        assert sorted(on_sqlite.execute(sql, querier, PURPOSE).rows) == sorted(expected), sql


def test_with_inside_an_expression_subquery_is_refused_typed():
    db, _store = build_world()
    with pytest.raises(PlanError, match="WITH inside"):
        db.execute("SELECT id FROM people WHERE id IN (WITH w AS (SELECT id FROM wifi) SELECT id FROM w)")


# ------------------------------------------------------------ nesting depth


def _nested(depth: int) -> str:
    return "SELECT id FROM wifi WHERE " + "(" * depth + "id < 10" + ")" * depth


def test_parser_refuses_every_kind_of_runaway_nesting():
    """Whatever re-enters the descent is counted: no shape reaches the
    interpreter's recursion limit."""
    deep = 5 * MAX_NESTING_DEPTH
    shapes = [
        _nested(deep),
        "SELECT id FROM t WHERE " + "NOT " * deep + "id = 1",
        "SELECT " + "- " * deep + "id FROM t",
        "SELECT " + "abs(" * deep + "1" + ")" * deep,
        "SELECT id FROM t WHERE id IN " + "(SELECT id FROM t WHERE id IN " * deep + "(1)" + ")" * deep,
        "(" * deep + "SELECT 1" + ")" * deep,
        "SELECT * FROM " + "(SELECT * FROM " * deep + "t" + ") d" * deep,
        "WITH a AS (" * deep + "SELECT 1" + ") SELECT 1" * deep,
    ]
    for sql in shapes:
        with pytest.raises(ParseError, match="nested deeper"):
            parse_query(sql)
    parse_query(_nested(100))
    with pytest.raises(ParseError):
        parse_query(_nested(101))


def test_depth_100_answers_and_depth_500_is_a_parse_error_on_every_tier():
    db, store = build_world()
    sieve = Sieve(db, store)
    expected = sorted((w[0],) for w in _WIFI if w[1] in (1, 2) and w[0] < 10)
    assert sorted(sieve.execute(_nested(100), QUERIER, PURPOSE).rows) == expected
    with pytest.raises(ParseError):
        sieve.execute(_nested(500), QUERIER, PURPOSE)
    with SieveServer(sieve, workers=1) as server:
        assert sorted(server.submit(_nested(100), QUERIER, PURPOSE).result(timeout=60).rows) == expected
        with pytest.raises(ParseError):
            server.submit(_nested(500), QUERIER, PURPOSE).result(timeout=60)
    with SieveCluster.replicated(db, store, n_shards=2, workers_per_shard=1) as cluster:
        assert sorted(cluster.submit(_nested(100), QUERIER, PURPOSE).result(timeout=60).rows) == expected
        with pytest.raises(ParseError):
            cluster.submit(_nested(500), QUERIER, PURPOSE).result(timeout=60)
