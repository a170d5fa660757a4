"""Rewriter helpers and rewrite structure."""

import pytest

from repro.core.cost_model import SieveCostModel
from repro.core.generation import build_guarded_expression
from repro.core.middleware import Sieve
from repro.core.rewriter import (
    aliases_for_table,
    collect_table_names,
    query_predicates_for,
    strip_qualifiers,
)
from repro.expr.nodes import ColumnRef
from repro.policy.groups import GroupDirectory
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_expression, parse_query

from tests.conftest import make_policies, make_wifi_db

WIFI_COLS = {"id", "wifiap", "owner", "ts_time", "ts_date"}


class TestCollectTableNames:
    def test_simple(self):
        q = parse_query("SELECT * FROM wifi WHERE owner = 1")
        assert collect_table_names(q) == {"wifi"}

    def test_joins_and_commas(self):
        q = parse_query("SELECT * FROM a, b JOIN c ON b.x = c.x")
        assert collect_table_names(q) == {"a", "b", "c"}

    def test_cte_references_not_tables(self):
        q = parse_query("WITH v AS (SELECT * FROM wifi) SELECT * FROM v")
        assert collect_table_names(q) == {"wifi"}

    def test_derived_tables(self):
        q = parse_query("SELECT * FROM (SELECT * FROM wifi) AS d")
        assert collect_table_names(q) == {"wifi"}

    def test_subquery_tables_found(self):
        q = parse_query("SELECT * FROM a WHERE x = (SELECT max(y) FROM b)")
        assert collect_table_names(q) == {"a", "b"}

    def test_in_subquery_tables_found(self):
        q = parse_query("SELECT * FROM a WHERE x IN (SELECT y FROM c)")
        assert collect_table_names(q) == {"a", "c"}

    def test_set_ops(self):
        q = parse_query("SELECT x FROM a UNION SELECT x FROM b")
        assert collect_table_names(q) == {"a", "b"}


class TestAliases:
    def test_alias_and_bare(self):
        q = parse_query("SELECT * FROM wifi AS W")
        assert aliases_for_table(q, "wifi") == ["W"]
        q2 = parse_query("SELECT * FROM wifi")
        assert aliases_for_table(q2, "wifi") == ["wifi"]

    def test_multiple_references(self):
        q = parse_query("SELECT * FROM wifi AS a, wifi AS b WHERE a.id = b.id")
        assert aliases_for_table(q, "wifi") == ["a", "b"]


class TestQueryPredicates:
    def test_single_table_constant_conjuncts_found(self):
        q = parse_query(
            "SELECT * FROM wifi AS W WHERE W.ts_date BETWEEN 1 AND 5 AND W.owner = 2"
        )
        preds = query_predicates_for(q, "wifi", WIFI_COLS)
        assert len(preds) == 2

    def test_join_conjuncts_excluded(self):
        q = parse_query(
            "SELECT * FROM wifi AS W, m WHERE m.uid = W.owner AND W.ts_date = 3"
        )
        preds = query_predicates_for(q, "wifi", WIFI_COLS)
        assert len(preds) == 1
        assert "ts_date" in str(preds[0])

    def test_multiple_references_disable_copying(self):
        q = parse_query(
            "SELECT id FROM wifi WHERE ts_date <= 45 "
            "EXCEPT SELECT id FROM wifi WHERE ts_date > 20"
        )
        assert query_predicates_for(q, "wifi", WIFI_COLS) == []

    def test_subquery_predicates_excluded(self):
        q = parse_query(
            "SELECT * FROM wifi WHERE owner = (SELECT max(uid) FROM m) AND ts_date = 1"
        )
        preds = query_predicates_for(q, "wifi", WIFI_COLS)
        assert len(preds) == 1

    def test_udf_predicates_excluded(self):
        q = parse_query("SELECT * FROM wifi WHERE somefn(owner) AND ts_date = 1")
        preds = query_predicates_for(q, "wifi", WIFI_COLS)
        assert len(preds) == 1


class TestStripQualifiers:
    def test_strips_nested(self):
        e = parse_expression("W.a = 1 AND (W.b BETWEEN 2 AND 3 OR W.c IN (4, 5))")
        stripped = strip_qualifiers(e)
        refs = [n for n in str(stripped).split() if "." in n]
        assert refs == []

    def test_idempotent_on_bare(self):
        e = parse_expression("a = 1")
        assert strip_qualifiers(e) == e


class TestRewriteStructure:
    def setup_method(self):
        self.db, self.rows = make_wifi_db(n_rows=3000)
        self.store = PolicyStore(self.db, GroupDirectory())
        self.store.insert_many(make_policies(n_owners=10))
        self.sieve = Sieve(self.db, self.store)

    def test_cte_prepended_and_references_redirected(self):
        q = self.sieve.rewrite(
            "SELECT * FROM wifi AS W WHERE W.ts_date = 3", "prof", "analytics"
        )
        assert q.ctes[0].name == "wifi_sieve"
        ref = q.body.from_items[0]
        assert ref.name == "wifi_sieve"
        assert ref.alias == "W"  # outer alias preserved

    def test_existing_ctes_kept_after_sieve_ctes(self):
        q = self.sieve.rewrite(
            "WITH v AS (SELECT * FROM wifi) SELECT count(*) AS n FROM v",
            "prof", "analytics",
        )
        names = [c.name for c in q.ctes]
        assert names[0] == "wifi_sieve"
        assert "v" in names
        # the user CTE's wifi reference now points at the sieve CTE
        user_cte = next(c for c in q.ctes if c.name == "v")
        assert user_cte.query.body.from_items[0].name == "wifi_sieve"

    def test_subquery_references_redirected(self):
        q = self.sieve.rewrite(
            "SELECT * FROM wifi WHERE ts_time = (SELECT max(ts_time) FROM wifi)",
            "prof", "analytics",
        )
        # both the FROM and the scalar subquery must see the sieve CTE
        assert q.body.from_items[0].name == "wifi_sieve"
        sub = q.body.where.right.select
        assert sub.body.from_items[0].name == "wifi_sieve"

    def test_unprotected_tables_untouched(self):
        from repro.storage.schema import ColumnType, Schema

        self.db.create_table("plain", Schema.of(("x", ColumnType.INT),))
        self.db.insert("plain", [(1,)])
        q = self.sieve.rewrite("SELECT * FROM plain", "prof", "analytics")
        assert q.ctes == []
        assert q.body.from_items[0].name == "plain"

    def test_denied_table_rewrites_to_empty(self):
        q = self.sieve.rewrite("SELECT * FROM wifi", "nobody", "analytics")
        cte_sql = str(q.ctes[0].query)
        assert "FALSE" in cte_sql.upper()

    def test_original_query_ast_not_mutated(self):
        original = parse_query("SELECT * FROM wifi WHERE ts_date = 3")
        before = str(original)
        self.sieve.rewrite(original, "prof", "analytics")
        assert str(original) == before


# ------------------------------------------------- sharing, not copying

#: One statement per place a table reference can hide.
NESTED_SHAPES = (
    "SELECT a.id FROM wifi AS a JOIN wifi AS b ON a.id = b.id WHERE a.ts_date >= 3",
    "SELECT x.id FROM (SELECT id, owner FROM wifi WHERE ts_date > 3) AS x WHERE x.owner > 3",
    "SELECT id FROM plain WHERE id IN (SELECT id FROM wifi WHERE ts_date = 3)",
    "SELECT id FROM wifi WHERE ts_date = 3 UNION SELECT id FROM wifi WHERE ts_date = 4",
    "WITH recent AS (SELECT id, owner FROM wifi WHERE ts_date >= 3) SELECT id FROM recent",
    "SELECT id FROM plain AS p JOIN plain AS q ON p.id = q.id AND p.id IN (SELECT id FROM wifi)",
    "SELECT id FROM (WITH v AS (SELECT id FROM wifi) SELECT id FROM v) AS d",
)


class TestRewriteShares:
    def setup_method(self):
        from repro.storage.schema import ColumnType, Schema

        TestRewriteStructure.setup_method(self)
        self.db.create_table("plain", Schema.of(("id", ColumnType.INT),))
        self.db.insert("plain", [(i,) for i in range(20)])

    def _prepare(self, sql):
        """The middleware pipeline up to planning, as ``Sieve.execute``
        runs it: parsed and parameterized, then prepared."""
        statement, values = self.sieve._parsed(sql)
        return self.sieve._prepare(statement, "prof", "analytics", values)

    @pytest.mark.parametrize("sql", NESTED_SHAPES)
    def test_input_untouched_and_every_reference_redirected(self, sql):
        """The rewrite shares the input's nodes instead of copying them:
        the input prints as before, rewriting twice prints the same
        text, and no statement nested anywhere reads ``wifi`` itself —
        a subquery in a JOIN's ON clause and a WITH inside a derived
        table included (the parent left both reading the bare table)."""
        original = parse_query(sql)
        before = str(original)
        first = self._prepare(original)[0].rewrite
        self.sieve.plan_cache.invalidate()  # rewrite again, not the held template rewrite
        again = self._prepare(original)[0].rewrite
        assert str(original) == before
        assert first.sql == again.sql
        body = first.sql[first.sql.index("wifi_sieve AS (") :]
        body = body[body.index(") ") :]  # past the enforcement CTE itself
        assert "wifi_sieve" in body
        assert "FROM wifi " not in body + " " and "JOIN wifi " not in body + " "

    def test_untouched_nodes_are_the_inputs_own(self):
        """Only the spine down to a replaced reference is rebuilt: the
        rewriter shares every other node with the query it is given."""
        original = parse_query(
            "SELECT id FROM wifi WHERE ts_date = 3 AND id IN (SELECT id FROM plain) "
            "AND owner IN (SELECT owner FROM wifi) ORDER BY id"
        )
        execution = self._prepare(original)[0]
        expression = self.sieve.guard_store.peek("prof", "analytics", "wifi")
        rewritten, _info = self.sieve.rewriter.rewrite(
            original, {"wifi": expression}, execution.rewrite.decisions
        )
        assert rewritten.body is not original.body
        assert rewritten.body.items[0] is original.body.items[0]
        assert rewritten.body.order_by[0] is original.body.order_by[0]
        date, plain_in, wifi_in = original.body.where.children
        new_date, new_plain_in, new_wifi_in = rewritten.body.where.children
        assert new_date is date and new_plain_in is plain_in  # nothing replaced under them
        assert new_wifi_in is not wifi_in and new_wifi_in.expr is wifi_in.expr
        assert new_wifi_in.select.body.from_items[0].name == "wifi_sieve"

    def test_guard_or_in_the_cte_is_the_expressions_node(self):
        execution, rewritten, _plan = self._prepare("SELECT * FROM wifi WHERE ts_date = 3")
        expression = self.sieve.guard_store.peek("prof", "analytics", "wifi")
        decision = execution.rewrite.decisions["wifi"]
        guard_or = expression.to_expr(
            delta_guards=decision.delta_guards,
            delta_udf="sieve_delta",
            delta_columns=self.db.catalog.table("wifi").schema.names,
        )
        where = rewritten.ctes[0].query.body.where
        assert any(part is guard_or for part in where.children)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT p.id FROM plain AS p JOIN plain AS q ON p.id = q.id AND p.id IN (SELECT id FROM wifi)",
            "SELECT id FROM (WITH v AS (SELECT id FROM wifi) SELECT id FROM v) AS d",
        ],
    )
    def test_hidden_references_are_enforced_on_a_backend(self, sql):
        """A querier no policy admits reads nothing through a subquery
        in an ON clause or a WITH nested in a derived table (SQLite runs
        the text; the bundled planner refuses the second shape)."""
        from repro.backend import SqliteBackend

        sieve = Sieve(self.db, self.store, backend=SqliteBackend().ship(self.db))
        assert sieve.execute(sql, "nobody", "analytics").rows == []
        assert "wifi_sieve" in sieve.rewritten_sql(sql, "nobody", "analytics")

    def test_on_clause_subquery_is_never_served_unrewritten(self):
        """The bundled engine plans a subquery with the statement's CTEs
        in scope, so a protected table under one is read through its
        enforcement CTE (as it is in WHERE): the rows are the SQLite
        backend's, and a querier no policy admits reads none."""
        from repro.backend import SqliteBackend

        sql = "SELECT p.id FROM plain AS p JOIN plain AS q ON p.id = q.id AND p.id IN (SELECT id FROM wifi)"
        on_sqlite = Sieve(self.db, self.store, backend=SqliteBackend().ship(self.db))
        assert self.sieve.execute(sql, "nobody", "analytics").rows == []
        rows = self.sieve.execute(sql, "prof", "analytics").rows
        unenforced = self.db.execute(sql).rows
        assert rows and len(rows) < len(unenforced)
        assert sorted(rows) == sorted(on_sqlite.execute(sql, "prof", "analytics").rows)
