"""Execution engine tests: every operator, counters, subqueries."""

import pytest

from repro.common.errors import ExecutionError
from repro.db.database import connect
from repro.storage.schema import ColumnType, Schema

from tests.conftest import make_wifi_db


def small_db():
    db = connect("mysql", page_size=8)
    db.create_table("t", Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT)))
    db.insert("t", [(i, i % 3) for i in range(20)])
    db.create_index("t", "a")
    db.analyze()
    return db


class TestScansAndFilters:
    def test_seq_scan_counts_pages(self):
        db = small_db()
        db.reset_counters()
        db.execute("SELECT * FROM t")
        assert db.counters.pages_sequential == 3  # 20 rows / 8 per page
        assert db.counters.tuples_scanned == 20

    def test_index_scan_counts_random_pages(self):
        db, _ = make_wifi_db(n_rows=20_000, n_owners=500)
        db.reset_counters()
        r = db.execute("SELECT * FROM wifi FORCE INDEX (idx_wifi_owner) WHERE owner = 7")
        # One random page per distinct page touched (per-scan buffer pool);
        # never more than one per row, never more than the table has.
        assert 0 < db.counters.pages_random <= len(r)
        assert db.counters.pages_random <= db.catalog.table("wifi").page_count
        assert db.counters.pages_sequential == 0

    def test_filter_predicate_counted(self):
        db = small_db()
        db.reset_counters()
        db.execute("SELECT * FROM t USE INDEX () WHERE b = 1")
        assert db.counters.predicate_evals == 20

    def test_where_false(self):
        db = small_db()
        assert len(db.execute("SELECT * FROM t WHERE FALSE")) == 0

    def test_index_range_scan_results(self):
        db = small_db()
        r = db.execute("SELECT a FROM t FORCE INDEX (idx_t_a) WHERE a BETWEEN 5 AND 8")
        assert sorted(row[0] for row in r) == [5, 6, 7, 8]


def owner_db(indexed: bool):
    db = connect("mysql")
    db.create_table("t", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
    db.insert("t", [(i, i % 7) for i in range(200)])
    if indexed:
        db.create_index("t", "owner")
    db.analyze()
    return db


class TestTypeMismatches:
    """Whether a query fails does not depend on its access path, and a
    failure is typed."""

    def test_equality_with_an_unorderable_key_finds_no_rows_on_any_path(self):
        sql = "SELECT * FROM t WHERE owner = 'x'"
        assert owner_db(indexed=False).execute(sql).rows == []
        indexed = owner_db(indexed=True)
        assert indexed.execute("SELECT * FROM t FORCE INDEX (idx_t_owner) WHERE owner = 'x'").rows == []
        assert indexed.execute(sql).rows == []
        assert indexed.execute("SELECT * FROM t WHERE owner IN ('x', 3)").rows == [
            (i, 3) for i in range(3, 200, 7)
        ]

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t WHERE owner < 'x'",
            "SELECT * FROM t WHERE owner BETWEEN 'a' AND 3",
            "SELECT abs()",
            "SELECT * FROM t WHERE owner = 1 + 'a'",
        ],
    )
    def test_a_type_error_is_an_execution_error(self, indexed, sql):
        with pytest.raises(ExecutionError) as err:
            owner_db(indexed).execute(sql)
        assert isinstance(err.value.__cause__, TypeError)


class TestBitmapScan:
    def test_bitmap_or_dedups_pages_and_rows(self):
        db, rows = make_wifi_db("postgres", n_rows=30_000, n_owners=800)
        db.reset_counters()
        r = db.execute("SELECT * FROM wifi WHERE owner = 3 OR owner = 4 OR wifiap = 31")
        expected = [x for x in rows if x[2] in (3, 4) or x[1] == 31]
        assert sorted(r.rows) == sorted(expected)
        assert db.counters.pages_bitmap > 0
        assert db.counters.pages_random == 0
        # bitmap visits each page at most once
        assert db.counters.pages_bitmap <= db.catalog.table("wifi").page_count


class TestProjection:
    def test_column_order_and_alias(self):
        db = small_db()
        r = db.execute("SELECT b AS bee, a FROM t LIMIT 1")
        assert r.columns == ["bee", "a"]

    def test_expression_projection(self):
        db = small_db()
        r = db.execute("SELECT a * 2 + 1 AS x FROM t WHERE a = 3")
        assert r.rows == [(7,)]

    def test_star_passthrough(self):
        db = small_db()
        r = db.execute("SELECT * FROM t LIMIT 2")
        assert r.columns == ["a", "b"]

    def test_select_without_from(self):
        db = small_db()
        assert db.execute("SELECT 1 + 1 AS two").rows == [(2,)]

    def test_result_column_accessor(self):
        db = small_db()
        r = db.execute("SELECT a FROM t WHERE a < 3")
        assert sorted(r.column("a")) == [0, 1, 2]
        with pytest.raises(ExecutionError):
            r.column("zzz")


class TestJoins:
    def make_join_db(self):
        db = connect("mysql")
        db.create_table("e", Schema.of(("student", ColumnType.INT), ("klass", ColumnType.VARCHAR)))
        db.create_table("g", Schema.of(("student", ColumnType.INT), ("grade", ColumnType.INT)))
        db.insert("e", [(1, "cs"), (2, "cs"), (3, "math")])
        db.insert("g", [(1, 90), (2, 80), (4, 70)])
        db.analyze()
        return db

    def test_comma_join_with_where(self):
        db = self.make_join_db()
        r = db.execute("SELECT e.student, grade FROM e, g WHERE e.student = g.student")
        assert sorted(r.rows) == [(1, 90), (2, 80)]

    def test_inner_join_on(self):
        db = self.make_join_db()
        r = db.execute("SELECT e.student FROM e JOIN g ON e.student = g.student WHERE klass = 'cs'")
        assert sorted(r.rows) == [(1,), (2,)]

    def test_cross_join(self):
        db = self.make_join_db()
        r = db.execute("SELECT count(*) AS n FROM e CROSS JOIN g")
        assert r.rows == [(9,)]

    def test_index_nl_join_used_when_beneficial(self):
        # Few outer rows, highly selective inner key: probing the owner
        # index beats hashing the whole 30k-row table.
        db, rows = make_wifi_db(n_rows=30_000, n_owners=3000)
        db.create_table("m", Schema.of(("gid", ColumnType.INT), ("user_id", ColumnType.INT)))
        db.insert("m", [(1, i) for i in range(5)])
        db.analyze()
        r = db.execute(
            "SELECT count(*) AS n FROM m, wifi WHERE m.user_id = wifi.owner AND m.gid = 1"
        )
        expected = sum(1 for x in rows if x[2] < 5)
        assert r.rows == [(expected,)]
        access = db.explain_access(
            "SELECT count(*) AS n FROM m, wifi WHERE m.user_id = wifi.owner AND m.gid = 1"
        )
        assert any(a.method == "index-nl-inner" for a in access)

    def test_three_way_join(self):
        db = self.make_join_db()
        db.create_table("n", Schema.of(("student", ColumnType.INT), ("nick", ColumnType.VARCHAR)))
        db.insert("n", [(1, "ann"), (2, "bob")])
        db.analyze()
        r = db.execute(
            "SELECT nick, grade FROM e, g, n "
            "WHERE e.student = g.student AND g.student = n.student"
        )
        assert sorted(r.rows) == [("ann", 90), ("bob", 80)]


class TestAggregation:
    def test_group_by_count(self):
        db = small_db()
        r = db.execute("SELECT b, count(*) AS n FROM t GROUP BY b ORDER BY b")
        assert r.rows == [(0, 7), (1, 7), (2, 6)]

    def test_all_aggregates(self):
        db = small_db()
        r = db.execute(
            "SELECT count(a) AS c, sum(a) AS s, avg(a) AS av, min(a) AS lo, max(a) AS hi FROM t"
        )
        assert r.rows == [(20, 190, 9.5, 0, 19)]

    def test_count_distinct(self):
        db = small_db()
        r = db.execute("SELECT count(DISTINCT b) AS n FROM t")
        assert r.rows == [(3,)]

    def test_global_aggregate_on_empty_input(self):
        db = small_db()
        r = db.execute("SELECT count(*) AS n, sum(a) AS s FROM t WHERE a > 1000")
        assert r.rows == [(0, None)]

    def test_group_by_empty_input_yields_no_rows(self):
        db = small_db()
        r = db.execute("SELECT b, count(*) AS n FROM t WHERE a > 1000 GROUP BY b")
        assert r.rows == []

    def test_having(self):
        db = small_db()
        r = db.execute("SELECT b, count(*) AS n FROM t GROUP BY b HAVING count(*) > 6 ORDER BY b")
        assert r.rows == [(0, 7), (1, 7)]

    def test_aggregate_of_expression(self):
        db = small_db()
        r = db.execute("SELECT sum(a * 2) AS s FROM t")
        assert r.rows == [(380,)]

    def test_expression_over_aggregates(self):
        db = small_db()
        r = db.execute("SELECT max(a) - min(a) AS spread FROM t")
        assert r.rows == [(19,)]

    def test_avg_null_on_empty(self):
        db = small_db()
        r = db.execute("SELECT avg(a) AS m FROM t WHERE a < 0")
        assert r.rows == [(None,)]


class TestOrderingLimitsSetOps:
    def test_order_by_multi_key(self):
        db = small_db()
        r = db.execute("SELECT b, a FROM t ORDER BY b DESC, a ASC LIMIT 3")
        assert r.rows == [(2, 2), (2, 5), (2, 8)]

    def test_limit_zero(self):
        db = small_db()
        assert db.execute("SELECT * FROM t LIMIT 0").rows == []

    def test_distinct(self):
        db = small_db()
        r = db.execute("SELECT DISTINCT b FROM t ORDER BY b")
        assert r.rows == [(0,), (1,), (2,)]

    def test_union_dedups(self):
        db = small_db()
        r = db.execute("SELECT b FROM t WHERE a < 3 UNION SELECT b FROM t WHERE a < 6")
        assert sorted(r.rows) == [(0,), (1,), (2,)]

    def test_union_all_keeps_duplicates(self):
        db = small_db()
        r = db.execute("SELECT b FROM t WHERE a = 1 UNION ALL SELECT b FROM t WHERE a = 1")
        assert r.rows == [(1,), (1,)]

    def test_except(self):
        db = small_db()
        r = db.execute("SELECT a FROM t WHERE a < 5 EXCEPT SELECT a FROM t WHERE a < 2")
        assert sorted(r.rows) == [(2,), (3,), (4,)]

    def test_minus_spelling(self):
        db = small_db()
        r = db.execute("SELECT a FROM t WHERE a < 3 MINUS SELECT a FROM t WHERE a = 1")
        assert sorted(r.rows) == [(0,), (2,)]

    def test_intersect(self):
        db = small_db()
        r = db.execute("SELECT a FROM t WHERE a < 5 INTERSECT SELECT a FROM t WHERE a > 2")
        assert sorted(r.rows) == [(3,), (4,)]


class TestCTEs:
    def test_cte_materialised_once(self):
        db = small_db()
        db.reset_counters()
        r = db.execute(
            "WITH v AS (SELECT * FROM t WHERE b = 1) "
            "SELECT count(*) AS n FROM v UNION ALL SELECT sum(a) FROM v"
        )
        assert r.rows[0] == (7,)
        # base table scanned exactly once (3 pages), CTE reused in memory
        assert db.counters.pages_sequential == 3

    def test_cte_referenced_by_join(self):
        db = small_db()
        r = db.execute(
            "WITH v AS (SELECT a, b FROM t WHERE a < 4) "
            "SELECT v1.a, v2.a FROM v AS v1, v AS v2 WHERE v1.a = v2.a AND v1.b = 0"
        )
        assert sorted(r.rows) == [(0, 0), (3, 3)]


class TestSubqueries:
    def test_uncorrelated_in_subquery(self):
        db = self_db = small_db()
        db.create_table("allow", Schema.of(("a", ColumnType.INT),))
        db.insert("allow", [(2,), (4,)])
        db.analyze()
        r = self_db.execute("SELECT a FROM t WHERE a IN (SELECT a FROM allow)")
        assert sorted(r.rows) == [(2,), (4,)]

    def test_uncorrelated_scalar_subquery(self):
        db = small_db()
        r = db.execute("SELECT a FROM t WHERE a = (SELECT max(a) FROM t)")
        assert r.rows == [(19,)]

    def test_correlated_scalar_subquery(self):
        db = connect("mysql")
        db.create_table("w", Schema.of(("owner", ColumnType.INT), ("ap", ColumnType.INT), ("ts", ColumnType.INT)))
        # Prof (owner 0) at ap 5 at ts 1; student (owner 1) at ap 5 at ts 1 and ap 6 at ts 2.
        db.insert("w", [(0, 5, 1), (1, 5, 1), (1, 6, 2), (0, 7, 2)])
        db.analyze()
        r = db.execute(
            "SELECT owner, ts FROM w AS outer_w WHERE owner = 1 AND ap = "
            "(SELECT w2.ap FROM w AS w2 WHERE w2.owner = 0 AND w2.ts = outer_w.ts)"
        )
        assert sorted(r.rows) == [(1, 1)]  # only co-located rows survive

    def test_scalar_subquery_multiple_rows_raises(self):
        db = small_db()
        with pytest.raises(ExecutionError):
            db.execute("SELECT a FROM t WHERE a = (SELECT a FROM t)")

    def test_scalar_subquery_empty_is_null(self):
        db = small_db()
        r = db.execute("SELECT a FROM t WHERE a = (SELECT a FROM t WHERE a > 99)")
        assert r.rows == []


class TestUDFs:
    def test_udf_in_where_and_projection(self):
        db = small_db()
        db.create_function("triple", lambda x: x * 3)
        r = db.execute("SELECT triple(a) AS x FROM t WHERE triple(b) = 3 AND a < 5")
        assert sorted(r.rows) == [(3,), (12,)]

    def test_udf_invocations_counted(self):
        db = small_db()
        db.create_function("noop", lambda x: True)
        db.reset_counters()
        db.execute("SELECT * FROM t WHERE noop(a)")
        assert db.counters.udf_invocations == 20
