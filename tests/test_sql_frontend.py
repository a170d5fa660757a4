"""Lexer, parser, and printer tests, including round-trip properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ParseError
from repro.expr.nodes import (
    And,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
    Star,
)
from repro.sql import parse_query, parse_expression, to_sql
from repro.sql.ast import DerivedTable, Select, SetOp, TableRef
from repro.sql.lexer import TokenType, tokenize


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT select SeLeCt")
        assert all(t.value == "select" for t in tokens[:3])

    def test_string_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_quoted_identifiers(self):
        assert tokenize('"weird name"')[0].type is TokenType.IDENT
        assert tokenize("`ts-date`")[0].value == "ts-date"

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 1e-5")[:3]]
        assert values == ["1", "2.5", "1e-5"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- comment\n 1")
        assert [t.value for t in tokens[:2]] == ["select", "1"]

    def test_ne_spellings(self):
        assert tokenize("<>")[0].value == "!="
        assert tokenize("!=")[0].value == "!="

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT #")

    def test_malformed_number_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            tokenize("a = 1.2.3")
        assert err.value.position == 4

    def test_string_token_position_is_its_start(self):
        tokens = tokenize("x = 'ab' AND y")
        assert (tokens[2].type, tokens[2].position) == (TokenType.STRING, 4)
        assert tokens[3].position == 9


class TestExpressionParsing:
    def test_precedence_or_and(self):
        e = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(e, Or)
        assert isinstance(e.children[1], And)

    def test_not(self):
        e = parse_expression("NOT a = 1")
        assert isinstance(e, Not)

    def test_between(self):
        e = parse_expression("t BETWEEN 9 AND 10")
        assert isinstance(e, Between)
        e2 = parse_expression("t NOT BETWEEN 9 AND 10")
        assert e2.negated

    def test_in_list(self):
        e = parse_expression("ap IN (1, 2, 3)")
        assert isinstance(e, InList)
        assert [i.value for i in e.items] == [1, 2, 3]

    def test_not_in(self):
        assert parse_expression("ap NOT IN (1)").negated

    def test_in_subquery(self):
        e = parse_expression("owner IN (SELECT id FROM users)")
        assert isinstance(e, InSubquery)

    def test_scalar_subquery(self):
        e = parse_expression("ap = (SELECT max(ap) FROM t)")
        assert isinstance(e.right, ScalarSubquery)

    def test_qualified_column(self):
        e = parse_expression("W.owner")
        assert e == ColumnRef("owner", table="W")

    def test_arithmetic_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert e.op == "+"
        assert e.right.op == "*"

    def test_unary_minus_folds(self):
        assert parse_expression("-5") == Literal(-5)

    def test_is_null(self):
        assert isinstance(parse_expression("a IS NULL"), IsNull)
        e = parse_expression("a IS NOT NULL")
        assert isinstance(e, Not) and isinstance(e.child, IsNull)

    def test_function_calls(self):
        e = parse_expression("count(*)")
        assert isinstance(e, FuncCall) and isinstance(e.args[0], Star)
        e2 = parse_expression("count(DISTINCT owner)")
        assert e2.distinct

    def test_string_literal(self):
        assert parse_expression("'hello'") == Literal("hello")

    def test_booleans_and_null(self):
        assert parse_expression("TRUE") == Literal(True)
        assert parse_expression("NULL") == Literal(None)


class TestQueryParsing:
    def test_simple_select(self):
        q = parse_query("SELECT a, b AS bee FROM t WHERE a = 1")
        body = q.body
        assert isinstance(body, Select)
        assert body.items[1].alias == "bee"
        assert isinstance(body.where, Comparison)

    def test_select_star(self):
        q = parse_query("SELECT * FROM t")
        assert isinstance(q.body.items[0].expr, Star)

    def test_qualified_star(self):
        q = parse_query("SELECT W.* FROM t AS W")
        assert q.body.items[0].expr == Star(table="W")

    def test_from_alias_forms(self):
        q = parse_query("SELECT * FROM t AS x, u y")
        assert q.body.from_items[0].alias == "x"
        assert q.body.from_items[1].alias == "y"

    def test_join_on(self):
        q = parse_query("SELECT * FROM a JOIN b ON a.id = b.id")
        assert len(q.body.joins) == 1
        assert q.body.joins[0].condition is not None

    def test_join_without_on_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM a JOIN b")

    def test_cross_join(self):
        q = parse_query("SELECT * FROM a CROSS JOIN b")
        assert q.body.joins[0].condition is None

    def test_group_by_having_order_limit(self):
        q = parse_query(
            "SELECT owner, count(*) AS n FROM t GROUP BY owner "
            "HAVING count(*) > 2 ORDER BY n DESC, owner LIMIT 5"
        )
        body = q.body
        assert len(body.group_by) == 1
        assert body.having is not None
        assert body.order_by[0].ascending is False
        assert body.order_by[1].ascending is True
        assert body.limit == 5

    def test_with_cte(self):
        q = parse_query("WITH v AS (SELECT * FROM t) SELECT * FROM v")
        assert q.ctes[0].name == "v"

    def test_multiple_ctes(self):
        q = parse_query("WITH a AS (SELECT 1 AS x), b AS (SELECT 2 AS y) SELECT * FROM a, b")
        assert [c.name for c in q.ctes] == ["a", "b"]

    def test_union_all_and_minus(self):
        q = parse_query("SELECT a FROM t UNION ALL SELECT a FROM u")
        assert isinstance(q.body, SetOp) and q.body.all
        q2 = parse_query("SELECT a FROM t MINUS SELECT a FROM u")
        assert q2.body.op == "EXCEPT"  # Oracle spelling normalised

    def test_derived_table(self):
        q = parse_query("SELECT * FROM (SELECT a FROM t) AS d")
        assert isinstance(q.body.from_items[0], DerivedTable)

    def test_index_hints(self):
        q = parse_query("SELECT * FROM t FORCE INDEX (ix_a) WHERE a = 1")
        hint = q.body.from_items[0].hint
        assert hint.kind == "FORCE" and hint.index_names == ("ix_a",)
        q2 = parse_query("SELECT * FROM t USE INDEX ()")
        assert q2.body.from_items[0].hint.index_names == ()
        q3 = parse_query("SELECT * FROM t AS x IGNORE INDEX (a, b)")
        assert q3.body.from_items[0].hint.kind == "IGNORE"

    @pytest.mark.parametrize(
        "sql, message, position",
        [
            ("SELECT * FROM t WHERE a = 1.2.3", "malformed number", 26),
            ("SELECT * FROM t LIMIT 1.5", "LIMIT expects a whole number", 22),
            ("SELECT * FROM t LIMIT 1e3", "LIMIT expects a whole number", 22),
            ("SELECT * FROM t LIMIT 'ab'", "LIMIT expects a number", 22),
        ],
    )
    def test_malformed_literals_raise_typed_at_their_start(self, sql, message, position):
        with pytest.raises(ParseError, match=message) as err:
            parse_query(sql)
        assert err.value.position == position

    def test_malformed_literals_reach_a_server_client_typed(self):
        from conftest import make_owner_world

        from repro.core import Sieve
        from repro.service import SieveServer

        db, store, _policy = make_owner_world()
        with SieveServer(Sieve(db, store), workers=1) as server:
            for sql in ("SELECT * FROM t WHERE owner = 1.2.3", "SELECT * FROM t LIMIT 1.5"):
                with pytest.raises(ParseError):
                    server.execute(sql, "alice", "analytics", timeout=60)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT 1 FROM t exciting nonsense (")

    def test_paper_query_parses(self):
        """The Section 2.1 StudentPerf query (adapted to this dialect)."""
        sql = """
        SELECT student, grade, sum(attended) FROM (
            SELECT W.owner AS student, W.ts_date AS date, count(*) AS attended
            FROM WiFiDataset AS W, Enrollment AS E
            WHERE E.class = 'CS101' AND E.student = W.owner
              AND W.ts_time BETWEEN 540 AND 600
              AND W.ts_date BETWEEN 10 AND 60 AND W.wifiAP = 1200
            GROUP BY W.owner, W.ts_date) AS T, Grades AS G
        WHERE T.student = G.student GROUP BY T.student, grade
        """
        q = parse_query(sql)
        assert isinstance(q.body.from_items[0], DerivedTable)


# ---------------------------------------------------------------- round trip

_literal = st.one_of(
    st.integers(-100, 100).map(Literal),
    st.text(alphabet="abc' ", max_size=6).map(Literal),
    st.booleans().map(Literal),
)
_column = st.sampled_from(["a", "b", "c"]).map(ColumnRef)
_term = st.one_of(_literal, _column)


def _comparisons(children):
    return st.builds(
        Comparison, st.sampled_from(list(CompareOp)), children, children
    )


_expr = st.recursive(
    _comparisons(_term),
    lambda inner: st.one_of(
        st.builds(lambda a, b: And((a, b)), inner, inner),
        st.builds(lambda a, b: Or((a, b)), inner, inner),
        st.builds(Not, inner),
        st.builds(
            lambda c, lo, hi, n: Between(c, lo, hi, n),
            _column,
            _literal,
            _literal,
            st.booleans(),
        ),
        st.builds(
            lambda c, items, n: InList(c, tuple(items), n),
            _column,
            st.lists(_literal, min_size=1, max_size=3),
            st.booleans(),
        ),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_expr)
    def test_expression_roundtrip(self, expr):
        assert parse_expression(str(expr)) == expr

    @settings(max_examples=50, deadline=None)
    @given(_expr, st.booleans(), st.integers(1, 99))
    def test_query_roundtrip(self, where, distinct, limit):
        q = Select(
            items=[__import__("repro.sql.ast", fromlist=["SelectItem"]).SelectItem(ColumnRef("a"))],
            from_items=[TableRef("t", alias="x")],
            where=where,
            limit=limit,
            distinct=distinct,
        )
        sql = to_sql(q)
        reparsed = parse_query(sql).body
        assert reparsed.where == where
        assert reparsed.limit == limit
        assert reparsed.distinct == distinct

    def test_hint_roundtrip(self):
        sql = "SELECT * FROM t AS x FORCE INDEX (ix_one, ix_two) WHERE a = 1"
        q = parse_query(sql)
        again = parse_query(to_sql(q))
        assert again.body.from_items[0].hint.index_names == ("ix_one", "ix_two")

    def test_cte_union_roundtrip(self):
        sql = (
            "WITH v AS (SELECT * FROM t WHERE a = 1 UNION SELECT * FROM t WHERE b = 2) "
            "SELECT a, count(*) AS n FROM v GROUP BY a ORDER BY n DESC LIMIT 3"
        )
        q = parse_query(sql)
        q2 = parse_query(to_sql(q))
        assert to_sql(q) == to_sql(q2)
