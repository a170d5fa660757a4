"""Recursive-descent SQL parser.

Grammar (informal)::

    query        := [WITH cte ("," cte)*] select_core
    cte          := ident AS "(" query ")"
    select_core  := select_block ((UNION [ALL] | EXCEPT | MINUS | INTERSECT) select_block)*
    select_block := SELECT [DISTINCT] items FROM from_list
                    [WHERE expr] [GROUP BY exprs] [HAVING expr]
                    [ORDER BY order_items] [LIMIT n]
                  | "(" select_core ")"
    from_list    := from_item ("," from_item | [INNER|CROSS] JOIN from_item [ON expr])*
    from_item    := ident [[AS] alias] [index_hint] | "(" query ")" [AS] alias
    index_hint   := (FORCE | USE | IGNORE) INDEX "(" [ident ("," ident)*] ")"
                  | INDEXED BY ident | NOT INDEXED

Expressions follow standard precedence: OR < AND < NOT < comparison /
BETWEEN / IN / LIKE < additive < multiplicative < unary.
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.expr.nodes import (
    And,
    Arith,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    Param,
    ScalarSubquery,
    Star,
)
from repro.sql.ast import (
    CTE,
    DerivedTable,
    FromItem,
    IndexHint,
    JoinClause,
    OrderItem,
    Query,
    Select,
    SelectCore,
    SelectItem,
    SetOp,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize

#: Deepest nesting the parser follows, counted where the descent
#: re-enters itself: a query (CTE body, derived table, subquery), a
#: parenthesised SELECT block, an expression (parentheses, call
#: arguments, IN list), one NOT, one unary minus.  A top-level
#: statement's query and clause root are levels one and two, so this is
#: 100 nested parentheses in its WHERE.  A level costs at most nine
#: Python frames: deeper input is refused here, typed, and never half
#: way down by the interpreter's recursion limit.
MAX_NESTING_DEPTH = 102

_COMPARE_OPS = {
    "=": CompareOp.EQ,
    "!=": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


def literal_value(token: Token) -> int | float | str:
    """The value of a NUMBER or STRING token, as its ``Literal`` holds
    it: a number with a point or an exponent is a ``float``, any other
    an ``int``; a string is the token's unescaped text.  The statement
    memo (:meth:`Sieve._statement <repro.core.middleware.Sieve._statement>`)
    reads a fresh text's literals through this same function."""
    if token.type is TokenType.STRING:
        return token.value
    text = token.value
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError as exc:  # e.g. more digits than int() converts
        raise ParseError(f"malformed number: {exc}", token.position) from None


def parse_query(text: str) -> Query:
    """Parse a full SQL statement into a Query AST."""
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    parser.expect_eof()
    return query


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used by tests and policy tooling)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        # Parameter slot assignment: each `?` takes the next ordinal;
        # `:name` reuses the slot of its first occurrence.
        self._param_count = 0
        self._param_slots: dict[str, int] = {}
        self._depth = 0  # nesting levels open, see _descend

    # ------------------------------------------------------------- utilities

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        token = self._cur
        self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> bool:
        if self._cur.is_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise ParseError(f"expected {word.upper()}, found {self._cur}", self._cur.position)

    def _accept_punct(self, char: str) -> bool:
        if self._cur.type is TokenType.PUNCT and self._cur.value == char:
            self._advance()
            return True
        return False

    def _expect_punct(self, char: str) -> None:
        if not self._accept_punct(char):
            raise ParseError(f"expected {char!r}, found {self._cur}", self._cur.position)

    def _expect_ident(self) -> str:
        if self._cur.type is TokenType.IDENT:
            return self._advance().value
        raise ParseError(f"expected identifier, found {self._cur}", self._cur.position)

    def _descend(self) -> None:
        """Open one nesting level; ``self._depth -= 1`` closes it."""
        self._depth += 1
        if self._depth > MAX_NESTING_DEPTH:
            raise ParseError(
                f"nested deeper than {MAX_NESTING_DEPTH} levels", self._cur.position
            )

    def expect_eof(self) -> None:
        if self._cur.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input: {self._cur}", self._cur.position)

    # ------------------------------------------------------------ statements

    def parse_query(self) -> Query:
        self._descend()
        ctes: list[CTE] = []
        if self._accept_keyword("with"):
            while True:
                name = self._expect_ident()
                self._expect_keyword("as")
                self._expect_punct("(")
                inner = self.parse_query()
                self._expect_punct(")")
                ctes.append(CTE(name, inner))
                if not self._accept_punct(","):
                    break
        body = self._parse_select_core()
        self._depth -= 1
        return Query(body=body, ctes=ctes)

    def _parse_select_core(self) -> SelectCore:
        left = self._parse_select_block()
        while True:
            if self._cur.is_keyword("union"):
                self._advance()
                use_all = self._accept_keyword("all")
                right = self._parse_select_block()
                left = SetOp("UNION", left, right, all=use_all)
            elif self._cur.is_keyword("except", "minus"):
                op = self._advance().value
                right = self._parse_select_block()
                left = SetOp(op.upper(), left, right)
            elif self._cur.is_keyword("intersect"):
                self._advance()
                right = self._parse_select_block()
                left = SetOp("INTERSECT", left, right)
            else:
                return left

    def _parse_select_block(self) -> SelectCore:
        if self._cur.type is TokenType.PUNCT and self._cur.value == "(":
            self._advance()
            self._descend()
            inner = self._parse_select_core()
            self._depth -= 1
            self._expect_punct(")")
            return inner
        return self._parse_select()

    def _parse_select(self) -> Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        select = Select(items=items, distinct=distinct)
        if self._accept_keyword("from"):
            self._parse_from_list(select)
        if self._accept_keyword("where"):
            select.where = self.parse_expr()
        if self._cur.is_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            select.group_by.append(self.parse_expr())
            while self._accept_punct(","):
                select.group_by.append(self.parse_expr())
        if self._accept_keyword("having"):
            select.having = self.parse_expr()
        if self._cur.is_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            select.order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                select.order_by.append(self._parse_order_item())
        if self._accept_keyword("limit"):
            token = self._advance()
            if token.type is not TokenType.NUMBER:
                raise ParseError("LIMIT expects a number", token.position)
            if not token.value.isdigit():
                raise ParseError("LIMIT expects a whole number", token.position)
            select.limit = literal_value(token)
        return select

    def _parse_select_item(self) -> SelectItem:
        if self._cur.type is TokenType.OPERATOR and self._cur.value == "*":
            self._advance()
            return SelectItem(Star())
        # qualified star: ident . *
        if (
            self._cur.type is TokenType.IDENT
            and self._peek().type is TokenType.PUNCT
            and self._peek().value == "."
            and self._peek(2).type is TokenType.OPERATOR
            and self._peek(2).value == "*"
        ):
            table = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return SelectItem(Star(table=table))
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._cur.type is TokenType.IDENT:
            alias = self._advance().value
        return SelectItem(expr, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, ascending)

    # ------------------------------------------------------------------ FROM

    def _parse_from_list(self, select: Select) -> None:
        select.from_items.append(self._parse_from_item())
        while True:
            if self._accept_punct(","):
                select.from_items.append(self._parse_from_item())
                continue
            if self._cur.is_keyword("inner", "cross", "join"):
                is_cross = self._cur.is_keyword("cross")
                if self._cur.is_keyword("inner", "cross"):
                    self._advance()
                self._expect_keyword("join")
                item = self._parse_from_item()
                condition = None
                if self._accept_keyword("on"):
                    condition = self.parse_expr()
                elif not is_cross:
                    raise ParseError("JOIN requires ON (only inner joins supported)",
                                     self._cur.position)
                select.joins.append(JoinClause(item, condition))
                continue
            return

    def _parse_from_item(self) -> FromItem:
        if self._cur.type is TokenType.PUNCT and self._cur.value == "(":
            self._advance()
            inner = self.parse_query()
            self._expect_punct(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return DerivedTable(inner, alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._cur.type is TokenType.IDENT:
            alias = self._advance().value
        hint = self._parse_index_hint()
        return TableRef(name, alias, hint)

    def _parse_index_hint(self) -> IndexHint | None:
        # SQLite dialect spellings, mapped onto the canonical hint
        # forms so either dialect's output parses back to the same AST:
        # INDEXED BY name == FORCE INDEX (name); NOT INDEXED == USE INDEX ().
        if self._cur.is_keyword("indexed") and self._peek().is_keyword("by"):
            self._advance()
            self._advance()
            return IndexHint("FORCE", (self._expect_ident(),))
        if self._cur.is_keyword("not") and self._peek().is_keyword("indexed"):
            self._advance()
            self._advance()
            return IndexHint("USE", ())
        if not self._cur.is_keyword("force", "use", "ignore"):
            return None
        # guard against USE/FORCE as something else: must be followed by INDEX
        if not self._peek().is_keyword("index"):
            return None
        kind = self._advance().value.upper()
        self._expect_keyword("index")
        self._expect_punct("(")
        names: list[str] = []
        if not (self._cur.type is TokenType.PUNCT and self._cur.value == ")"):
            names.append(self._expect_ident())
            while self._accept_punct(","):
                names.append(self._expect_ident())
        self._expect_punct(")")
        return IndexHint(kind, tuple(names))

    # ----------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        self._descend()
        parts = [self._parse_and()]
        while self._accept_keyword("or"):
            parts.append(self._parse_and())
        self._depth -= 1
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def _parse_and(self) -> Expr:
        parts = [self._parse_not()]
        while self._accept_keyword("and"):
            parts.append(self._parse_not())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            self._descend()
            inner = self._parse_not()
            self._depth -= 1
            return Not(inner)
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        if self._cur.type is TokenType.OPERATOR and self._cur.value in _COMPARE_OPS:
            op = _COMPARE_OPS[self._advance().value]
            right = self._parse_additive()
            return Comparison(op, left, right)
        negated = False
        if self._cur.is_keyword("not") and self._peek().is_keyword("between", "in", "like"):
            self._advance()
            negated = True
        if self._accept_keyword("between"):
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self._accept_keyword("in"):
            return self._parse_in_rhs(left, negated)
        if self._accept_keyword("is"):
            is_not = self._accept_keyword("not")
            self._expect_keyword("null")
            result: Expr = IsNull(left)
            if is_not:
                result = Not(result)
            return result
        if negated:
            raise ParseError("dangling NOT", self._cur.position)
        return left

    def _parse_in_rhs(self, left: Expr, negated: bool) -> Expr:
        self._expect_punct("(")
        if self._cur.is_keyword("select", "with"):
            sub = self.parse_query()
            self._expect_punct(")")
            return InSubquery(left, sub, negated=negated)
        items = [self.parse_expr()]
        while self._accept_punct(","):
            items.append(self.parse_expr())
        self._expect_punct(")")
        return InList(left, tuple(items), negated=negated)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._cur.type is TokenType.OPERATOR and self._cur.value in ("+", "-"):
            op = self._advance().value
            right = self._parse_multiplicative()
            left = Arith(op, left, right)
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._cur.type is TokenType.OPERATOR and self._cur.value in ("*", "/", "%"):
            op = self._advance().value
            right = self._parse_unary()
            left = Arith(op, left, right)
        return left

    def _parse_unary(self) -> Expr:
        if self._cur.type is TokenType.OPERATOR and self._cur.value == "-":
            self._advance()
            self._descend()
            inner = self._parse_unary()
            self._depth -= 1
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return Arith("-", Literal(0), inner)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._cur
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            literal = Literal(literal_value(token))
            # Provenance: the one token this literal was read from (an
            # index into the token list, outside the node's fields).
            # The statement memo maps each lifted slot back to it.
            object.__setattr__(literal, "_token", self._pos)
            self._advance()
            return literal
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return Literal(False)
        if token.type is TokenType.PARAM:
            self._advance()
            if token.value:
                slot = self._param_slots.get(token.value)
                if slot is None:
                    slot = self._param_count
                    self._param_slots[token.value] = slot
                    self._param_count += 1
                return Param(slot, token.value)
            slot = self._param_count
            self._param_count += 1
            return Param(slot)
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            if self._cur.is_keyword("select", "with"):
                sub = self.parse_query()
                self._expect_punct(")")
                return ScalarSubquery(sub)
            inner = self.parse_expr()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENT:
            return self._parse_name_or_call()
        raise ParseError(f"unexpected token {token}", token.position)

    def _parse_name_or_call(self) -> Expr:
        name = self._advance().value
        if self._cur.type is TokenType.PUNCT and self._cur.value == "(":
            self._advance()
            distinct = self._accept_keyword("distinct")
            args: list[Expr] = []
            if self._cur.type is TokenType.OPERATOR and self._cur.value == "*":
                self._advance()
                args.append(Star())
            elif not (self._cur.type is TokenType.PUNCT and self._cur.value == ")"):
                args.append(self.parse_expr())
                while self._accept_punct(","):
                    args.append(self.parse_expr())
            self._expect_punct(")")
            return FuncCall(name, tuple(args), distinct=distinct)
        if self._accept_punct("."):
            column = self._expect_ident()
            return ColumnRef(column, table=name)
        return ColumnRef(name)
