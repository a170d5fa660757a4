"""Query parameters: collection, binding, and auto-parameterization.

A *template* is a Query AST containing :class:`~repro.expr.nodes.Param`
placeholders.  Binding substitutes each Param with a
:class:`~repro.expr.nodes.Literal` carrying the supplied value,
producing exactly the AST the parser would have built had the values
been spelled inline — so everything downstream (strategy selection,
rewriting, planning, execution) is untouched by parameterization and
the prepared path stays row- and counter-identical to the unprepared
one.

:func:`parameterize_query` goes the other way: it extracts inline
literals out of a query's predicate positions (WHERE / HAVING / JOIN
ON, recursively through subqueries) into a canonical positional
template plus binding vector, so unmodified callers sending literal
SQL still converge on one template per query *shape*.  Extraction is
restricted to predicate positions: SELECT items, GROUP BY / ORDER BY
expressions and LIMIT stay inline because they define the query's
output shape, not its selection values.

Substitution is identity-preserving — Param-free subtrees come back as
the *same* objects — so bound queries share structure with their
template and the compiled-expression cache's id-alias fast path keeps
firing across executions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping, Sequence

from repro.common.errors import ParseError
from repro.expr.analysis import children, facts, map_children
from repro.expr.nodes import (
    And,
    Arith,
    Between,
    Comparison,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    KernelConst,
    Literal,
    Not,
    Or,
    Param,
    ScalarSubquery,
)
from repro.sql.ast import (
    CTE,
    DerivedTable,
    FromItem,
    JoinClause,
    OrderItem,
    Query,
    Select,
    SelectCore,
    SelectItem,
    SetOp,
)


def _walk_exprs(query: Query):
    """Yield every expression tree in the statement, including those
    inside CTEs, derived tables and expression subqueries."""
    for cte in query.ctes:
        yield from _walk_exprs(cte.query)
    yield from _walk_core_exprs(query.body)


def _walk_core_exprs(core: SelectCore):
    if isinstance(core, SetOp):
        yield from _walk_core_exprs(core.left)
        yield from _walk_core_exprs(core.right)
        return
    for item in core.items:
        yield item.expr
    for from_item in core.from_items:
        if isinstance(from_item, DerivedTable):
            yield from _walk_exprs(from_item.query)
    for join in core.joins:
        if isinstance(join.item, DerivedTable):
            yield from _walk_exprs(join.item.query)
        if join.condition is not None:
            yield join.condition
    if core.where is not None:
        yield core.where
    yield from core.group_by
    if core.having is not None:
        yield core.having
    for order in core.order_by:
        yield order.expr


def _walk_expr(expr: Expr):
    """Pre-order traversal descending into subquery bodies (unlike
    :func:`repro.expr.analysis.walk`, params hide anywhere)."""
    yield expr
    for child in children(expr):
        yield from _walk_expr(child)
    if isinstance(expr, (ScalarSubquery, InSubquery)):
        for sub in _walk_exprs(expr.select):
            yield from _walk_expr(sub)


def mentions_param(expr: Expr) -> bool:
    """Whether a Param occurs anywhere in ``expr``, subquery bodies
    included (:func:`repro.expr.analysis.facts` does not look inside
    them, so only a tree holding a subquery is walked)."""
    found = facts(expr)
    if not found.has_subquery:
        return found.has_param
    return any(isinstance(node, Param) for node in _walk_expr(expr))


def collect_params(query: Query) -> tuple[Param, ...]:
    """All distinct Params in slot order; validates slots are dense.

    The parser assigns dense ordinals, but templates can also be built
    programmatically — a gap would make a binding vector ambiguous, so
    it raises rather than bind silently wrong.
    """
    by_slot: dict[int, Param] = {}
    for tree in _walk_exprs(query):
        for node in _walk_expr(tree):
            if isinstance(node, Param):
                seen = by_slot.get(node.index)
                if seen is not None and seen.name != node.name:
                    raise ParseError(
                        f"parameter slot {node.index} bound to conflicting "
                        f"names {seen.name!r} and {node.name!r}"
                    )
                by_slot.setdefault(node.index, node)
    params = tuple(by_slot[i] for i in sorted(by_slot))
    for expected, param in enumerate(params):
        if param.index != expected:
            raise ParseError(
                f"parameter slots are not dense: missing slot {expected}"
            )
    return params


def normalize_bindings(
    params: Sequence[Param], values: Sequence[Any] | Mapping[str, Any] | None
) -> tuple[Any, ...]:
    """Turn user-supplied bindings into a slot-ordered value tuple.

    A mapping binds by name (every param must be named); a sequence
    binds by slot.  Arity and name mismatches raise ``ParseError`` —
    they are template-misuse errors, not execution failures.
    """
    if values is None:
        values = ()
    if isinstance(values, Mapping):
        unnamed = [p.index for p in params if p.name is None]
        if unnamed:
            raise ParseError(
                f"named bindings given but slots {unnamed} are positional"
            )
        missing = sorted({p.name for p in params} - set(values))
        if missing:
            raise ParseError(f"missing bindings for parameters {missing}")
        extra = sorted(set(values) - {p.name for p in params})
        if extra:
            raise ParseError(f"unknown parameter names {extra}")
        return tuple(values[p.name] for p in params)
    vals = tuple(values)
    if len(vals) != len(params):
        raise ParseError(
            f"expected {len(params)} parameter value(s), got {len(vals)}"
        )
    return vals


def bind_expr(expr: Expr, values: Sequence[Any], memo: dict[int, Expr] | None = None) -> Expr:
    """Substitute Params with Literal(values[slot]), sharing Param-free
    subtrees with the input.  An ``And``/``Or`` whose remembered
    :func:`facts <repro.expr.analysis.facts>` show no Param and no
    subquery is not entered: the guard OR of a rewritten template is
    one look at its node, so a binding costs the query's own nodes, not
    the guard's.  ``memo`` (a node's ``id`` → its binding, for nodes
    alive throughout) binds a node several trees share once — a query
    conjunct copied into the enforcement CTE, or into each of its
    UNION arms — and the bound trees share its binding as well."""
    if isinstance(expr, Param):
        return Literal(values[expr.index])
    if memo is None:
        memo = {}
    known = memo.get(id(expr))
    if known is not None:
        return known
    if isinstance(expr, (And, Or)):
        found = facts(expr)
        if not (found.has_param or found.has_subquery):
            return expr
    bound = expr
    if isinstance(expr, (ScalarSubquery, InSubquery)):
        sub = bind_slots(expr.select, values, memo)
        if sub is not expr.select:
            bound = replace(expr, select=sub)
    bound = map_children(bound, lambda child: bind_expr(child, values, memo))
    if bound is not expr:
        memo[id(expr)] = bound
    return bound


def bind_query(query: Query, values: Sequence[Any] | Mapping[str, Any] | None = None) -> Query:
    """Bind a template into a plain Query, sharing untouched structure.

    ``values`` may be a slot-ordered sequence or a name mapping (see
    :func:`normalize_bindings`).  A Param-free query comes back as the
    same object.
    """
    vals = normalize_bindings(collect_params(query), values)
    return bind_slots(query, vals)


def bind_slots(
    query: Query, values: tuple[Any, ...], memo: dict[int, Expr] | None = None
) -> Query:
    """:func:`bind_query` for a slot-ordered tuple already checked
    against the template's slots (:func:`normalize_bindings`): the
    tree is not walked again to collect them.  A query under the same
    slots — the enforcement rewrite of a template — binds with the
    template's values.  ``memo`` as for :func:`bind_expr`."""
    if memo is None:
        memo = {}
    ctes = [CTE(c.name, bind_slots(c.query, values, memo)) for c in query.ctes]
    body = _bind_core(query.body, values, memo)
    if body is query.body and all(
        a.query is b.query for a, b in zip(ctes, query.ctes)
    ):
        return query
    return Query(body=body, ctes=ctes)


def _bind_core(core: SelectCore, values: tuple[Any, ...], memo: dict[int, Expr]) -> SelectCore:
    if isinstance(core, SetOp):
        left = _bind_core(core.left, values, memo)
        right = _bind_core(core.right, values, memo)
        if left is core.left and right is core.right:
            return core
        return SetOp(core.op, left, right, all=core.all)
    changed = False

    def b(expr: Expr) -> Expr:
        nonlocal changed
        out = bind_expr(expr, values, memo)
        if out is not expr:
            changed = True
        return out

    items = [i if (e := b(i.expr)) is i.expr else SelectItem(e, i.alias) for i in core.items]
    from_items: list[FromItem] = []
    for item in core.from_items:
        if isinstance(item, DerivedTable):
            sub = bind_slots(item.query, values, memo)
            if sub is not item.query:
                changed = True
                item = DerivedTable(sub, item.alias)
        from_items.append(item)
    joins: list[JoinClause] = []
    for join in core.joins:
        join_item = join.item
        if isinstance(join_item, DerivedTable):
            sub = bind_slots(join_item.query, values, memo)
            if sub is not join_item.query:
                changed = True
                join_item = DerivedTable(sub, join_item.alias)
        condition = None if join.condition is None else b(join.condition)
        if join_item is join.item and condition is join.condition:
            joins.append(join)
        else:
            joins.append(JoinClause(join_item, condition))
    where = None if core.where is None else b(core.where)
    group_by = [b(e) for e in core.group_by]
    having = None if core.having is None else b(core.having)
    order_by = [o if (e := b(o.expr)) is o.expr else OrderItem(e, o.ascending) for o in core.order_by]
    if not changed:
        return core
    return Select(
        items=items,
        from_items=from_items,
        joins=joins,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=core.limit,
        distinct=core.distinct,
    )


# ------------------------------------------------------- auto-parameterizer


class _Extractor:
    """Replaces predicate-position Literals with positional Params,
    assigning slots in textual order and recording the values — and,
    per slot, the index of the token its literal was parsed from
    (``None`` when it was not read from exactly one token)."""

    def __init__(self) -> None:
        self.values: list[Any] = []
        self.tokens: list[int | None] = []

    def _slot(self, value: Any) -> Param:
        self.values.append(value)
        return Param(len(self.values) - 1)

    def predicate(self, expr: Expr) -> Expr:
        """Extract from a boolean predicate tree (WHERE / HAVING / ON)."""
        if isinstance(expr, (And, Or)):
            return type(expr)(tuple(self.predicate(c) for c in expr.children))
        if isinstance(expr, Not):
            return Not(self.predicate(expr.child))
        if isinstance(expr, Comparison):
            return Comparison(
                expr.op, self.value(expr.left), self.value(expr.right)
            )
        if isinstance(expr, Between):
            return Between(
                self.value(expr.expr),
                self.value(expr.low),
                self.value(expr.high),
                negated=expr.negated,
            )
        if isinstance(expr, InList):
            return InList(
                self.value(expr.expr),
                tuple(self.value(i) for i in expr.items),
                negated=expr.negated,
            )
        if isinstance(expr, InSubquery):
            return InSubquery(
                self.value(expr.expr),
                self.query(expr.select),
                negated=expr.negated,
            )
        if isinstance(expr, IsNull):
            # IS NULL tests structure, not a comparable value: the
            # child stays inline so `x IS NULL` keeps its own template.
            return expr
        return expr

    def value(self, expr: Expr) -> Expr:
        """Extract from a value position inside a predicate."""
        if isinstance(expr, Literal):
            self.tokens.append(expr.__dict__.get("_token"))
            return self._slot(expr.value)
        if isinstance(expr, Arith):
            return Arith(
                expr.op, self.value(expr.left), self.value(expr.right)
            )
        if isinstance(expr, FuncCall):
            return FuncCall(
                expr.name,
                tuple(self.value(a) for a in expr.args),
                distinct=expr.distinct,
            )
        if isinstance(expr, ScalarSubquery):
            return ScalarSubquery(self.query(expr.select))
        # ColumnRef, Param (already a template), nested predicates used
        # as values: left inline.
        return expr

    def query(self, query: Query) -> Query:
        ctes = [CTE(c.name, self.query(c.query)) for c in query.ctes]
        return Query(body=self.core(query.body), ctes=ctes)

    def core(self, core: SelectCore) -> SelectCore:
        if isinstance(core, SetOp):
            return SetOp(
                core.op, self.core(core.left), self.core(core.right), all=core.all
            )
        from_items: list[FromItem] = []
        for item in core.from_items:
            if isinstance(item, DerivedTable):
                item = DerivedTable(self.query(item.query), item.alias)
            from_items.append(item)
        joins: list[JoinClause] = []
        for join in core.joins:
            join_item = join.item
            if isinstance(join_item, DerivedTable):
                join_item = DerivedTable(self.query(join_item.query), join_item.alias)
            condition = (
                None if join.condition is None else self.predicate(join.condition)
            )
            joins.append(JoinClause(join_item, condition))
        return Select(
            # Output shape (select list, grouping, ordering, limit) stays
            # inline — extracting there would fold genuinely different
            # queries onto one template.
            items=list(core.items),
            from_items=from_items,
            joins=joins,
            where=None if core.where is None else self.predicate(core.where),
            group_by=list(core.group_by),
            having=None if core.having is None else self.predicate(core.having),
            order_by=list(core.order_by),
            limit=core.limit,
            distinct=core.distinct,
        )


class _KernelLifter(_Extractor):
    """The same extraction aimed at one compiled kernel instead of a
    statement: slots are :class:`KernelConst` nodes (a surviving Param
    is still an unbound parameter), subqueries keep their literals
    (they are planned and run on their own), and an all-literal IN list
    is one ``frozenset`` slot — the membership test the kernel emits.
    NULL is never a slot's value, nor in a slot's set: it stays in the
    shape, where the code generator sees it (a NULL bound makes BETWEEN
    never true, a NULL item NOT IN), so a slot needs no NULL test per
    row.  An IN list drops it (no row's value equals NULL) — except
    beneath ``NOT``, or anywhere when ``keep_null`` (a predicate whose
    value is read), where a NULL item makes a miss unknown rather than
    false, and the list keeps its items apart.  ``dropped_null`` tells
    whether a list dropped one."""

    def __init__(self, keep_null: bool = False) -> None:
        super().__init__()
        self.beneath_not = keep_null
        self.dropped_null = False

    def _slot(self, value: Any) -> Expr:
        self.values.append(value)
        return KernelConst(len(self.values) - 1)

    def predicate(self, expr: Expr) -> Expr:
        if isinstance(expr, Not):
            outer, self.beneath_not = self.beneath_not, True
            try:
                return Not(self.predicate(expr.child))
            finally:
                self.beneath_not = outer
        if isinstance(expr, InList) and all(isinstance(i, Literal) for i in expr.items):
            members = frozenset(i.value for i in expr.items)  # type: ignore[union-attr]
            if None not in members or not (expr.negated or self.beneath_not):
                self.dropped_null |= None in members
                members = members - {None}
                return InList(self.value(expr.expr), (self._slot(members),), negated=expr.negated)
        if isinstance(expr, (Literal, Arith, FuncCall)):
            return self.value(expr)
        return super().predicate(expr)

    def value(self, expr: Expr) -> Expr:
        if isinstance(expr, Literal) and expr.value is None:
            return expr
        return super().value(expr)

    def query(self, query: Query) -> Query:
        return query


def lift_constants(expr: Expr, value: bool = False) -> tuple[Expr, tuple[Any, ...]]:
    """``(shape, constants)`` of one filter conjunct or, with ``value``,
    projection value: ``shape`` is ``expr`` with the literals
    parameterization would extract replaced by :class:`KernelConst`
    slots, so two expressions that differ only in those literals have
    equal shapes — the key one compiled kernel is shared under.  The
    node remembers the answer (it is the node's alone, so it needs no
    stamp): a cached plan's filter is lifted once, not once per
    execution.  A value whose IN list dropped a NULL item, which only a
    tested predicate may, is lifted again keeping it."""
    known = expr.__dict__.get("_lifted")
    if known is None:
        lifter = _KernelLifter()
        known = (lifter.predicate(expr), tuple(lifter.values), lifter.dropped_null)
        object.__setattr__(expr, "_lifted", known)
    if value and known[2]:
        lifter = _KernelLifter(keep_null=True)
        return lifter.predicate(expr), tuple(lifter.values)
    return known[0], known[1]


def parameterize_query(query: Query) -> tuple[Query, tuple[Any, ...]]:
    """Extract predicate literals into (positional template, values).

    ``bind_query(template, values)`` reconstructs an AST structurally
    equal to the input — the round-trip the property tests assert.
    Queries that already contain Params pass through unchanged (their
    author chose the template boundary).
    """
    template, values, _tokens = parameterize_traced(query)
    return template, values


def parameterize_traced(
    query: Query,
) -> tuple[Query, tuple[Any, ...], tuple[int | None, ...]]:
    """:func:`parameterize_query` plus, per slot, the index of the lexer
    token its literal was parsed from — ``None`` for a literal not read
    from exactly one NUMBER or STRING token (a folded ``-5``, ``TRUE``,
    ``NULL``, a node built in code).  The statement memo
    (:meth:`Sieve._statement <repro.core.middleware.Sieve._statement>`)
    reads a new text's values off these tokens."""
    if collect_params(query):
        return query, (), ()
    extractor = _Extractor()
    template = extractor.query(query)
    return template, tuple(extractor.values), tuple(extractor.tokens)
