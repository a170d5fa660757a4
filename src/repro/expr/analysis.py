"""Structural analysis helpers over expression trees."""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from repro.expr.nodes import (
    And,
    Arith,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
)


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten nested ANDs into a conjunct list (None -> [])."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for child in expr.children:
            out.extend(conjuncts(child))
        return out
    return [expr]


def disjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten nested ORs into a disjunct list (None -> [])."""
    if expr is None:
        return []
    if isinstance(expr, Or):
        out: list[Expr] = []
        for child in expr.children:
            out.extend(disjuncts(child))
        return out
    return [expr]


def make_and(parts: list[Expr]) -> Expr | None:
    """AND together parts, flattening; returns None for an empty list."""
    flat: list[Expr] = []
    for part in parts:
        flat.extend(conjuncts(part))
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(parts: list[Expr]) -> Expr | None:
    """OR together parts, flattening; returns None for an empty list."""
    flat: list[Expr] = []
    for part in parts:
        flat.extend(disjuncts(part))
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def children(expr: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions, in evaluation order.  Subquery internals
    are owned by the SQL layer and analysed there, so ``ScalarSubquery``
    is a leaf and ``InSubquery`` has only its probe expression."""
    if isinstance(expr, (And, Or)):
        return expr.children
    if isinstance(expr, (Comparison, Arith)):
        return (expr.left, expr.right)
    if isinstance(expr, Between):
        return (expr.expr, expr.low, expr.high)
    if isinstance(expr, InList):
        return (expr.expr, *expr.items)
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, (Not, IsNull)):
        return (expr.child,)
    if isinstance(expr, InSubquery):
        return (expr.expr,)
    return ()  # Literal, Param, ColumnRef, Star, ScalarSubquery


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr`` with ``fn`` applied to each direct sub-expression (the
    ones :func:`children` lists) — the node itself when every child
    comes back as itself, so untouched subtrees stay shared."""
    if isinstance(expr, (And, Or)):
        parts = tuple(map(fn, expr.children))
        return expr if _same(parts, expr.children) else type(expr)(parts)
    if isinstance(expr, (Comparison, Arith)):
        left, right = fn(expr.left), fn(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(expr.op, left, right)
    if isinstance(expr, Between):
        inner, low, high = fn(expr.expr), fn(expr.low), fn(expr.high)
        if inner is expr.expr and low is expr.low and high is expr.high:
            return expr
        return Between(inner, low, high, expr.negated)
    if isinstance(expr, InList):
        inner, items = fn(expr.expr), tuple(map(fn, expr.items))
        if inner is expr.expr and _same(items, expr.items):
            return expr
        return InList(inner, items, expr.negated)
    if isinstance(expr, FuncCall):
        args = tuple(map(fn, expr.args))
        return expr if _same(args, expr.args) else FuncCall(expr.name, args, expr.distinct)
    if isinstance(expr, (Not, IsNull)):
        child = fn(expr.child)
        return expr if child is expr.child else type(expr)(child)
    if isinstance(expr, InSubquery):
        inner = fn(expr.expr)
        return expr if inner is expr.expr else InSubquery(inner, expr.select, expr.negated)
    return expr  # Literal, Param, ColumnRef, Star, ScalarSubquery


def _same(new: tuple, old: tuple) -> bool:
    return all(a is b for a, b in zip(new, old))


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in children(expr):
        yield from walk(child)


class Facts(NamedTuple):
    """What planner and executors ask of a tree before touching it."""

    columns: frozenset[ColumnRef]  # not descending into subqueries
    has_subquery: bool  # a ScalarSubquery or InSubquery anywhere


_NO_FACTS = Facts(frozenset(), False)


def facts(expr: Expr) -> Facts:
    """The tree's :class:`Facts`, composed bottom-up.

    ``And``/``Or`` nodes remember theirs: nodes are immutable, so the
    answer holds for the node's lifetime and is dropped with it — a
    policy-wide guard OR, handed by identity to every rewrite of its
    epoch, is analysed once, and a request pays for its own conjuncts.
    (Two threads may both compute and store it; the values are equal.)
    """
    if isinstance(expr, (And, Or)):
        known = expr.__dict__.get("_facts")
        if known is None:
            known = _merged(expr.children)
            object.__setattr__(expr, "_facts", known)
        return known
    if isinstance(expr, ColumnRef):
        return Facts(frozenset((expr,)), False)
    if isinstance(expr, ScalarSubquery):
        return Facts(frozenset(), True)
    if isinstance(expr, InSubquery):
        return Facts(facts(expr.expr).columns, True)
    return _merged(children(expr))


def _merged(parts: tuple[Expr, ...]) -> Facts:
    if not parts:
        return _NO_FACTS
    found = [facts(part) for part in parts]
    return Facts(
        frozenset().union(*(f.columns for f in found)),
        any(f.has_subquery for f in found),
    )


def columns_referenced(expr: Expr) -> frozenset[ColumnRef]:
    """All column references in the tree (not descending into subqueries)."""
    return facts(expr).columns


def contains_subquery(expr: Expr) -> bool:
    return facts(expr).has_subquery


def is_constant(expr: Expr) -> bool:
    """True when the expression references no columns or subqueries."""
    found = facts(expr)
    return not found.columns and not found.has_subquery
