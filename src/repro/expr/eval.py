"""Expression compilation and evaluation.

Expressions are compiled once into Python closures over a
:class:`RowBinding` (which resolves column names to tuple positions),
then invoked per row.  This matters: policy expressions are evaluated
against many thousands of tuples, so per-row name resolution would
dominate runtime.

Null semantics are simplified two-valued logic: any comparison against
None yields False.  The paper's workload never relies on three-valued
logic, and keeping booleans two-valued makes guard-cost reasoning
exact.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.common.errors import ExecutionError
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

RowFn = Callable[[tuple], Any]


class RowBinding:
    """Maps column references to positions in the row tuple.

    A binding is built from one or more (alias, schema) pairs laid out
    left-to-right, mirroring how joins concatenate rows.  Unqualified
    names resolve when unambiguous; ambiguity raises ExecutionError at
    compile time (never at row time).
    """

    def __init__(self) -> None:
        self._by_qualified: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        self._width = 0
        self._names_in_order: list[str] = []
        self._cache_key: str | None = None

    @classmethod
    def for_table(cls, alias: str, column_names: Sequence[str]) -> "RowBinding":
        binding = cls()
        binding.add_table(alias, column_names)
        return binding

    def add_table(self, alias: str, column_names: Sequence[str]) -> None:
        self._cache_key = None
        alias_l = alias.lower()
        for name in column_names:
            name_l = name.lower()
            self._by_qualified[(alias_l, name_l)] = self._width
            self._by_name.setdefault(name_l, []).append(self._width)
            self._names_in_order.append(name)
            self._width += 1

    @property
    def width(self) -> int:
        return self._width

    @property
    def column_names(self) -> list[str]:
        return list(self._names_in_order)

    def aliases(self) -> set[str]:
        return {alias for alias, _ in self._by_qualified}

    def cache_key(self) -> str:
        """A hashable layout fingerprint: two bindings with equal keys
        resolve every reference identically, so compiled expressions
        may be shared between them (the compiled-function cache keys
        on this plus the expression).  One string, not the nested
        tuples it spells: every plan brings its own bindings and every
        cached predicate keeps its key, hashed again at each look-up."""
        if self._cache_key is None:
            self._cache_key = repr(sorted(self._by_qualified.items()))
        return self._cache_key

    def has(self, ref: ColumnRef) -> bool:
        try:
            self.resolve(ref)
            return True
        except ExecutionError:
            return False

    def resolve(self, ref: ColumnRef) -> int:
        name_l = ref.name.lower()
        if ref.table is not None:
            key = (ref.table.lower(), name_l)
            if key in self._by_qualified:
                return self._by_qualified[key]
            raise ExecutionError(f"unknown column {ref}")
        positions = self._by_name.get(name_l, [])
        if len(positions) == 1:
            return positions[0]
        if not positions:
            raise ExecutionError(f"unknown column {ref}")
        raise ExecutionError(f"ambiguous column {ref.name!r}")


def _cmp(op: CompareOp) -> Callable[[Any, Any], bool]:
    if op is CompareOp.EQ:
        return lambda a, b: a is not None and b is not None and a == b
    if op is CompareOp.NE:
        return lambda a, b: a is not None and b is not None and a != b
    if op is CompareOp.LT:
        return lambda a, b: a is not None and b is not None and a < b
    if op is CompareOp.LE:
        return lambda a, b: a is not None and b is not None and a <= b
    if op is CompareOp.GT:
        return lambda a, b: a is not None and b is not None and a > b
    return lambda a, b: a is not None and b is not None and a >= b


_ARITH_FNS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None,
    "%": lambda a, b: a % b if b else None,
}

_BUILTIN_SCALARS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "lower": lambda s: s.lower() if s is not None else None,
    "upper": lambda s: s.upper() if s is not None else None,
    "length": lambda s: len(s) if s is not None else None,
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
}


class ExprCompiler:
    """Compiles Expr trees into row-callables.

    ``udfs`` maps lowercase function names to Python callables invoked
    with evaluated arguments.  ``subquery_fn``, when given, is called as
    ``subquery_fn(select_ast, outer_row)`` to produce the scalar value
    of a (possibly correlated) subquery; ``in_subquery_fn`` is called
    once at compile time with an uncorrelated query AST and must return
    the membership set for IN.
    """

    #: Disjunctions at least this wide are treated as policy-style DNFs
    #: and metered into ``counters.policy_evals`` (one tick per disjunct
    #: actually evaluated, honouring short-circuiting) — the accounting
    #: behind the paper's "number of policies checked per tuple".
    METERED_OR_WIDTH = 3

    def __init__(
        self,
        binding: RowBinding,
        udfs: dict[str, Callable[..., Any]] | None = None,
        subquery_fn: Callable[[Any, tuple], Any] | None = None,
        in_subquery_fn: Callable[[Any], frozenset] | None = None,
        counters: Any = None,
    ):
        self.binding = binding
        self.udfs = udfs or {}
        self.subquery_fn = subquery_fn
        self.in_subquery_fn = in_subquery_fn
        self.counters = counters

    def compile(self, expr: Expr) -> RowFn:
        if isinstance(expr, Literal):
            value = expr.value
            return lambda row: value
        if isinstance(expr, ColumnRef):
            pos = self.binding.resolve(expr)
            return lambda row: row[pos]
        if isinstance(expr, Comparison):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            fn = _cmp(expr.op)
            return lambda row: fn(left(row), right(row))
        if isinstance(expr, Between):
            inner = self.compile(expr.expr)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            if expr.negated:
                return lambda row: (
                    (v := inner(row)) is not None and not (low(row) <= v <= high(row))
                )
            return lambda row: (
                (v := inner(row)) is not None and low(row) <= v <= high(row)
            )
        if isinstance(expr, InList):
            inner = self.compile(expr.expr)
            if all(isinstance(i, Literal) for i in expr.items):
                values = frozenset(i.value for i in expr.items)  # type: ignore[union-attr]
                if expr.negated:
                    return lambda row: (v := inner(row)) is not None and v not in values
                return lambda row: (v := inner(row)) is not None and v in values
            item_fns = [self.compile(i) for i in expr.items]
            if expr.negated:
                return lambda row: (
                    (v := inner(row)) is not None
                    and all(v != fn(row) for fn in item_fns)
                )
            return lambda row: (
                (v := inner(row)) is not None and any(v == fn(row) for fn in item_fns)
            )
        if isinstance(expr, And):
            fns = [self.compile(c) for c in expr.children]
            if len(fns) == 2:
                f0, f1 = fns
                return lambda row: bool(f0(row)) and bool(f1(row))
            return lambda row: all(fn(row) for fn in fns)
        if isinstance(expr, Or):
            fns = [self.compile(c) for c in expr.children]
            if self.counters is not None and len(fns) >= self.METERED_OR_WIDTH:
                counters = self.counters

                def metered_or(row, _fns=fns, _counters=counters):
                    checked = 0
                    hit = False
                    for fn in _fns:
                        checked += 1
                        if fn(row):
                            hit = True
                            break
                    _counters.policy_evals += checked
                    return hit

                return metered_or
            if len(fns) == 2:
                f0, f1 = fns
                return lambda row: bool(f0(row)) or bool(f1(row))
            return lambda row: any(fn(row) for fn in fns)
        if isinstance(expr, Not):
            fn = self.compile(expr.child)
            return lambda row: not fn(row)
        if isinstance(expr, Arith):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            op_fn = _ARITH_FNS.get(expr.op)
            if op_fn is None:
                raise ExecutionError(f"unknown arithmetic operator {expr.op!r}")
            return lambda row: (
                None
                if (a := left(row)) is None or (b := right(row)) is None
                else op_fn(a, b)
            )
        if isinstance(expr, FuncCall):
            return self._compile_call(expr)
        if isinstance(expr, ScalarSubquery):
            if self.subquery_fn is None:
                raise ExecutionError("scalar subqueries are not available in this context")
            select = expr.select
            sub_fn = self.subquery_fn
            return lambda row: sub_fn(select, row)
        if isinstance(expr, InSubquery):
            if self.in_subquery_fn is None:
                raise ExecutionError("IN subqueries are not available in this context")
            members = self.in_subquery_fn(expr.select)
            inner = self.compile(expr.expr)
            if expr.negated:
                return lambda row: (v := inner(row)) is not None and v not in members
            return lambda row: (v := inner(row)) is not None and v in members
        if isinstance(expr, IsNull):
            inner = self.compile(expr.child)
            return lambda row: inner(row) is None
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in a SELECT list")
        if isinstance(expr, Param):
            raise ExecutionError(
                f"unbound parameter {expr.name or expr.index!r}: "
                "bind values before execution (see repro.expr.params)"
            )
        raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")

    def _compile_call(self, expr: FuncCall) -> RowFn:
        name = expr.name.lower()
        arg_fns = [self.compile(a) for a in expr.args]
        udf = self.udfs.get(name)
        if udf is not None:
            return lambda row: udf(*[fn(row) for fn in arg_fns])
        builtin = _BUILTIN_SCALARS.get(name)
        if builtin is not None:
            return lambda row: builtin(*[fn(row) for fn in arg_fns])
        raise ExecutionError(
            f"unknown function {expr.name!r} (aggregates are only valid in SELECT/HAVING)"
        )
