"""Expression tree nodes.

One expression vocabulary serves three consumers: the SQL parser
produces these nodes, policies compile their object conditions into
them, and the execution engine evaluates them against rows.  Nodes are
immutable dataclasses so they can be shared freely between rewritten
queries.  Because a node never changes, an answer derived from one holds
for its lifetime: ``And``/``Or`` nodes carry such answers as private
attributes outside the dataclass fields (``analysis.facts``, the
optimizer's OR selectivity) — invisible to equality, hashing and
``repr``, and gone with the node.

Rendering lives in one place: every node's ``__str__`` delegates to
:func:`repro.sql.printer.print_expr` (default dialect), which is also
what dialect-aware printing uses — so there is exactly one SQL
spelling per construct and backends cannot drift from ``str()``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence


class CompareOp(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "CompareOp":
        """The operator with operand sides swapped (a < b  <=>  b > a)."""
        return {
            CompareOp.EQ: CompareOp.EQ,
            CompareOp.NE: CompareOp.NE,
            CompareOp.LT: CompareOp.GT,
            CompareOp.LE: CompareOp.GE,
            CompareOp.GT: CompareOp.LT,
            CompareOp.GE: CompareOp.LE,
        }[self]

    def negate(self) -> "CompareOp":
        return {
            CompareOp.EQ: CompareOp.NE,
            CompareOp.NE: CompareOp.EQ,
            CompareOp.LT: CompareOp.GE,
            CompareOp.LE: CompareOp.GT,
            CompareOp.GT: CompareOp.LE,
            CompareOp.GE: CompareOp.LT,
        }[self]


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        from repro.sql.printer import print_expr

        return print_expr(self)


@dataclass(frozen=True)
class Literal(Expr):
    value: Any


@dataclass(frozen=True)
class Param(Expr):
    """A query parameter placeholder (``?`` positional or ``:name``).

    ``index`` is the zero-based binding slot; named parameters reuse
    the slot of their first occurrence, so ``:lo ... :lo`` binds one
    value.  Params exist only in *templates* — binding substitutes
    them with :class:`Literal` values before planning or execution
    (see :mod:`repro.expr.params`), so evaluators treat a surviving
    Param as an error.
    """

    index: int
    name: str | None = None


@dataclass(frozen=True)
class KernelConst(Expr):
    """Slot ``index`` of the constants vector a compiled batch kernel
    is called with.  Exists only in kernel *shapes* — a conjunct with
    its literals lifted out (:func:`repro.expr.params.lift_constants`),
    so every binding of one shape shares one compiled kernel.  Not a
    :class:`Param`: a Param reaching compilation is an unbound
    parameter and must raise, whatever slots the shape holds."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: str | None = None


@dataclass(frozen=True)
class Star(Expr):
    table: str | None = None


@dataclass(frozen=True)
class Comparison(Expr):
    op: CompareOp
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Between(Expr):
    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class And(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    child: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function application: aggregate, builtin, or registered UDF."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - * / %
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesised SELECT used as a value (possibly correlated).

    ``select`` is a ``repro.sql.ast.Query``; typed as Any here to keep
    the expression package free of an import cycle with the SQL AST.
    """

    select: Any = field(hash=False)

    def __hash__(self) -> int:  # Select is unhashable; identity is fine here
        return id(self.select)


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``; the subquery must be uncorrelated."""

    expr: Expr
    select: Any = field(hash=False)
    negated: bool = False

    def __hash__(self) -> int:
        return hash((id(self.select), self.expr, self.negated))


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS NULL`` (NOT NULL is expressed as Not(IsNull(...)))."""

    child: Expr


AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate_call(expr: Expr) -> bool:
    return isinstance(expr, FuncCall) and expr.name.lower() in AGGREGATE_FUNCTIONS
