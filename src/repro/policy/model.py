"""The policy model (paper Section 3.1).

A policy ``p = <OC, QC, AC>``:

* **Object conditions** ``OC`` — a conjunction over tuple attributes.
  Exactly one condition is the *owner condition* ``owner = u`` (the
  paper assumes every relation has an indexed ``owner`` column).
  Values are constants, constant ranges, IN-lists, or *derived values*
  (a scalar subquery evaluated at check time).
* **Querier conditions** ``QC`` — Pur-BAC style: who may ask
  (user or group) and for which purpose.
* **Action** ``AC`` — always ``allow``; deny is factored into allows
  and the default is deny (opt-out semantics).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.common.errors import PolicyError
from repro.common.intervals import Interval
from repro.expr.nodes import (
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    InList,
    Literal,
    ScalarSubquery,
)
from repro.expr.analysis import make_and

ANY_PURPOSE = "any"

_OPS = {"=", "!=", "<", "<=", ">", ">=", "IN", "NOT IN"}
_RANGE_LOW_OPS = {">", ">="}
_RANGE_HIGH_OPS = {"<", "<="}

_COMPARE = {
    "=": CompareOp.EQ,
    "!=": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


@dataclass(frozen=True)
class DerivedValue:
    """A value produced by a query at evaluation time (paper 3.1).

    Example: "allow access to my location only when I am with Prof.
    Smith" — the allowed ``wifiAP`` is whatever AP Prof. Smith's device
    is connected to at the tuple's timestamp.
    """

    sql: str

    def to_expr(self) -> Expr:
        from repro.sql.parser import parse_query  # deferred to avoid cycle

        return ScalarSubquery(parse_query(self.sql))


@dataclass(frozen=True)
class ObjectCondition:
    """One boolean condition over a relation attribute.

    Point form: ``<attr, op, value>`` with ``op`` in
    ``{=, !=, <, <=, >, >=, IN, NOT IN}``.
    Range form (paper's 5-tuple): ``<attr, op, value, op2, value2>``
    where ``op``/``op2`` bound the attribute from below/above, e.g.
    ``('ts_time', '>=', 540, '<=', 600)``.
    """

    attr: str
    op: str
    value: Any
    op2: str | None = None
    value2: Any | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise PolicyError(f"bad operator {self.op!r}")
        if isinstance(self.value, (list, set, frozenset)):
            # Normalize collection values to tuples so conditions stay
            # hashable (guard generation dedupes them in dict keys).
            object.__setattr__(self, "value", tuple(sorted(self.value, key=repr)))
        if self.op2 is not None:
            if self.op not in _RANGE_LOW_OPS or self.op2 not in _RANGE_HIGH_OPS:
                raise PolicyError(
                    f"range condition needs a lower op then an upper op, got {self.op!r}/{self.op2!r}"
                )
            if self.value is None or self.value2 is None:
                raise PolicyError("range condition needs both bounds")
            if isinstance(self.value, DerivedValue) or isinstance(self.value2, DerivedValue):
                raise PolicyError("range conditions must have constant bounds")
            if self.value > self.value2:
                raise PolicyError(
                    f"range lower bound {self.value!r} > upper bound {self.value2!r}"
                )

    # -------------------------------------------------------------- shape

    @property
    def is_range(self) -> bool:
        return self.op2 is not None

    @property
    def is_derived(self) -> bool:
        return isinstance(self.value, DerivedValue)

    @property
    def is_constant(self) -> bool:
        return not self.is_derived

    def interval(self) -> Interval | None:
        """Closed-interval view for guard merging; None when unbounded,
        derived, or not order-shaped (!=, IN, NOT IN)."""
        if self.is_derived:
            return None
        if self.is_range:
            return Interval(self.value, self.value2)
        if self.op == "=":
            return Interval(self.value, self.value)
        return None

    # ----------------------------------------------------------- expression

    def to_expr(self, qualifier: str | None = None) -> Expr:
        col = ColumnRef(self.attr, table=qualifier)
        if self.is_range:
            if self.op == ">=" and self.op2 == "<=":
                return Between(col, Literal(self.value), Literal(self.value2))
            lo_cmp = Comparison(_COMPARE[self.op], col, Literal(self.value))
            hi_cmp = Comparison(_COMPARE[self.op2], col, Literal(self.value2))
            result = make_and([lo_cmp, hi_cmp])
            assert result is not None
            return result
        if self.op in ("IN", "NOT IN"):
            values = self.value
            if not isinstance(values, (list, tuple, set, frozenset)):
                raise PolicyError("IN condition needs a collection value")
            items = tuple(Literal(v) for v in sorted(values, key=repr))
            return InList(col, items, negated=self.op == "NOT IN")
        rhs: Expr
        if self.is_derived:
            rhs = self.value.to_expr()
        else:
            rhs = Literal(self.value)
        return Comparison(_COMPARE[self.op], col, rhs)

    def __str__(self) -> str:
        if self.is_range:
            return f"{self.attr} {self.op} {self.value} {self.op2} {self.value2}"
        return f"{self.attr} {self.op} {self.value}"


@dataclass(frozen=True)
class QuerierCondition:
    """A condition over query metadata (querier identity or purpose)."""

    attr: str  # "querier" | "purpose"
    op: str  # "=" | "IN"
    value: Any

    def __post_init__(self) -> None:
        if self.attr not in ("querier", "purpose"):
            raise PolicyError(f"bad querier-condition attribute {self.attr!r}")
        if self.op not in ("=", "IN"):
            raise PolicyError(f"bad querier-condition op {self.op!r}")

    def matches(self, value: Any, groups: frozenset | None = None) -> bool:
        if self.op == "=":
            if self.value == value:
                return True
            return groups is not None and self.value in groups
        members = self.value
        if value in members:
            return True
        return groups is not None and any(g in members for g in groups)


_policy_counter = itertools.count(1)


@dataclass(frozen=True)
class Policy:
    """An allow policy over one relation."""

    owner: Any
    querier: Any
    purpose: str
    table: str
    object_conditions: tuple[ObjectCondition, ...]
    action: str = "allow"
    id: int = field(default_factory=lambda: next(_policy_counter))
    inserted_at: int = 0

    def __post_init__(self) -> None:
        if self.action != "allow":
            raise PolicyError(
                "only allow policies are supported; factor deny policies into allows "
                "(paper Section 3.1)"
            )
        owner_conditions = [
            oc
            for oc in self.object_conditions
            if oc.attr.lower() == "owner" and oc.op in ("=", "IN") and oc.is_constant
        ]
        if len(owner_conditions) != 1:
            raise PolicyError(
                f"policy {self.id} must contain exactly one owner condition, found "
                f"{len(owner_conditions)}"
            )

    @property
    def owner_condition(self) -> ObjectCondition:
        for oc in self.object_conditions:
            if oc.attr.lower() == "owner" and oc.op in ("=", "IN") and oc.is_constant:
                return oc
        raise PolicyError("unreachable: owner condition validated at construction")

    @property
    def non_owner_conditions(self) -> tuple[ObjectCondition, ...]:
        owner = self.owner_condition
        return tuple(oc for oc in self.object_conditions if oc is not owner)

    @property
    def has_derived_conditions(self) -> bool:
        return any(oc.is_derived for oc in self.object_conditions)

    def applies_to(
        self,
        querier: Any,
        purpose: str,
        querier_groups: frozenset | None = None,
    ) -> bool:
        """The PQM filter (paper Section 3.2): does this policy concern
        this querier and purpose?"""
        querier_ok = self.querier == querier or (
            querier_groups is not None and self.querier in querier_groups
        )
        purpose_ok = self.purpose == purpose or self.purpose == ANY_PURPOSE
        return querier_ok and purpose_ok

    def object_expr(self, qualifier: str | None = None) -> Expr:
        """The conjunctive OC expression of this policy."""
        result = make_and([oc.to_expr(qualifier) for oc in self.object_conditions])
        assert result is not None  # owner condition always present
        return result

    def __str__(self) -> str:
        ocs = " AND ".join(str(oc) for oc in self.object_conditions)
        return (
            f"Policy#{self.id}<[{ocs}], [{self.querier} ^ {self.purpose}], {self.action}>"
        )


def policy_expression(policies: Sequence[Policy], qualifier: str | None = None) -> Expr | None:
    """E(P): the DNF of the policies' object-condition conjunctions."""
    from repro.expr.analysis import make_or

    return make_or([p.object_expr(qualifier) for p in policies])
