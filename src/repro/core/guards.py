"""Guarded expressions (paper Section 3.2).

A guard ``oc_g`` is a single indexable predicate; a guarded expression
``G_i = oc_g ∧ P_Gi`` pairs it with the partition of policies it
covers; a guarded policy expression ``G(P) = G_1 ∨ ... ∨ G_n``
partitions the whole policy set.

``Guard.to_expr`` renders one branch.  Following the paper's example
(Section 3.2), a policy's object condition is omitted from the inlined
partition when it is *exactly* the guard predicate (it would be
redundant); conditions that merely imply a widened/merged guard are
kept, since dropping them would widen the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

from repro.common.errors import SieveError
from repro.expr.analysis import make_and, make_or
from repro.expr.nodes import ColumnRef, Expr, FuncCall, Literal
from repro.policy.model import ObjectCondition, Policy


@dataclass
class Guard:
    """One guarded expression: an indexable predicate plus its policy
    partition."""

    condition: ObjectCondition
    policies: list[Policy]
    cardinality: float  # ρ(oc_g) as estimated rows
    cost: float = 0.0
    benefit: float = 0.0
    utility: float = 0.0

    @property
    def partition_size(self) -> int:
        return len(self.policies)

    @property
    def policy_ids(self) -> frozenset[int]:
        return frozenset(p.id for p in self.policies)

    # What the Δ-vs-inline decision (Section 5.4) reads of a partition;
    # the partition is fixed once the guard is built.
    @cached_property
    def has_derived_conditions(self) -> bool:
        """Does any policy of the partition compare against a derived
        (subquery) value?"""
        return any(p.has_derived_conditions for p in self.policies)

    @cached_property
    def distinct_owners(self) -> int:
        return len({str(p.owner) for p in self.policies})

    def partition_expr(self, qualifier: str | None = None) -> Expr | None:
        """E(P_Gi): the inlined DNF of the partition's policies, with the
        guard-equal condition factored out of each conjunction."""
        branches: list[Expr] = []
        for policy in self.policies:
            kept = [
                oc for oc in policy.object_conditions if oc != self.condition
            ]
            branch = make_and([oc.to_expr(qualifier) for oc in kept])
            if branch is None:
                # Every condition equals the guard: the guard alone admits
                # this policy's tuples.
                return None
            branches.append(branch)
        return make_or(branches)

    def to_expr(
        self,
        qualifier: str | None = None,
        use_delta: bool = False,
        delta_call: Expr | None = None,
    ) -> Expr:
        """The branch ``oc_g ∧ (partition | Δ(...))``."""
        guard_expr = self.condition.to_expr(qualifier)
        if use_delta:
            if delta_call is None:
                raise SieveError("use_delta requires a delta_call expression")
            body: Expr | None = delta_call
        else:
            body = self.partition_expr(qualifier)
        if body is None:
            return guard_expr
        result = make_and([guard_expr, body])
        assert result is not None
        return result

    def __str__(self) -> str:
        return f"Guard<{self.condition} | {self.partition_size} policies, ρ={self.cardinality:.0f}>"


@dataclass
class GuardedExpression:
    """G(P) for one (querier, purpose, relation): the full disjunction."""

    querier: Any
    purpose: str
    table: str
    guards: list[Guard]
    policy_count: int = 0
    generation_ms: float = 0.0
    created_at: int = 0
    #: ``to_expr`` / ``branch_expr`` results by argument tuple.  The
    #: guards never change after construction (a policy write builds a
    #: new expression), so every rewrite of an epoch shares one AST per
    #: (qualifier, Δ-set) — and with it the node-attached analysis and
    #: the engine's compiled-predicate identity fast path.
    _expr_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.policy_count == 0:
            self.policy_count = sum(g.partition_size for g in self.guards)

    @property
    def total_cardinality(self) -> float:
        return sum(g.cardinality for g in self.guards)

    def covered_policy_ids(self) -> frozenset[int]:
        out: set[int] = set()
        for guard in self.guards:
            out |= guard.policy_ids
        return frozenset(out)

    def check_partition_invariants(self) -> None:
        """Partitions must be pairwise disjoint and cover every policy
        exactly once (Section 3.2). Raises SieveError on violation."""
        seen: set[int] = set()
        for guard in self.guards:
            ids = guard.policy_ids
            overlap = seen & ids
            if overlap:
                raise SieveError(f"policies {sorted(overlap)} appear in two partitions")
            seen |= ids
        if len(seen) != self.policy_count:
            raise SieveError(
                f"guards cover {len(seen)} policies, expected {self.policy_count}"
            )

    def to_expr(
        self,
        qualifier: str | None = None,
        delta_guards: frozenset[int] = frozenset(),
        delta_udf: str | None = None,
        delta_columns: Sequence[str] = (),
    ) -> Expr | None:
        """The full ``G_1 ∨ ... ∨ G_n`` with selected branches using Δ.

        ``delta_guards`` holds indexes into ``self.guards``; Δ branches
        call ``delta_udf(guard_key, querier, purpose, col...)``.  The
        (immutable) AST is built once per argument tuple and shared.
        """
        columns = tuple(delta_columns)
        memo_key = (qualifier, delta_guards, delta_udf, columns)
        try:
            return self._expr_memo[memo_key]
        except KeyError:
            pass
        branches = [
            self.branch_expr(i, qualifier, i in delta_guards, delta_udf, columns)
            for i in range(len(self.guards))
        ]
        # setdefault: two threads rendering at once still share one AST.
        return self._expr_memo.setdefault(memo_key, make_or(branches))

    def branch_expr(
        self,
        index: int,
        qualifier: str | None = None,
        use_delta: bool = False,
        delta_udf: str | None = None,
        delta_columns: Sequence[str] = (),
    ) -> Expr:
        """``G_index`` alone — ``oc_g ∧ (partition | Δ(...))`` — built
        once per argument tuple like :meth:`to_expr`, which ORs these
        very nodes; the MySQL IndexGuards rewrite scans one per UNION
        branch."""
        columns = tuple(delta_columns) if use_delta else ()
        memo_key = ("branch", index, qualifier, use_delta, delta_udf if use_delta else None, columns)
        try:
            return self._expr_memo[memo_key]
        except KeyError:
            pass
        call = None
        if use_delta:
            if delta_udf is None:
                raise SieveError("delta guards require a registered delta UDF name")
            call = FuncCall(
                delta_udf,
                (
                    Literal(self.guard_key(index)),
                    *(ColumnRef(c, table=qualifier) for c in columns),
                ),
            )
        branch = self.guards[index].to_expr(qualifier, use_delta=use_delta, delta_call=call)
        return self._expr_memo.setdefault(memo_key, branch)

    def rendered_exprs(self) -> list[Expr]:
        """Every AST :meth:`to_expr` and :meth:`branch_expr` have handed
        out (the guard store releases the engine's compiled predicates
        over them when this expression is replaced)."""
        return [expr for expr in list(self._expr_memo.values()) if expr is not None]

    def guard_key(self, index: int) -> str:
        """Stable identifier for one guard (passed to the Δ UDF)."""
        return f"{self.querier}|{self.purpose}|{self.table}|{index}"

    def __str__(self) -> str:
        return (
            f"G(P) for querier={self.querier!r} purpose={self.purpose!r} "
            f"table={self.table!r}: {len(self.guards)} guards over "
            f"{self.policy_count} policies"
        )
