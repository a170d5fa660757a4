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

**Maintenance.**  A guarded expression is never mutated: a policy write
is answered by :meth:`GuardedExpression.with_deleted` /
:meth:`GuardedExpression.with_inserted`, which return a *new*
expression sharing every untouched :class:`Guard` — and through it the
guard's memoised branch AST, with the analysis, selectivity and
compiled kernel branch that hang off those nodes — by identity.  Both
edits keep ``G(P)`` exact; only the choice of guards drifts from what a
fresh selection would pick, which Section 6 prices
(:mod:`repro.core.regeneration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Collection, Iterable, Sequence

from repro.common.errors import SieveError
from repro.core.candidate_gen import _eligible_conditions, condition_cardinality
from repro.core.cost_model import SieveCostModel
from repro.expr.analysis import make_and, make_or
from repro.expr.nodes import ColumnRef, Expr, FuncCall, Literal
from repro.optimizer.stats import TableStats
from repro.policy.model import ObjectCondition, Policy


@dataclass
class Guard:
    """One guarded expression: an indexable predicate plus its policy
    partition."""

    condition: ObjectCondition
    policies: list[Policy]
    cardinality: float  # ρ(oc_g) as estimated rows
    # As scored when selection chose the guard; maintenance edits the
    # partition and leaves these (0 for a guard it made).
    cost: float = 0.0
    benefit: float = 0.0
    utility: float = 0.0
    #: Ordinal in the expression's guard keys (Δ registrations, observed
    #: cardinalities): given by the expression that first holds the
    #: guard, kept by the guard that replaces it when its partition is
    #: edited, never reused after it goes.
    key: int | None = None
    #: :meth:`branch_expr` results by argument tuple.  Condition and
    #: partition never change, so every expression holding this guard
    #: ORs the same branch node.
    _branch_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def branch_expr(
        self,
        guard_key: str,
        qualifier: str | None = None,
        use_delta: bool = False,
        delta_udf: str | None = None,
        delta_columns: Sequence[str] = (),
    ) -> Expr:
        """:meth:`to_expr`, built once per argument tuple (the Δ call is
        ``delta_udf(guard_key, col...)``)."""
        columns = tuple(delta_columns) if use_delta else ()
        memo_key = (guard_key, qualifier, use_delta, delta_udf if use_delta else None, columns)
        try:
            return self._branch_memo[memo_key]
        except KeyError:
            pass
        call = None
        if use_delta:
            if delta_udf is None:
                raise SieveError("delta guards require a registered delta UDF name")
            call = FuncCall(
                delta_udf, (Literal(guard_key), *(ColumnRef(c, table=qualifier) for c in columns))
            )
        branch = self.to_expr(qualifier, use_delta=use_delta, delta_call=call)
        # setdefault: two threads rendering at once still share one AST.
        return self._branch_memo.setdefault(memo_key, branch)

    def covers(self, oc: ObjectCondition) -> bool:
        """Does every tuple satisfying ``oc`` satisfy this guard's
        condition — is it the condition itself, or a constant range (or
        point) inside the guard's closed range?"""
        mine = self.condition
        if mine == oc:
            return True
        if mine.attr.lower() != oc.attr.lower() or (mine.op, mine.op2) != (">=", "<="):
            return False
        inner = oc.interval()
        try:
            return inner is not None and mine.value <= inner.lo and inner.hi <= mine.value2
        except TypeError:
            return False

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
    #: Policies :meth:`with_inserted` has added since the guards were
    #: last *selected* — the k of Eq. 19.
    maintained_inserts: int = 0
    #: The key the next guard new to this lineage gets.
    next_key: int = 0
    #: ``to_expr`` results by argument tuple.  The guards never change
    #: after construction (a policy write makes a new expression), so
    #: every rewrite of an epoch shares one AST per (qualifier, Δ-set) —
    #: and with it the node-attached analysis and the engine's
    #: compiled-predicate identity fast path.
    _expr_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: The guard side of strategy choice (rows, pages, Δ set) with the
    #: statistics and cost model it was computed from — see
    #: :func:`repro.core.strategy._guard_side`, which checks that stamp.
    _strategy_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.policy_count == 0:
            self.policy_count = sum(g.partition_size for g in self.guards)
        # A fresh selection is keyed by position; a guard maintenance
        # adds takes the lineage's next unused key.
        self.next_key = max(
            [self.next_key, *(g.key + 1 for g in self.guards if g.key is not None)]
        )
        for guard in self.guards:
            if guard.key is None:
                guard.key = self.next_key
                self.next_key += 1

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
        """``G_index`` alone — ``oc_g ∧ (partition | Δ(...))`` — the
        guard's own memoised node (:meth:`Guard.branch_expr`), which
        :meth:`to_expr` ORs; the MySQL IndexGuards rewrite scans one per
        UNION branch."""
        return self.guards[index].branch_expr(
            self.guard_key(index), qualifier, use_delta, delta_udf, delta_columns
        )

    def rendered_exprs(self, guards: Iterable[Guard] | None = None) -> list[Expr]:
        """Every AST :meth:`to_expr` has handed out plus the branch
        nodes of ``guards`` (default: all of this expression's) — what
        the guard store releases the engine's compiled predicates over
        when this expression is replaced: everything when it is
        regenerated or dropped, the ORs and the guards its successor no
        longer holds when it is maintained."""
        out = [expr for expr in list(self._expr_memo.values()) if expr is not None]
        for guard in self.guards if guards is None else guards:
            out.extend(list(guard._branch_memo.values()))
        return out

    def guard_key(self, index: int) -> str:
        """Stable identifier for one guard (passed to the Δ UDF)."""
        return f"{self.querier}|{self.purpose}|{self.table}|{self.guards[index].key}"

    # ---------------------------------------------------------- maintenance

    def _edited(self, guards: list[Guard], **changes: Any) -> "GuardedExpression":
        return replace(
            self, guards=guards, policy_count=sum(g.partition_size for g in guards), **changes
        )

    def with_deleted(self, policy_ids: Collection[int]) -> "GuardedExpression":
        """This expression without ``policy_ids``: each leaves its
        partition, and a guard left with none goes."""
        guards: list[Guard] = []
        for guard in self.guards:
            if not guard.policy_ids.isdisjoint(policy_ids):
                kept = [p for p in guard.policies if p.id not in policy_ids]
                if not kept:
                    continue
                guard = replace(guard, policies=kept)
            guards.append(guard)
        return self._edited(guards)

    def with_inserted(
        self,
        policy: Policy,
        indexed_columns: frozenset[str],
        stats: TableStats,
        cost_model: SieveCostModel,
    ) -> "GuardedExpression":
        """This expression plus ``policy``.  Among the guards that cover
        one of the policy's guard-eligible conditions it joins the one
        whose cost (Eq. 3) grows least; when none does it becomes a
        guard of its own on its most selective eligible condition."""
        eligible = _eligible_conditions(policy, frozenset(c.lower() for c in indexed_columns))
        if not eligible:
            raise SieveError(f"policy {policy.id} has no guard-eligible condition")
        joined = min(
            (
                (
                    cost_model.guard_cost(g.cardinality, g.partition_size + 1)
                    - cost_model.guard_cost(g.cardinality, g.partition_size),
                    at,
                )
                for at, g in enumerate(self.guards)
                if any(g.covers(oc) for oc in eligible)
            ),
            default=None,
        )
        guards = list(self.guards)
        if joined is not None:
            old = guards[joined[1]]
            guards[joined[1]] = replace(
                old, policies=sorted([*old.policies, policy], key=lambda p: p.id)
            )
        else:
            rows, condition = min(
                ((condition_cardinality(oc, stats), oc) for oc in eligible), key=lambda pair: pair[0]
            )
            # __post_init__ gives it the lineage's next key.
            guards.append(Guard(condition=condition, policies=[policy], cardinality=rows))
        return self._edited(guards, maintained_inserts=self.maintained_inserts + 1)

    def __str__(self) -> str:
        return (
            f"G(P) for querier={self.querier!r} purpose={self.purpose!r} "
            f"table={self.table!r}: {len(self.guards)} guards over "
            f"{self.policy_count} policies"
        )
