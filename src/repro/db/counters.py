"""Deterministic execution counters (paper Section 7 methodology).

Section 7 reports query latencies; wall-clock timings of a pure-Python
engine are noisy and hardware dependent, so the paper's *shapes* (who
wins, where crossovers fall — Figures 3-6, Tables 6-11) are asserted
on these counters instead.  ``cost_units`` aggregates them with
PostgreSQL-inspired weights: sequential page = 1.0, random page = 4.0,
bitmap heap page = 2.0 (between the two, since bitmap heap visits are
page-ordered), plus CPU terms for per-tuple work, predicate and policy
evaluations, and UDF invocations (the Δ operator of Section 5.2).

A :class:`CounterSet` holds exactly the 13 counters an engine execution
charges: the nine the cost model weighs, plus four it does not —

* ``tuples_output`` — rows a query returned;
* ``batches`` — row batches formed by the batch executor's scans (an
  engine mechanic: the per-tuple counters are charged identically by
  both executors, so ``cost_units`` stays execution-mode independent);
* ``backend_queries`` / ``backend_rows`` — rewritten statements
  shipped to an external execution backend (:mod:`repro.backend`) and
  the rows it returned; the backend is a real engine whose cost shows
  up as wall time, not as bundled page/CPU charges.

Nothing else ticks a ``CounterSet``.  Every other event is counted
once, by the tier that owns it: guard- and plan-cache traffic by
:class:`~repro.core.cache.CacheStats`, compiled-expression traffic by
:class:`~repro.expr.codegen.CompiledExprCache`, serving by
:class:`~repro.service.ServiceStats`, routing / scatter / retries /
faults by :class:`~repro.cluster.ClusterStats` ``counters``, and audit
records by the :class:`~repro.audit.AuditLog`.  So a snapshot diff is
the engine work of what ran in between — what the differential and
audit suites compare, and all that :mod:`repro.obs.export` mirrors
from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CostWeights:
    seq_page: float = 1.0
    random_page: float = 4.0
    bitmap_page: float = 2.0
    cpu_tuple: float = 0.01
    cpu_predicate: float = 0.0025
    cpu_policy: float = 0.0025
    index_node: float = 0.005
    udf_invocation: float = 0.5
    udf_policy: float = 0.001


@dataclass
class CounterSet:
    """Mutable counters accumulated during query execution."""

    pages_sequential: int = 0
    pages_random: int = 0
    pages_bitmap: int = 0
    tuples_scanned: int = 0
    tuples_output: int = 0
    predicate_evals: int = 0
    policy_evals: int = 0
    index_node_visits: int = 0
    udf_invocations: int = 0
    udf_policy_evals: int = 0
    batches: int = 0
    backend_queries: int = 0
    backend_rows: int = 0
    weights: CostWeights = field(default_factory=CostWeights)

    def reset(self) -> None:
        for name in self._COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._COUNTER_NAMES}

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in self._COUNTER_NAMES
        }

    @property
    def cost_units(self) -> float:
        w = self.weights
        return (
            self.pages_sequential * w.seq_page
            + self.pages_random * w.random_page
            + self.pages_bitmap * w.bitmap_page
            + self.tuples_scanned * w.cpu_tuple
            + self.predicate_evals * w.cpu_predicate
            + self.policy_evals * w.cpu_policy
            + self.index_node_visits * w.index_node
            + self.udf_invocations * w.udf_invocation
            + self.udf_policy_evals * w.udf_policy
        )

    @staticmethod
    def cost_of(snapshot_diff: dict[str, int], weights: CostWeights | None = None) -> float:
        """Cost units of a snapshot diff (for per-query accounting)."""
        w = weights or CostWeights()
        temp = CounterSet(weights=w)
        for name, value in snapshot_diff.items():
            if name in CounterSet._COUNTER_NAMES:
                setattr(temp, name, value)
        return temp.cost_units

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{name}={getattr(self, name)}" for name in self._COUNTER_NAMES]
        parts.append(f"cost_units={self.cost_units:.2f}")
        return "CounterSet(" + ", ".join(parts) + ")"


#: The counters: every ``int`` field, in declaration order — what
#: ``reset`` / ``snapshot`` / ``diff`` and the metrics registry
#: (:func:`repro.obs.metrics.register_counterset`) iterate, so declaring
#: a field above is the whole of adding a counter.
CounterSet._COUNTER_NAMES = tuple(f.name for f in fields(CounterSet) if f.type == "int")
