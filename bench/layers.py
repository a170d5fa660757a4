"""Per-layer metrics: counter deltas over the timed window and the traced run.

A layer is a package under ``src/repro/``.  Timings are medians over the
traced run — a single-threaded replay of a fixed list of requests against
the warmed system: one whole-call span per request, then each layer's
public function called on the same input inside a span of its own.
Counts are per request and repeat exactly for one seed.  A component
whose function is missing or raises reports ``None`` plus the exception
name and never fails the run.
"""

from __future__ import annotations

import statistics
import time

from repro.audit import AuditLog
from repro.expr.params import parameterize_query
from repro.obs.histogram import LatencyHistogram
from repro.sql.parser import parse_query

from bench.load import Client
from bench.system import System, to_policy
from bench.trace import Recorder
from bench.workloads import LADDER, PURPOSE, TABLE, Inputs

GUARD_SAMPLE = 4  # queriers whose guards are force-rebuilt for core.guard_generate_ms
LADDER_EXEC_REPEATS = 5
OVERHEAD_REQUESTS = 30  # replayed per mode per round for audit./obs. overhead
OVERHEAD_ROUNDS = 3
ENGINE_COUNTS = (
    "tuples_scanned",
    "policy_evals",
    "predicate_evals",
    "index_node_visits",
    "udf_invocations",
)


# ------------------------------------------------------------ timed window


def _cache_delta(before: list, after: list, attr: str) -> dict[str, float]:
    """Summed hits/misses/evictions of one cache over the timed window."""
    out = {}
    for key in ("hits", "misses", "evictions"):
        out[key] = sum((getattr(s, attr) or {}).get(key, 0) for s in after) - sum(
            (getattr(s, attr) or {}).get(key, 0) for s in before
        )
    out["hit_rate"] = out["hits"] / max(1, out["hits"] + out["misses"])
    return out


def _hist_delta(before: list, after: list, attr: str) -> LatencyHistogram:
    """The latency population recorded between two stats snapshots."""
    new = LatencyHistogram.merge(getattr(s, attr) for s in after).to_dict()
    old = LatencyHistogram.merge(getattr(s, attr) for s in before).to_dict()
    counts = {k: n - old["counts"].get(k, 0) for k, n in new["counts"].items()}
    new["counts"] = {k: n for k, n in counts.items() if n}
    new["count"] -= old["count"]
    new["sum_ms"] -= old["sum_ms"]
    return LatencyHistogram.from_dict(new)


def window_metrics(before: list, after: list, raw: dict, system: System) -> tuple[dict, dict]:
    """``ServiceStats`` deltas over the timed window (not since start).
    Returns (metrics, reasons for the ``None`` ones)."""
    out: dict[str, float | None] = {}
    reasons = {}
    for cache in ("guard_cache", "rewrite_cache", "plan_cache"):
        delta = _cache_delta(before, after, cache)
        out[f"core.{cache}.hit_rate"] = delta["hit_rate"]
        out[f"core.{cache}.lookups"] = delta["hits"] + delta["misses"]
        if not out[f"core.{cache}.lookups"]:
            out[f"core.{cache}.hit_rate"] = None
            reasons[f"core.{cache}.hit_rate"] = "no lookups in the timed window (a cache above answered)"
        if cache != "guard_cache":
            out[f"core.{cache}.evictions"] = delta["evictions"]
    wait = _hist_delta(before, after, "queue_wait_hist")
    service = _hist_delta(before, after, "latency_hist")
    total = _hist_delta(before, after, "total_latency_hist")
    requests = sum(s.requests for s in after) - sum(s.requests for s in before)
    batches = sum(s.batches for s in after) - sum(s.batches for s in before)
    out["service.queue_wait_p50_ms"] = wait.percentile(50)
    out["service.queue_wait_p95_ms"] = wait.percentile(95)
    out["service.exec_p50_ms"] = service.percentile(50)
    out["service.handoff_ms"] = raw["latency_p50_ms"] - wait.percentile(50) - service.percentile(50)
    out["service.mean_batch_size"] = requests / batches if batches else 0.0
    out["service.rejections"] = sum(s.rejections for s in after) - sum(s.rejections for s in before)
    if system.cluster is not None:
        per_shard = [a.requests - b.requests for a, b in zip(after, before)]
        out["cluster.overhead_ms"] = raw["latency_p50_ms"] - total.percentile(50)
        out["cluster.shard_skew"] = max(per_shard) / statistics.mean(per_shard)
        out["cluster.retries"] = system.cluster.stats().counters.get("cluster_retries", 0)
    else:
        for name in ("overhead_ms", "shard_skew", "retries"):
            out[f"cluster.{name}"] = None
            reasons[f"cluster.{name}"] = "measured on cluster_warm only"
    return out, reasons


# -------------------------------------------------------------- traced run


class TracedRun:
    def __init__(self, system: System, inputs: Inputs, corpus: dict, recorder: Recorder):
        self.system = system
        self.inputs = inputs
        self.client = Client(system, corpus)
        self.rec = recorder
        self.metrics: dict[str, float | None] = {}
        self.reasons: dict[str, str] = {}
        self.counts = {name: 0 for name in (*ENGINE_COUNTS, "tuples_output", "cost_units")}

    def _call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span; ``None`` (error kept in the span)
        if the layer's function is gone or raises."""
        try:
            with self.rec.span(name):
                return fn(*args)
        except Exception:
            return None

    def _median(self, metric: str) -> None:
        """A timing metric is the median of the spans that carry its name."""
        self.metrics[metric] = self.rec.median_ms(metric)
        if self.metrics[metric] is None:
            self.reasons[metric] = self.rec.first_error(metric) or "not applicable on this workload"

    def replay(self) -> None:
        """Whole call, then each layer on the same input, per request."""
        system, rec = self.system, self.rec
        reads = writes = regenerations = 0
        epoch_before = system.store.epoch
        for unit in self.inputs.trace_units:
            for request in unit:
                rec.request_id = reads + writes
                if request.kind != "read":
                    writes += 1
                    with rec.span("policy.write_ms"):
                        self.client.issue(request)
                    self._call("policy.snapshot_ms", system.store.snapshot)
                    continue
                reads += 1
                with rec.span("request"):
                    with rec.span("trace.whole_call_ms"):
                        execution = self.client.issue(request, with_info=True)
                    if execution is None:
                        continue
                    regenerations += len(execution.regenerated_tables)
                    self._components(request)
        if not writes:
            self._call("policy.snapshot_ms", system.store.snapshot)
        parts = ("sql.parse_ms", "expr.parameterize_ms", "core.prepare_ms", "optimizer.plan_ms", "engine.exec_ms")
        for metric in (*parts, "policy.write_ms", "policy.snapshot_ms", "cluster.route_ms", "trace.whole_call_ms"):
            self._median(metric)
        self.metrics["core.regen_per_write"] = regenerations / writes if writes else None
        if not writes:
            self.reasons["core.regen_per_write"] = "no policy writes on this workload"
        self.metrics["policy.epoch_advances"] = system.store.epoch - epoch_before
        executed = max(1, len(rec.durations_ms("engine.exec_ms")))
        for name in ENGINE_COUNTS:
            self.metrics[f"engine.{name}_per_req"] = self.counts[name] / executed
        self.metrics["engine.cost_units_per_req"] = self.counts["cost_units"] / executed
        self.metrics["engine.rows_examined_per_row_out"] = self.counts["tuples_scanned"] / max(
            1, self.counts["tuples_output"]
        )
        if all(self.metrics[p] is not None for p in parts) and self.metrics["trace.whole_call_ms"]:
            self.metrics["trace.attributed_share"] = (
                sum(self.metrics[p] for p in parts) / self.metrics["trace.whole_call_ms"]
            )
        else:
            self.metrics["trace.attributed_share"] = None
            self.reasons["trace.attributed_share"] = "a component is missing"

    def _components(self, request) -> None:
        system, querier = self.system, request.querier
        if system.cluster is not None:
            self._call("cluster.route_ms", system.cluster.route, querier)
        sieve = system.sieve_for(querier)
        ast = self._call("sql.parse_ms", parse_query, request.sql)
        if ast is None:
            return
        self._call("expr.parameterize_ms", parameterize_query, ast)
        # An AST bypasses the rewrite cache, so this is the full prepare:
        # snapshot + guard resolve + strategy choice + rewrite, parse excluded.
        rewritten = self._call("core.prepare_ms", sieve.rewrite, ast, querier, PURPOSE)
        if rewritten is None:
            return
        planned = self._call("optimizer.plan_ms", sieve.db.plan, rewritten)
        if planned is None:
            return
        before = sieve.db.counters.snapshot()
        if self._call("engine.exec_ms", sieve.db.run_plan, planned) is None:
            return
        delta = sieve.db.counters.diff(before)
        for name in (*ENGINE_COUNTS, "tuples_output"):
            self.counts[name] += delta[name]
        self.counts["cost_units"] += type(sieve.db.counters).cost_of(delta)

    def guard_generation(self) -> None:
        """Cold guard generation for a few queriers, as a login pays it."""
        guards = []
        for querier in self.inputs.queriers[:GUARD_SAMPLE]:
            sieve = self.system.sieve_for(querier)
            built = self._call(
                "core.guard_generate_ms", sieve.guarded_expression_for, querier, PURPOSE, TABLE, True
            )
            if built is not None:
                guards.append(len(built[0].guards))
        self._median("core.guard_generate_ms")
        self.metrics["core.guards_per_expression"] = statistics.median(guards) if guards else None

    def ladder(self) -> None:
        """Overhead vs policy count: extra queriers with 50/150/400 policies."""
        if not self.inputs.ladder:
            for n in LADDER:
                for metric in ("guard_generate_ms", "exec_ms", "guards"):
                    self.metrics[f"ladder.{metric}.n{n}"] = None
                    self.reasons[f"ladder.{metric}.n{n}"] = "measured on serve_warm only"
        sql = self.inputs.warm_pairs[0][1]
        for n, (querier, specs) in self.inputs.ladder.items():
            self.system.store.insert_many(to_policy(spec) for spec in specs)
            sieve = self.system.sieve_for(querier)
            built = self._call(
                f"ladder.guard_generate_ms.n{n}", sieve.guarded_expression_for, querier, PURPOSE, TABLE, True
            )
            self._median(f"ladder.guard_generate_ms.n{n}")
            self.metrics[f"ladder.guards.n{n}"] = len(built[0].guards) if built else None
            planned = self._call("ladder.plan", lambda: sieve.db.plan(sieve.rewrite(sql, querier, PURPOSE)))
            for _ in range(LADDER_EXEC_REPEATS if planned is not None else 0):
                self._call(f"ladder.exec_ms.n{n}", sieve.db.run_plan, planned)
            self._median(f"ladder.exec_ms.n{n}")

    def overheads(self) -> None:
        """``Sieve.execute`` with audit / tracing on vs off: every request
        runs in all three modes back to back (order rotating), so host
        drift cancels in the per-request ratio; median of (on - off) / off."""
        reads = [r for unit in self.inputs.trace_units for r in unit if r.kind == "read"]
        reads = reads[:OVERHEAD_REQUESTS]
        sieves = self.system.sieves()
        logs = [AuditLog() for _ in sieves]
        modes = ("off", "audit", "obs")

        def switch(mode: str) -> None:
            # ``audit``/``tracer`` are the public on/off attributes (None = off).
            for sieve, log in zip(sieves, logs):
                sieve.audit = sieve.tracer = None
                if mode == "audit":
                    sieve.enable_audit(log)
                elif mode == "obs":
                    sieve.enable_tracing()

        ratios: dict[str, list[float]] = {"audit": [], "obs": []}
        try:
            for round_ in range(1 + OVERHEAD_ROUNDS):  # round 0 warms the Sieve.execute path
                for i, request in enumerate(reads):
                    sieve = self.system.sieve_for(request.querier)
                    took = {}
                    for mode in modes[i % 3 :] + modes[: i % 3]:
                        switch(mode)
                        with self.rec.span(f"overhead.{mode}") as span:
                            sieve.execute(request.sql, request.querier, PURPOSE)
                        took[mode] = span["end"] - span["start"]
                    if round_:
                        for mode in ratios:
                            ratios[mode].append((took[mode] - took["off"]) / took["off"])
        except Exception as exc:
            ratios = {"audit": [], "obs": []}
            self.reasons["audit.overhead_share"] = self.reasons["obs.trace_overhead_share"] = type(exc).__name__
        finally:
            switch("off")
        for metric, mode in (("audit.overhead_share", "audit"), ("obs.trace_overhead_share", "obs")):
            self.metrics[metric] = statistics.median(ratios[mode]) if ratios[mode] else None

    def span_overhead(self) -> None:
        """Cost of the benchmark's own span relative to a whole call."""
        probe = Recorder()
        begin = time.perf_counter()
        for _ in range(10_000):
            with probe.span("empty"):
                pass
        per_span_ms = (time.perf_counter() - begin) / 10_000 * 1000.0
        whole = self.metrics.get("trace.whole_call_ms")
        self.metrics["trace.overhead_share"] = per_span_ms / whole if whole else None


def traced_run(system: System, inputs: Inputs, corpus: dict, recorder: Recorder):
    run = TracedRun(system, inputs, corpus, recorder)
    run.replay()
    run.guard_generation()
    run.ladder()
    run.overheads()
    run.span_overhead()
    return run
