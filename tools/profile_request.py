"""Where one served request spends its time, by layer (profiling CLI).

Builds the Fig. 6 Mall world (~37 k ``WiFi_Connectivity`` rows, 12 shop
queriers x 150 policies) through the public API and drives the serving
tier's one entry, ``Sieve.serve`` — the statement memo (or parse and
auto-parameterize, once per shape), then the plan cache — per request,
single-threaded under ``cProfile``.  Prints the median request time timed plainly and the
``parse_query``, ``compile()`` and ``Planner.prepare`` calls per read,
then the mean under the profiler, the time spent inside each
``src/repro/<layer>`` (own time of its functions, so the column adds up)
and the top functions by cumulative time.  In ``fresh`` mode it also
prints the miss-path split, timed without the profiler — front end /
strategy / bind / planning's two phases, ``plan.template``
(``Planner.prepare``, once per template) and ``plan.bind``
(``PlanTemplate.bind``, once per binding) / the rewrite, when a template
is rewritten at all / what a plan's first execution costs beyond a
repeat — and the ``Planner.prepare``, ``rewriter.rewrite`` and
``compile()`` calls and the garbage collector's pause ms per request.
``warm`` exits non-zero if a read parses or compiles, or if a warm read
of the canonical world looks up a compiled expression or copies a CTE's
tuples; ``fresh`` if a fresh read of a known shape parses or runs phase
1 of planning.

Modes (the canonical benchmark's workloads, one thread, no queue):

* ``fresh`` — every request binds never-seen literals (each pass its
  own): a statement-memo hit by shape (lexed, not parsed) and a
  plan-cache miss, so strategy choice, binding the template's rewrite
  and binding its plan template run per request;
* ``warm``  — one fixed text per (querier, shape): a statement-memo hit
  (no parse) and a plan-cache hit, whose plan's operators were resolved
  on its first execution; then per warm read of the canonical
  ``serve_warm`` world its guard-branch calls, compiled-expression cache
  look-ups and CTE tuples copied;
* ``churn`` — [1 policy write, 5 reads]: the first read after a write
  brings the written querier's guards to the new corpus (maintenance,
  or every k-th insert a full regeneration) and re-plans; its split,
  timed plainly — release, guard maintenance, strategy, rewrite, both
  phases of planning, guard-kernel build, ``compile()``, execution and
  the rest — and its ``compile()`` calls, dispatch shells and guard
  branches apart;
* ``cold``  — each querier's first request, which generates its guards
  (Section 4) and compiles its kernels, in the canonical benchmark's
  own ``serve_warm`` world (``bench/workloads.py`` / ``bench/system.py``,
  the request ``cold_query_p50_ms`` times, served by ``Sieve.serve``
  without a server): the median over fresh instances of that world
  (``-n`` rounds up to whole worlds of 12 queriers) and its split,
  timed plainly — the front end, candidate generation besides the
  merge sweep, the sweep, selection, guard persistence, strategy,
  rewrite, binding, both phases of planning, the guard-kernel build,
  ``compile()``, execution and the rest — the share of the request the
  named stages hold, and per cold request the ``selectivity_range``
  calls, ``facts`` merges and guard-branch renderings; it exits
  non-zero when a cold request makes more ``selectivity_range`` calls
  or ``facts`` merges than ``COLD_CEILINGS`` allows.  Then guard
  generation alone for one shop at 150 / 400 / 1 000 / 2 000 policies
  and its growth, then one more world under cProfile;
* ``plans`` — no profile: the canonical benchmark's own ``serve_warm``
  world (``bench/workloads.py``, 12 queriers x 8 shapes = 96 pairs).
  For each pair, every access path the planner weighs for the guarded
  scan is run (cost units from the engine counters, median wall ms of
  ``-n`` runs); one block per shape gives the Section 5.5 strategy
  label, the path actually planned and each candidate's estimated cost,
  cost units and ms, then the wall-clock regret (planned ÷ fastest)
  over all pairs and how often the planned path is the cost-unit argmin.

Except in ``cold``, every querier and shape is executed once before the
profiled window, so guard generation and first-sight compilation are
not in it (except, in ``churn``, what the writes cause).  cProfile
inflates call heavy code; use it to find where time goes, and
``bench/run.py`` to measure a change.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import cProfile
import gc
import pathlib
import pstats
import random
import re
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.bench.scenarios import mall_policies_for_shop  # noqa: E402
from repro.core import Sieve, middleware  # noqa: E402
from repro.core.guard_store import GuardStore  # noqa: E402
from repro.datasets.mall import MallConfig, generate_mall  # noqa: E402
from repro.engine.vector import VectorizedExecutor  # noqa: E402
from repro.expr.codegen import CodegenExprCompiler  # noqa: E402
from repro.optimizer.planner import Planner, PlanTemplate  # noqa: E402
from repro.policy.store import PolicyStore  # noqa: E402

TABLE = "WiFi_Connectivity"
PURPOSE = "any"
N_QUERIERS = 12
POLICIES_PER_QUERIER = 150
READS_PER_WRITE = 5

#: The benchmark's four selective shapes, then a grouped count and an
#: ORDER BY with its LIMIT: (SQL, ((axis, min width, max width), ...)).
SHAPES = (
    (f"SELECT COUNT(*) FROM {TABLE} WHERE ts_time BETWEEN {{t1}} AND {{t2}}", (("t", 60, 300),)),
    (f"SELECT * FROM {TABLE} WHERE ts_date BETWEEN {{d1}} AND {{d2}}", (("d", 2, 6),)),
    (
        f"SELECT * FROM {TABLE} WHERE owner IN ({{owners}}) AND ts_date BETWEEN {{d1}} AND {{d2}}",
        (("d", 6, 14),),
    ),
    (
        f"SELECT * FROM {TABLE} WHERE shop_id IN ({{shops}}) AND ts_time BETWEEN {{t1}} "
        "AND {t2} AND ts_date BETWEEN {d1} AND {d2}",
        (("t", 120, 360), ("d", 6, 14)),
    ),
    (
        f"SELECT owner, COUNT(*) FROM {TABLE} WHERE ts_date BETWEEN {{d1}} AND {{d2}} GROUP BY owner",
        (("d", 2, 6),),
    ),
    (
        f"SELECT id, owner, ts_time FROM {TABLE} WHERE ts_date BETWEEN {{d1}} AND {{d2}} "
        "ORDER BY ts_time DESC, id LIMIT 20",
        (("d", 1, 3),),
    ),
)


class World:
    """The Mall database, its policy store and one ``Sieve``, served
    through ``Sieve.serve`` as a server's worker serves it (no queue,
    no workers)."""

    def __init__(self, seed: int):
        self.mall = generate_mall(MallConfig(seed=13, n_customers=900, days=25))
        self.store = PolicyStore(self.mall.db, self.mall.groups)
        rng = random.Random(seed)
        self.shops = sorted(rng.sample(self.mall.shops, N_QUERIERS))
        self.owners: dict[int, list[int]] = {}
        for shop in self.shops:
            policies = mall_policies_for_shop(self.mall, shop, POLICIES_PER_QUERIER)
            self.owners[shop] = sorted({p.owner for p in policies})
            self.store.insert_many(policies)
        self.sieve = Sieve(self.mall.db, self.store)

    def bind(self, shape: int, shop: int, rng: random.Random) -> str:
        """One SQL text of ``SHAPES[shape]`` with literals from ``rng``."""
        sql, axes = SHAPES[shape]
        values: dict[str, object] = {}
        for axis, lo, hi in axes:
            width = rng.randrange(lo, hi + 1)
            span = (600, 1320) if axis == "t" else (0, self.mall.config.days)
            start = rng.randrange(span[0], span[1] - width)
            values[f"{axis}1"], values[f"{axis}2"] = start, start + width
        values["owners"] = ", ".join(map(str, sorted(rng.sample(self.owners[shop], 8))))
        values["shops"] = ", ".join(map(str, sorted(rng.sample(self.mall.shops, 3))))
        return sql.format(**values)

    def serve(self, shop: int, sql: str) -> int:
        """One request down the serving path; returns its row count."""
        return len(self.sieve.serve(sql, self.mall.shop_querier(shop), PURPOSE).result.rows)


def make_requests(world: World, mode: str, n: int, seed: int) -> list[tuple[str, Callable[[], object]]]:
    """``n`` read requests (plus, in ``churn``, the writes between them)
    as ``(kind, zero-argument callable)``, after warming every (querier,
    shape).  ``kind`` is ``"read"``, ``"write"`` or ``"after_write"``
    (the read that follows a write, on the written querier)."""
    rng = random.Random(f"{seed}:{mode}")
    pairs = [(shop, shape) for shop in world.shops for shape in range(len(SHAPES))]
    fixed = {pair: world.bind(pair[1], pair[0], rng) for pair in pairs}
    for (shop, _shape), sql in fixed.items():
        world.serve(shop, sql)
    order = [pair for _ in range(n // len(pairs) + 1) for pair in rng.sample(pairs, len(pairs))][:n]
    if mode == "fresh":
        texts = [world.bind(shape, shop, rng) for shop, shape in order]
        return [
            ("read", lambda s=shop, t=text: world.serve(s, t))
            for (shop, _), text in zip(order, texts)
        ]
    reads = [lambda s=shop, t=fixed[(shop, shape)]: world.serve(s, t) for shop, shape in order]
    if mode == "warm":
        return [("read", read) for read in reads]
    hot = world.shops[0]
    spare = mall_policies_for_shop(world.mall, hot, n // (2 * READS_PER_WRITE) + 1, seed=seed)
    out: list[tuple[str, Callable[[], object]]] = []
    for i, read in enumerate(reads):
        kind = "read"
        if i % READS_PER_WRITE == 0:
            # Insert, then delete the same policy: the corpus stays ~150.
            policy = spare[i // (2 * READS_PER_WRITE)]
            if i // READS_PER_WRITE % 2 == 0:
                out.append(("write", lambda p=policy: world.store.insert(p)))
            else:
                out.append(("write", lambda p=policy: world.store.delete(p.id)))
            sql = fixed[(hot, rng.randrange(len(SHAPES)))]
            kind, read = "after_write", lambda t=sql: world.serve(hot, t)  # the written querier
        out.append((kind, read))
    return out


def timed(requests: list[tuple[str, Callable[[], object]]]) -> tuple[str, dict[str, float]]:
    """Run ``requests`` once, unprofiled; the median time per read kind,
    then the ``parse_query`` and ``compile()`` calls per read of each
    kind — as a report, and the calls per plain read by name."""
    taken: dict[str, list[float]] = defaultdict(list)
    calls: dict[str, Counter] = defaultdict(Counter)
    kind = ""
    real_parse, real_compile, real_prepare = middleware.parse_query, builtins.compile, Planner.prepare

    def counting(name: str, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            calls[kind][name] += 1
            return fn(*args, **kwargs)

        return run

    middleware.parse_query = counting("parse_query", real_parse)
    builtins.compile = counting("compile()", real_compile)
    Planner.prepare = counting("Planner.prepare", real_prepare)
    try:
        for kind, request in requests:
            start = time.perf_counter()
            request()
            taken[kind].append((time.perf_counter() - start) * 1000.0)
    finally:
        middleware.parse_query, builtins.compile, Planner.prepare = real_parse, real_compile, real_prepare
    names = {"read": "read", "after_write": "read after a write", "write": "policy write"}
    kinds = [k for k in ("after_write", "read", "write") if taken[k]]
    reads = [k for k in kinds if k != "write"]
    per_read = {name: count / len(taken["read"]) for name, count in calls["read"].items()}
    counted = ("parse_query", "compile()", "Planner.prepare")
    return (
        "median, timed without cProfile: "
        + ", ".join(f"{names[k]} {statistics.median(taken[k]):.2f} ms (n={len(taken[k])})" for k in kinds)
        + "\n" + " / ".join(counted) + " calls per "
        + ", per ".join(
            f"{names[k]} " + " / ".join(f"{calls[k][name] / len(taken[k]):.2f}" for name in counted)
            for k in reads
        )
    ), per_read


@contextlib.contextmanager
def gc_paused() -> Iterator[list[float]]:
    """Collect the ms of every garbage-collector pause of this process
    while open (``gc.callbacks``: the time from a collection's start to
    its stop)."""
    pauses: list[float] = []
    began = [0.0]

    def callback(phase: str, _info: dict) -> None:
        if phase == "start":
            began[0] = time.perf_counter()
        else:
            pauses.append((time.perf_counter() - began[0]) * 1000.0)

    gc.callbacks.append(callback)
    try:
        yield pauses
    finally:
        gc.callbacks.remove(callback)


def miss_path_split(world: World, requests: list[tuple[str, Callable[[], object]]]) -> str:
    """Where a plan-cache miss spends its time, stage by stage: run
    ``requests`` (fresh literals of known shapes) once with a plain
    timer around each stage — the front end (``Sieve._statement``, the
    statement memo), strategy choice, binding the template's rewrite,
    the rewrite when the template is rewritten at all, planning — no
    cProfile, and
    re-run every plan once more, so what the *first* execution of a
    plan costs beyond a repeat shows; plus ``rewriter.rewrite`` and
    ``compile()`` calls per request and the garbage collector's pauses.
    Medians over the requests."""
    taken: dict[str, list[float]] = defaultdict(list)

    def stage(name: str, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                taken[name].append((time.perf_counter() - start) * 1000.0)

        return run

    db, rewriter, front = world.mall.db, world.sieve.rewriter, world.sieve
    run_plan = db.run_plan

    def run_twice(planned):
        result = stage("first execution", run_plan)(planned)
        stage("repeat execution", run_plan)(planned)
        return result

    saved = (middleware.bind_slots, middleware.choose_strategy, Planner.prepare, PlanTemplate.bind)
    middleware.bind_slots = stage("bind", saved[0])
    middleware.choose_strategy = stage("strategy", saved[1])
    Planner.prepare = stage("plan.template", saved[2])
    PlanTemplate.bind = stage("plan.bind", saved[3])
    rewriter.rewrite = stage("rewrite", rewriter.rewrite)
    front._statement = stage("front end", front._statement)
    db.run_plan = run_twice
    try:
        with compiles_counted() as compiles, gc_paused() as pauses:
            for _kind, request in requests:
                request()
    finally:
        middleware.bind_slots, middleware.choose_strategy, Planner.prepare, PlanTemplate.bind = saved
        del rewriter.rewrite, front._statement, db.run_plan
    med = {name: statistics.median(times) for name, times in taken.items()}
    first_cost = med["first execution"] - med["repeat execution"]
    parts = [f"{name} {med[name]:.3f}" for name in ("front end", "strategy", "bind") if name in med]
    # Phase 1 of planning runs once per template, so a fresh read of a
    # known one has no plan.template sample at all.
    templates = len(taken["plan.template"])
    parts.append(f"plan.template {med['plan.template']:.3f}" if templates else "plan.template -")
    parts += [f"plan.bind {med['plan.bind']:.3f}"] if "plan.bind" in med else []
    rewrites = len(taken["rewrite"])
    return (
        "miss path, medians in ms, timed without cProfile: "
        + ", ".join(parts)
        + (f", rewrite {med['rewrite']:.3f}" if rewrites else "")
        + f", first execution - repeat of the same plan {first_cost:.3f}"
        f" ({med['first execution']:.3f} - {med['repeat execution']:.3f});"
        f" Planner.prepare calls per request {templates / len(requests):.2f};"
        f" rewriter.rewrite calls per request {rewrites / len(requests):.2f};"
        f" compile() calls per request {sum(compiles.values()) / len(requests):.2f};"
        f" GC pauses {sum(pauses) / len(requests):.3f} ms per request"
        f" ({len(pauses)} collections, longest {max(pauses, default=0.0):.2f} ms)"
    )


class CanonicalWorld:
    """The canonical benchmark's ``serve_warm`` world at its corpus seed
    — the Mall database, the workload's policy corpus and one ``Sieve``
    — built from ``bench/workloads.py`` and ``bench/system.py`` as the
    benchmark builds it, without the server."""

    def __init__(self):
        from bench import workloads
        from bench.system import to_policy

        self.inputs = workloads.generate("serve_warm", 0, 0, 0)
        self.mall = generate_mall(MallConfig(**workloads.MALL))
        self.db = self.mall.db
        self.store = PolicyStore(self.db, self.mall.groups)
        self.store.insert_many(to_policy(spec) for spec in self.inputs.policies)
        self.sieve = Sieve(self.db, self.store)
        self.purpose = workloads.PURPOSE

    def cold_requests(self) -> list[Callable[[], object]]:
        """Each querier's first request — its first (querier, SQL) pair,
        as the benchmark's cold pass issues it."""
        first: dict[str, str] = {}
        for querier, sql in self.inputs.warm_pairs:
            first.setdefault(querier, sql)
        return [
            lambda q=querier, t=sql: self.sieve.serve(t, q, self.purpose)
            for querier, sql in first.items()
        ]


@contextlib.contextmanager
def branch_calls_counted() -> Iterator[Counter]:
    """A ``Counter``, while open, of guard-branch calls (``"calls"``)
    and the rows handed to them (``"rows"``) — every branch compiled in
    the block is wrapped to count its own — and of the BitmapOr scans
    run (``"bitmaps"``) and their arms (``"arms"``)."""
    counted: Counter = Counter()
    real_branch, real_bitmap = CodegenExprCompiler.compile_guard_branch, VectorizedExecutor._vexec_BitmapOrPlan

    def compile_guard_branch(self, *args, **kwargs):
        fn = real_branch(self, *args, **kwargs)

        def counting(cols, idx):
            counted["calls"] += 1
            counted["rows"] += len(idx)
            return fn(cols, idx)

        return counting

    def bitmap(self, plan, *args, **kwargs):
        counted["bitmaps"] += 1
        counted["arms"] += len(plan.arms)
        return real_bitmap(self, plan, *args, **kwargs)

    CodegenExprCompiler.compile_guard_branch = compile_guard_branch
    VectorizedExecutor._vexec_BitmapOrPlan = bitmap
    try:
        yield counted
    finally:
        CodegenExprCompiler.compile_guard_branch = real_branch
        VectorizedExecutor._vexec_BitmapOrPlan = real_bitmap


@contextlib.contextmanager
def cte_copies_counted(counted: Counter) -> Iterator[Counter]:
    """``counted["copied"]``, while open, grows by the tuples each CTE
    materialisation copies out of its body — a table scan's CTE is held
    as heap rowids and copies none."""
    real = VectorizedExecutor._materialise

    def materialise(self, plan):
        held = real(self, plan)
        if held.sel is None:
            counted["copied"] += len(held.rows)
        return held

    VectorizedExecutor._materialise = materialise
    try:
        yield counted
    finally:
        VectorizedExecutor._materialise = real


def warm_branch_calls() -> tuple[str, list[str]]:
    """The guard-branch calls and rows per call of each warm read of the
    canonical ``serve_warm`` world (its 96 querier x SQL pairs, each
    served once before), summed up per query shape, and what a warm read
    resolves again: its compiled-expression cache look-ups (a cached
    plan's operators are resolved on its first execution) and the CTE
    tuples it copies.  And, one line each, the reads that made more
    branch calls than their BitmapOr has arms — a drained BitmapOr of
    ``owner =`` arms calls each arm's branch once — or any look-up or
    copy."""
    with branch_calls_counted() as counted, cte_copies_counted(counted):
        world = CanonicalWorld()
        pairs = world.inputs.warm_pairs
        for querier, sql in pairs:
            world.sieve.serve(sql, querier, world.purpose)
        per_read: list[tuple[str, str, Counter]] = []
        cache = world.db.expr_cache
        for querier, sql in pairs:
            counted.clear()
            looked = cache.hits + cache.misses
            world.sieve.serve(sql, querier, world.purpose)
            counted["lookups"] = cache.hits + cache.misses - looked
            per_read.append((querier, sql, counted.copy()))
    shapes: dict[str, list[Counter]] = defaultdict(list)
    for _querier, sql, c in per_read:
        shapes[re.sub(r"\d+", "?", sql)].append(c)
    lines = [f"guard-branch calls per warm read, canonical serve_warm world ({len(per_read)} reads), by shape:"]
    for shape, counts in shapes.items():
        calls = [c["calls"] for c in counts]
        rows = sum(c["rows"] for c in counts) / max(1, sum(calls))
        arms = statistics.median(c["arms"] for c in counts)
        lines.append(
            f"  calls median {statistics.median(calls):.0f} (max {max(calls)}), rows per call {rows:.1f}, "
            f"BitmapOr arms median {arms:.0f} | {shape[:90]}"
        )
    for label, kind in (("compiled-expression cache look-ups", "lookups"), ("CTE tuples copied", "copied")):
        counts = [c[kind] for _q, _s, c in per_read]
        lines.append(f"{label} per warm read: median {statistics.median(counts):.0f} (max {max(counts)})")
    broken = [
        f"a warm read made {c['calls']} guard-branch calls over {c['arms']} BitmapOr arms ({querier}: {sql})"
        for querier, sql, c in per_read
        if c["bitmaps"] and c["calls"] > c["arms"]
    ] + [
        f"a warm read made {c['lookups']} compiled-expression cache look-ups"
        f" and copied {c['copied']} CTE tuples ({querier}: {sql})"
        for querier, sql, c in per_read
        if c["lookups"] or c["copied"]
    ]
    return "\n".join(lines), broken


def compile_kind(source: object) -> str:
    """What a ``compile()`` of ``source`` builds: a guard kernel's
    dispatch ``"shell"`` (a guard kernel takes no constants vector), a
    guard ``"branch"``'s batch function or ``"other"``."""
    if not isinstance(source, str):
        return "other"
    if source.startswith("def _kernel(_cols, _sel):"):
        return "shell"
    return "branch" if source.startswith("def _branch(") else "other"


@contextlib.contextmanager
def compiles_counted() -> Iterator[Counter]:
    """A ``Counter`` of the ``compile()`` calls made in the block, by
    :func:`compile_kind` (clear it to count one request)."""
    counted: Counter = Counter()
    real_compile = builtins.compile

    def counting(source, *args, **kwargs):
        counted[compile_kind(source)] += 1
        return real_compile(source, *args, **kwargs)

    builtins.compile = counting
    try:
        yield counted
    finally:
        builtins.compile = real_compile


def compile_counts(per_request: list[Counter], average: Callable = statistics.median) -> str:
    """``compile()`` calls per request, in all and by kind."""
    kinds = [("dispatch shells", "shell"), ("guard branches", "branch"), ("other", "other")]
    return f"{average([sum(c.values()) for c in per_request]):.2f} (" + ", ".join(
        f"{label} {average([c[kind] for c in per_request]):.2f}" for label, kind in kinds
    ) + ")"


class StageClock:
    """Own time per stage with a plain timer (no cProfile), while in a
    ``with`` block: each ``(label, owner, attribute)`` is wrapped, and a
    stage nested in another (``compile()`` inside planning or execution)
    is taken out of the outer one.  Several attributes may share a
    label; ``labels`` lists them once each, in order."""

    def __init__(self, stages: Sequence[tuple[str, object, str]]):
        self.stages = stages
        self.labels = list(dict.fromkeys(name for name, _, _ in stages))
        self.spent: dict[str, float] = defaultdict(float)  # seconds
        self._inner = 0.0  # time taken by stages nested in the running one
        self._saved: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            outer, self._inner = self._inner, 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.spent[name] += took - self._inner
                self._inner = outer + took

        return run

    def timed(self, request: Callable[[], object], own: dict[str, list[float]]) -> float:
        """Run ``request``; append each stage's own ms, and the rest of
        it as ``other``, to ``own``; return the request's ms."""
        self.spent.clear()
        start = time.perf_counter()
        request()
        total = (time.perf_counter() - start) * 1000.0
        for name in self.labels:
            own[name].append(self.spent[name] * 1000.0)
        own["other"].append(total - sum(self.spent.values()) * 1000.0)
        return total

    def split(self, own: dict[str, list[float]]) -> str:
        return ", ".join(
            f"{name} {statistics.median(own[name]):.2f}" for name in [*self.labels, "other"]
        )

    def __enter__(self) -> "StageClock":
        for name, owner, attr in self.stages:
            fn = getattr(owner, attr)
            # An instance's method is shadowed by an instance attribute,
            # removed again on exit; a module's or class's is replaced.
            self._saved.append((owner, attr, fn, attr in vars(owner)))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._saved.clear()


#: The stages of a cold request timed in ``cold_split``: (label, owner,
#: attribute); the owner is a module's name, a class, or a name the
#: world resolves (``"db"``, ``"sieve"``, ``"rewriter"``).
COLD_STAGES = (
    ("front end", "sieve", "_statement"),
    ("candidates", "repro.core.generation", "generate_candidate_guards"),
    ("sweep", "repro.core.candidate_gen", "_sweep_merge"),
    ("selection", "repro.core.generation", "select_guards"),
    ("guard persistence", GuardStore, "_persist"),
    ("strategy", "repro.core.middleware", "choose_strategy"),
    ("rewrite", "rewriter", "rewrite"),
    ("bind", "repro.core.middleware", "bind_slots"),
    ("bind", "repro.core.middleware", "bind_expr"),
    ("plan.template", Planner, "prepare"),
    ("plan.bind", PlanTemplate, "bind"),
    ("guard-kernel build", VectorizedExecutor, "_guard_stage"),
    ("compile()", "builtins", "compile"),
    ("execute", "db", "run_plan"),
)

#: Per cold request at most this many of each count (``cold`` mode
#: exits non-zero above them): a quarter of what a cold request made
#: before guards carried their facts (312 and 617 on the canonical
#: world).  Counts, not times, so no host noise can trip them.
COLD_CEILINGS = {"selectivity_range": 78, "facts merges": 154}


@contextlib.contextmanager
def cold_counts() -> Iterator[Counter]:
    """A ``Counter`` of the work a cold request should not repeat, while
    open: histogram range estimates (``selectivity_range``), ``facts``
    merges (``analysis._merged``: a walk below an And/Or whose facts
    nobody stamped) and guard-branch renderings (a branch's source
    generated — by its shape key's first sighting, or for a branch
    with no key)."""
    from repro.expr import analysis
    from repro.optimizer.stats import EquiDepthHistogram

    counted: Counter = Counter()
    saved = [
        (EquiDepthHistogram, "selectivity_range", "selectivity_range"),
        (analysis, "_merged", "facts merges"),
    ]
    originals = [getattr(owner, attr) for owner, attr, _ in saved]
    real_render = CodegenExprCompiler._render_branch

    def counting(fn: Callable, name: str) -> Callable:
        def run(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        return run

    def render(self, test, emitter):
        counted["branch renderings"] += 1
        return real_render(self, test, emitter)

    for (owner, attr, name), fn in zip(saved, originals):
        setattr(owner, attr, counting(fn, name))
    CodegenExprCompiler._render_branch = render
    try:
        yield counted
    finally:
        for (owner, attr, _), fn in zip(saved, originals):
            setattr(owner, attr, fn)
        CodegenExprCompiler._render_branch = real_render


def cold_split(worlds: int) -> tuple[str, list[str]]:
    """The median cold request over ``worlds`` fresh instances of the
    canonical world (each querier's first request, single-threaded), its
    split — each stage's own time (:class:`StageClock`) and the rest of
    the request as ``other`` — and the share of the request the named
    stages hold; then ``compile()`` calls and the :func:`cold_counts`
    per cold request.  Medians over the requests.  Also returns the
    ``COLD_CEILINGS`` a cold request broke, one line each."""
    import importlib

    own: dict[str, list[float]] = defaultdict(list)
    totals: list[float] = []
    compiled: list[Counter] = []
    counts: list[Counter] = []
    for _round in range(worlds):
        world = CanonicalWorld()
        named = {"db": world.db, "sieve": world.sieve, "rewriter": world.sieve.rewriter}
        stages = [
            (
                name,
                named.get(owner) or importlib.import_module(owner) if isinstance(owner, str) else owner,
                attr,
            )
            for name, owner, attr in COLD_STAGES
        ]
        with compiles_counted() as compiles, cold_counts() as work, StageClock(stages) as clock:
            for request in world.cold_requests():
                compiles.clear()
                work.clear()
                totals.append(clock.timed(request, own))
                compiled.append(compiles.copy())
                counts.append(work.copy())
    attributed = [1.0 - other / total for other, total in zip(own["other"], totals)]
    names = ("selectivity_range", "facts merges", "branch renderings")
    broken = [
        f"a cold request made {most} {name} calls (ceiling {ceiling})"
        for name, ceiling in COLD_CEILINGS.items()
        if (most := max(c[name] for c in counts)) > ceiling
    ]
    return (
        f"cold request (first per querier, {len(totals)} over {worlds} worlds), median "
        f"{statistics.median(totals):.2f} ms; own time per stage, medians in ms, timed without "
        "cProfile: " + clock.split(own) + "\n"
        f"named stages hold {statistics.median(attributed):.1%} of a cold request (median)\n"
        f"compile() calls per cold request, median: {compile_counts(compiled)}\n"
        "per cold request, median (max): "
        + ", ".join(
            f"{name} {statistics.median(c[name] for c in counts):.0f} ({max(c[name] for c in counts)})"
            for name in names
        )
    ), broken


def churn_split(world: World, requests: list[tuple[str, Callable[[], object]]]) -> str:
    """Where a read after a policy write spends its time: run the churn
    schedule ``requests`` once with each stage's own time taken
    (:class:`StageClock`) — the release of the retired guards' compiled
    predicates, guard maintenance (or a scheduled regeneration),
    strategy choice, rewrite, planning's two phases, building the guard kernel
    around its cached branches, ``compile()``, execution and the rest —
    and the ``compile()`` calls per after-write read, dispatch shells
    (generated guard kernels) and guard branches (batch functions)
    counted apart.  Medians over the after-write reads."""
    db = world.mall.db
    stages = (
        ("release", db, "release_compiled"),
        ("guard maintenance", middleware, "maintain_guarded_expression"),
        ("guard maintenance", middleware, "build_guarded_expression"),
        ("strategy", middleware, "choose_strategy"),
        ("rewrite", world.sieve.rewriter, "rewrite"),
        ("plan.template", Planner, "prepare"),
        ("plan.bind", PlanTemplate, "bind"),
        ("guard-kernel build", VectorizedExecutor, "_guard_stage"),
        ("compile()", builtins, "compile"),
        ("execute", db, "run_plan"),
    )
    own: dict[str, list[float]] = defaultdict(list)
    totals: list[float] = []
    compiled: list[Counter] = []
    with compiles_counted() as counted, StageClock(stages) as clock:
        for kind, request in requests:
            if kind == "after_write":
                counted.clear()
                totals.append(clock.timed(request, own))
                compiled.append(counted.copy())
            else:
                request()
    return (
        f"read after a write ({len(totals)}), median {statistics.median(totals):.2f} ms; own time "
        "per stage, medians in ms, timed without cProfile: " + clock.split(own) + "\n"
        f"compile() calls per read after a write: {compile_counts(compiled, statistics.mean)}"
    )


LADDER = (150, 400, 1000, 2000)


def generation_ladder(world: World, repeats: int = 3) -> str:
    """Guard generation (candidates + selection) for one shop's corpus at
    each ``LADDER`` size, median of ``repeats``, and how it grows."""
    from repro.core.generation import build_guarded_expression

    db = world.mall.db
    stats = db.stats.get(db.catalog.table(TABLE))
    indexed = frozenset(db.catalog.indexed_columns(TABLE))
    taken: dict[int, float] = {}
    for n in LADDER:
        policies = mall_policies_for_shop(world.mall, world.shops[0], n)
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            build_guarded_expression(policies, stats, indexed)
            runs.append((time.perf_counter() - start) * 1000.0)
        taken[n] = statistics.median(runs)
    return (
        "guard generation, median of "
        f"{repeats} in ms: "
        + ", ".join(f"n{n} {ms:.1f}" for n, ms in taken.items())
        + f"; n400 / n150 = {taken[400] / taken[150]:.2f}, n2000 / n1000 = {taken[2000] / taken[1000]:.2f}"
    )


def path_name(node) -> str:
    column = getattr(node, "column", None)
    return type(node).__name__.removesuffix("Plan") + (f"({column})" if column else "")


def plan_regret(runs: int) -> str:
    """For every ``serve_warm`` (querier, SQL) pair, run each access
    path the planner weighs for the guarded scan in the plan it built
    (the rest of the plan unchanged): its cost units once, its wall
    time as the median of ``runs``.  One block per shape, then the
    regret summary."""
    from bench import workloads

    from repro.db.counters import CounterSet
    from repro.expr.analysis import conjuncts
    from repro.optimizer.planner import PlannedQuery, Planner

    world = CanonicalWorld()
    inputs, db, sieve = world.inputs, world.db, world.sieve
    planner = Planner(db.catalog, db.stats, db.personality)
    table = workloads.TABLE.lower()
    shapes = list(workloads.TEMPLATES)
    blocks: dict[str, dict] = {name: defaultdict(list) for name in shapes}
    regrets: list[float] = []
    agree = 0
    for i, (querier, sql) in enumerate(inputs.warm_pairs):
        block = blocks[shapes[i % len(shapes)]]
        decision = sieve.execute_with_info(sql, querier, workloads.PURPOSE).rewrite.decisions
        block["strategy"].append(decision[table].strategy.value)
        rewritten = sieve.rewrite(sql, querier, workloads.PURPOSE)
        (cte,) = [c for c in rewritten.ctes if c.query.body.from_items[0].name.lower() == table]
        planned = db.plan(rewritten)
        name = cte.name.lower()
        planned_path = path_name(planned.cte_plans[name])
        block["planned"].append(planned_path)
        measured = []
        for node in planner.access_paths(workloads.TABLE, name, conjuncts(cte.query.body.where)):
            variant = PlannedQuery(planned.root, {**planned.cte_plans, name: node})
            before = db.counters.snapshot()
            db.run_plan(variant)
            units = CounterSet.cost_of(db.counters.diff(before))
            taken = []
            for _ in range(runs):
                start = time.perf_counter()
                db.run_plan(variant)
                taken.append((time.perf_counter() - start) * 1000.0)
            measured.append((path_name(node), node.est_cost, units, statistics.median(taken)))
            block[path_name(node)].append(measured[-1][1:])
        chosen = next(m for m in measured if m[0] == planned_path)
        agree += chosen[2] <= min(m[2] for m in measured)
        regrets.append(chosen[3] / min(m[3] for m in measured))
    lines = []
    for shape, block in blocks.items():
        strategies = ", ".join(f"{s} x{n}" for s, n in sorted(Counter(block.pop("strategy")).items()))
        planned = ", ".join(f"{p} x{n}" for p, n in sorted(Counter(block.pop("planned")).items()))
        lines += [f"{shape}: Section 5.5 strategy {strategies}; planned {planned}"]
        lines += [f"  {'candidate':<20} {'est cost':>9} {'cost units':>11} {'wall ms':>8}   (medians over queriers)"]
        for path, rows in block.items():
            est, units, ms = (statistics.median(col) for col in zip(*rows))
            lines.append(f"  {path:<20} {est:9.1f} {units:11.1f} {ms:8.2f}")
    regrets.sort()
    lines.append(
        f"wall-clock regret (planned ÷ fastest path, {len(regrets)} pairs): "
        f"p50 {statistics.median(regrets):.2f}, p90 {regrets[int(0.9 * len(regrets))]:.2f}, "
        f"max {regrets[-1]:.2f}; planned = cost-unit argmin on {agree}/{len(regrets)}"
    )
    return "\n".join(lines)


def layer_of(filename: str) -> str:
    marker = "/src/repro/"
    at = filename.find(marker)
    if at < 0:
        return "(outside src/repro)"
    rest = filename[at + len(marker) :]
    return rest.split("/", 1)[0] if "/" in rest else rest


def report(profile: cProfile.Profile, n_requests: int, wall_s: float, top: int) -> str:
    stats = pstats.Stats(profile)
    own: dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tottime, _cum, _callers) in stats.stats.items():
        own[layer_of(filename)] += tottime
    lines = [
        f"{n_requests} requests, {wall_s / n_requests * 1000.0:.2f} ms each under cProfile",
        "",
        "own time per layer (ms per request):",
    ]
    for layer, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<22} {seconds / n_requests * 1000.0:8.3f}")
    lines += ["", f"top {top} functions by cumulative time (ms per request, calls per request):"]
    ranked = sorted(stats.stats.items(), key=lambda kv: -kv[1][3])
    shown = 0
    for (filename, line, name), (_cc, ncalls, _tot, cumtime, _callers) in ranked:
        if layer_of(filename).startswith("("):
            continue  # built-ins and this script's own driver frames
        where = filename[filename.find("/src/repro/") + len("/src/") :]
        lines.append(
            f"  {cumtime / n_requests * 1000.0:8.3f}  {ncalls / n_requests:9.1f}  {where}:{line} {name}"
        )
        shown += 1
        if shown >= top:
            break
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("fresh", "warm", "churn", "cold", "plans"), default="fresh")
    parser.add_argument(
        "-n",
        type=int,
        default=200,
        help="read requests to profile (default 200; cold: whole worlds of 12; plans: timed runs per path)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")

    print(f"mode={args.mode} seed={args.seed}")
    if args.mode == "plans":
        print(plan_regret(args.n))
        return 0
    if args.mode == "cold":
        worlds = -(-args.n // N_QUERIERS)
        report_text, broken = cold_split(worlds)
        print(report_text)
        print(generation_ladder(World(args.seed)))
        # A cold one more, for the profile.
        requests = [("read", request) for request in CanonicalWorld().cold_requests()]
        n = len(requests)
    else:
        world = World(args.seed)
        # One schedule, two passes (an even count of write cycles leaves the
        # churned corpus as it found it): timed plainly, then profiled.
        n = args.n + (-args.n) % (2 * READS_PER_WRITE) if args.mode == "churn" else args.n
        requests = make_requests(world, args.mode, n, args.seed)
        report_text, per_read = timed(requests)
        print(report_text)
        if args.mode == "warm" and (per_read.get("parse_query") or per_read.get("compile()")):
            print("FAIL: a warm read parsed or compiled", file=sys.stderr)
            return 1
        if args.mode == "warm":
            calls_text, broken = warm_branch_calls()
            print(calls_text)
            if broken:
                print("FAIL: " + "; ".join(broken), file=sys.stderr)
                return 1
        if args.mode == "fresh" and per_read.get("parse_query"):
            print("FAIL: a fresh read of a known shape was parsed", file=sys.stderr)
            return 1
        if args.mode == "fresh" and per_read.get("Planner.prepare"):
            print("FAIL: a fresh read of a known template ran phase 1 of planning", file=sys.stderr)
            return 1
        if args.mode == "churn":
            print(churn_split(world, requests))
        if args.mode == "fresh":
            # Literals are fresh once: each further pass binds its own.
            print(miss_path_split(world, make_requests(world, "fresh", n, args.seed + 1)))
            requests = make_requests(world, "fresh", n, args.seed + 2)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    for _kind, request in requests:
        request()
    profile.disable()
    wall_s = time.perf_counter() - start
    print(report(profile, n, wall_s, args.top))
    if args.mode == "cold" and broken:
        print("FAIL: " + "; ".join(broken), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
