"""Where one served request spends its time, by layer (profiling CLI).

Builds the Fig. 6 Mall world (~37 k ``WiFi_Connectivity`` rows, 12 shop
queriers x 150 policies) through the public API and drives the serving
tier's prepared path — parse, auto-parameterize, ``Sieve.prepare`` once
per (querier, shape), ``PreparedQuery.execute`` per request: what
``SieveServer`` does with a repeated shape — single-threaded under
``cProfile``.  Prints the median request time timed plainly, then the
mean under the profiler, the time spent inside each ``src/repro/<layer>``
(own time of its functions, so the column adds up) and the top functions
by cumulative time.  In ``fresh`` mode it also prints the miss-path
split, timed without the profiler — bind / strategy / rewrite / plan /
what a plan's first execution costs beyond a repeat — and the
``compile()`` calls per request.

Modes (the canonical benchmark's workloads, one thread, no queue):

* ``fresh`` — every request binds never-seen literals (each pass its
  own): plan-cache miss, so strategy choice, rewrite and planning run
  per request;
* ``warm``  — one fixed binding per (querier, shape): plan-cache hit;
* ``churn`` — [1 policy write, 5 reads]: the first read after a write
  brings the written querier's guards to the new corpus (maintenance,
  or every k-th insert a full regeneration) and re-plans;
* ``cold``  — each querier's first request, which generates its guards
  (Section 4) and compiles its kernels: the median over fresh worlds
  (``-n`` rounds up to whole worlds of 12 queriers) and its split,
  timed plainly — candidate generation besides the merge sweep, the
  sweep, selection, planning, ``compile()``, execution and the rest —
  then guard generation alone for one shop at 150 / 400 / 1 000 /
  2 000 policies and its growth, then one more world under cProfile.

Except in ``cold``, every querier and shape is executed once before the
profiled window, so guard generation and first-sight compilation are
not in it (except, in ``churn``, what the writes cause).  cProfile
inflates call heavy code; use it to find where time goes, and
``bench/run.py`` to measure a change.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import random
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.scenarios import mall_policies_for_shop  # noqa: E402
from repro.core import Sieve  # noqa: E402
from repro.datasets.mall import MallConfig, generate_mall  # noqa: E402
from repro.expr.params import parameterize_query  # noqa: E402
from repro.policy.store import PolicyStore  # noqa: E402
from repro.sql.parser import parse_query  # noqa: E402
from repro.sql.printer import to_sql  # noqa: E402

TABLE = "WiFi_Connectivity"
PURPOSE = "any"
N_QUERIERS = 12
POLICIES_PER_QUERIER = 150
READS_PER_WRITE = 5

#: The benchmark's four selective shapes: (SQL, ((axis, min width, max width), ...)).
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
)


class World:
    """The Mall database, its policy store, one ``Sieve`` and the
    prepared handles the serving tier would hold."""

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
        self._prepared: dict = {}

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
        """One request down the auto-prepared path; returns its row count."""
        querier = self.mall.shop_querier(shop)
        template, values = parameterize_query(parse_query(sql))
        key = (querier, to_sql(template))
        prepared = self._prepared.get(key)
        if prepared is None:
            prepared = self._prepared[key] = self.sieve.prepare(template, querier, PURPOSE)
        return len(prepared.execute(values).rows)


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


def timed(requests: list[tuple[str, Callable[[], object]]]) -> str:
    """Run ``requests`` once, unprofiled; the median time per read kind."""
    taken: dict[str, list[float]] = defaultdict(list)
    for kind, request in requests:
        start = time.perf_counter()
        request()
        taken[kind].append((time.perf_counter() - start) * 1000.0)
    names = {"read": "read", "after_write": "read after a write", "write": "policy write"}
    return "median, timed without cProfile: " + ", ".join(
        f"{names[kind]} {statistics.median(taken[kind]):.2f} ms (n={len(taken[kind])})"
        for kind in ("after_write", "read", "write")
        if taken[kind]
    )


def miss_path_split(world: World, requests: list[tuple[str, Callable[[], object]]]) -> str:
    """Where a plan-cache miss spends its time, stage by stage: run
    ``requests`` (fresh literals) once with a plain timer around each
    stage of ``_prepared_execute.build`` — no cProfile — and re-run
    every plan once more, so what the *first* execution of a plan costs
    beyond a repeat (kernel compilation) shows; plus ``compile()``
    calls per request.  Medians over the requests."""
    import builtins

    from repro.core import middleware

    taken: dict[str, list[float]] = defaultdict(list)
    compiles = [0]

    def stage(name: str, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                taken[name].append((time.perf_counter() - start) * 1000.0)

        return run

    db, rewriter = world.mall.db, world.sieve.rewriter
    run_plan = db.run_plan

    def run_twice(planned):
        result = stage("first execution", run_plan)(planned)
        stage("repeat execution", run_plan)(planned)
        return result

    def counting_compile(*args, **kwargs):
        compiles[0] += 1
        return real_compile(*args, **kwargs)

    real_compile = builtins.compile
    saved = (middleware.bind_query, middleware.choose_strategy)
    middleware.bind_query = stage("bind", saved[0])
    middleware.choose_strategy = stage("strategy", saved[1])
    rewriter.rewrite = stage("rewrite", rewriter.rewrite)
    db.plan, db.run_plan = stage("plan", db.plan), run_twice
    builtins.compile = counting_compile
    try:
        for _kind, request in requests:
            request()
    finally:
        builtins.compile = real_compile
        middleware.bind_query, middleware.choose_strategy = saved
        del rewriter.rewrite, db.plan, db.run_plan
    med = {name: statistics.median(times) for name, times in taken.items()}
    first_cost = med["first execution"] - med["repeat execution"]
    parts = [f"{name} {med[name]:.3f}" for name in ("bind", "strategy", "rewrite", "plan")]
    return (
        "miss path, medians in ms, timed without cProfile: "
        + ", ".join(parts)
        + f", first execution - repeat of the same plan {first_cost:.3f}"
        f" ({med['first execution']:.3f} - {med['repeat execution']:.3f});"
        f" compile() calls per request {compiles[0] / len(requests):.2f}"
    )


def cold_requests(world: World, seed: int) -> list[Callable[[], object]]:
    """Each querier's first request — the one that generates its guards —
    on a shape that cycles with the querier."""
    rng = random.Random(f"{seed}:cold")
    texts = [(shop, world.bind(i % len(SHAPES), shop, rng)) for i, shop in enumerate(world.shops)]
    return [lambda s=shop, t=text: world.serve(s, t) for shop, text in texts]


#: The stages of a cold request timed in ``cold_split``: (label, module, attribute).
COLD_STAGES = (
    ("candidates", "repro.core.generation", "generate_candidate_guards"),
    ("sweep", "repro.core.candidate_gen", "_sweep_merge"),
    ("selection", "repro.core.generation", "select_guards"),
    ("plan", None, "plan"),
    ("compile()", "builtins", "compile"),
    ("execute", None, "run_plan"),
)


def cold_split(worlds: int, seed: int) -> str:
    """The median cold request over ``worlds`` fresh worlds (each
    querier's first request, single-threaded), and its split: each
    stage's own time with a plain timer — a stage nested in another
    (the sweep inside candidate generation, ``compile()`` inside
    planning or execution) is taken out of the outer one — and the rest
    of the request as ``other``.  Medians over the requests."""
    import importlib

    own: dict[str, list[float]] = defaultdict(list)
    totals: list[float] = []
    for round_ in range(worlds):
        world = World(seed + round_)
        db = world.mall.db
        spent: dict[str, float] = defaultdict(float)
        inner = [0.0]  # time taken by stages nested in the running one

        def stage(name: str, fn: Callable) -> Callable:
            def run(*args, **kwargs):
                outer, inner[0] = inner[0], 0.0
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = time.perf_counter() - start
                    spent[name] += took - inner[0]
                    inner[0] = outer + took

            return run

        owners = [db if module is None else importlib.import_module(module) for _, module, _ in COLD_STAGES]
        saved = [getattr(owner, attr) for owner, (_, _, attr) in zip(owners, COLD_STAGES)]
        for owner, (name, _, attr), fn in zip(owners, COLD_STAGES, saved):
            setattr(owner, attr, stage(name, fn))
        try:
            for request in cold_requests(world, seed + round_):
                spent.clear()
                start = time.perf_counter()
                request()
                total = (time.perf_counter() - start) * 1000.0
                totals.append(total)
                for name, _, _ in COLD_STAGES:
                    own[name].append(spent[name] * 1000.0)
                own["other"].append(total - sum(spent.values()) * 1000.0)
        finally:
            for owner, (_, module, attr), fn in zip(owners, COLD_STAGES, saved):
                if module is None:
                    delattr(owner, attr)  # the instance attribute shadowed the method
                else:
                    setattr(owner, attr, fn)
    parts = [f"{name} {statistics.median(own[name]):.2f}" for name in [*(s[0] for s in COLD_STAGES), "other"]]
    return (
        f"cold request (first per querier, {len(totals)} over {worlds} worlds), median "
        f"{statistics.median(totals):.2f} ms; own time per stage, medians in ms, timed without "
        "cProfile: " + ", ".join(parts)
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
    parser.add_argument("--mode", choices=("fresh", "warm", "churn", "cold"), default="fresh")
    parser.add_argument(
        "-n", type=int, default=200, help="read requests to profile (default 200; cold: whole worlds of 12)"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")

    print(f"mode={args.mode} seed={args.seed}")
    if args.mode == "cold":
        worlds = -(-args.n // N_QUERIERS)
        print(cold_split(worlds, args.seed))
        world = World(args.seed + worlds)  # a cold one more, for the profile
        print(generation_ladder(world))
        requests = [("read", request) for request in cold_requests(world, args.seed + worlds)]
        n = len(requests)
    else:
        world = World(args.seed)
        # One schedule, two passes (an even count of write cycles leaves the
        # churned corpus as it found it): timed plainly, then profiled.
        n = args.n + (-args.n) % (2 * READS_PER_WRITE) if args.mode == "churn" else args.n
        requests = make_requests(world, args.mode, n, args.seed)
        print(timed(requests))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
