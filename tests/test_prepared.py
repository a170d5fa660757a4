"""The prepared-query tier: parameters, templates, and the plan cache.

Three layers under test:

* the SQL front end — ``?`` positional and ``:name`` parameters parse
  into :class:`~repro.expr.nodes.Param` nodes, print back, and refuse
  to execute unbound;
* :mod:`repro.expr.params` — binding-vector normalization, the
  identity-preserving binder, and the auto-parameterizer (predicate
  positions only: output shape stays inline);
* the :class:`~repro.core.cache.PlanCache` behind
  ``Sieve.prepare()`` — value-keyed memoization of the post-rewrite,
  post-plan artifact, fenced on the policy epoch and the catalog/stats
  ``plan_version``.

The invariant everything here defends: **a prepared execution is
indistinguishable from an unprepared one** — same rows, same
enforcement counters (:data:`repro.audit.AUDIT_COUNTERS`; cache
bookkeeping counters are zero-weight and excluded by design) — for
every workload (Mall, TIPPERS), every engine (vectorized, tuple
oracle, SQLite backend), and at every moment of a policy churn
(a stale plan is never served).
"""

from __future__ import annotations

import builtins
import dataclasses
import random
import sys
import threading
import time

import pytest
from conftest import (
    WIFI_COLUMNS,
    brute_force_allowed,
    make_owner_world,
    make_policies,
    make_wifi_db,
)
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import AUDIT_COUNTERS
from repro.backend import SqliteBackend
from repro.common.errors import ExecutionError, ParseError
from repro.core import Sieve
from repro.core.cost_model import SieveCostModel
from repro.core.guard_store import GUARD_TABLE, PARTITION_TABLE
from repro.core.regeneration import RegenerationController
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.db.database import connect
from repro.expr import analysis
from repro.expr.codegen import is_metered_or
from repro.expr.nodes import Or, Param
from repro.expr.params import (
    bind_query,
    collect_params,
    normalize_bindings,
    parameterize_query,
)
from repro.optimizer.cardinality import estimate_selectivity
from repro.optimizer.stats import ColumnStats
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.storage.schema import ColumnType, Schema

# --------------------------------------------------------- SQL front end


def test_positional_params_parse_print_roundtrip():
    sql = "SELECT a FROM t WHERE a = ? AND b < ?"
    query = parse_query(sql)
    params = collect_params(query)
    assert [p.index for p in params] == [0, 1]
    assert all(p.name is None for p in params)
    printed = to_sql(query)
    assert printed.count("?") == 2
    assert parse_query(printed) == query


def test_named_params_share_one_slot():
    query = parse_query("SELECT a FROM t WHERE a >= :lo AND b <= :lo AND c = :hi")
    params = collect_params(query)
    assert [(p.index, p.name) for p in params] == [(0, "lo"), (1, "hi")]
    printed = to_sql(query)
    assert printed.count(":lo") == 2 and printed.count(":hi") == 1
    assert parse_query(printed) == query


def test_bare_colon_is_a_parse_error():
    with pytest.raises(ParseError, match="parameter name"):
        parse_query("SELECT a FROM t WHERE a = :")


def test_unbound_param_refuses_to_execute():
    db = connect("mysql")
    db.create_table("t", Schema.of(("a", ColumnType.INT)))
    db.insert("t", [(1,), (2,)])
    for vectorized in (True, False):
        db.vectorized = vectorized
        with pytest.raises(ExecutionError, match="unbound parameter"):
            db.execute(parse_query("SELECT a FROM t WHERE a = ?"))


def test_normalize_bindings_validates_both_shapes():
    named = collect_params(parse_query("SELECT a FROM t WHERE a = :x AND b = :y"))
    with pytest.raises(ParseError, match="missing"):
        normalize_bindings(named, {"x": 1})
    with pytest.raises(ParseError):
        normalize_bindings(named, [1])  # arity mismatch
    mixed = collect_params(parse_query("SELECT a FROM t WHERE a = :x AND b = ?"))
    with pytest.raises(ParseError, match="positional"):
        normalize_bindings(mixed, {"x": 1})  # by-name needs all-named slots
    assert normalize_bindings(mixed, [1, 2]) == (1, 2)
    positional = collect_params(parse_query("SELECT a FROM t WHERE a = ? AND b = ?"))
    assert normalize_bindings(positional, [1, 2]) == (1, 2)
    with pytest.raises(ParseError):
        normalize_bindings(positional, {"x": 1})  # unnamed slots by name


def test_bind_query_substitutes_and_preserves_identity():
    query = parse_query("SELECT a, 7 AS k FROM t WHERE a < ? AND b IN (?, ?)")
    bound = bind_query(query, [10, 1, 2])
    assert collect_params(bound) == ()
    assert bound == parse_query("SELECT a, 7 AS k FROM t WHERE a < 10 AND b IN (1, 2)")
    # Param-free trees come back as the same object (the compiled-expr
    # cache's id-alias fast path depends on it).
    literal_only = parse_query("SELECT a FROM t WHERE a < 10")
    assert bind_query(literal_only, []) is literal_only


def test_auto_parameterizer_extracts_predicates_not_output_shape():
    query = parse_query(
        "SELECT a, 7 AS k FROM t WHERE a < 10 AND b BETWEEN 2 AND 5 "
        "GROUP BY a HAVING count(*) > 3 ORDER BY a LIMIT 4"
    )
    template, values = parameterize_query(query)
    # WHERE and HAVING literals become params; the SELECT item, the
    # LIMIT and the GROUP BY / ORDER BY shape stay inline.
    assert values == (10, 2, 5, 3)
    printed = to_sql(template)
    assert "7" in printed and "LIMIT 4" in printed
    assert printed.count("?") == 4
    # Rebinding the extracted values reproduces the original query.
    assert bind_query(template, values) == query


def test_parameterizing_a_parameterized_query_is_identity():
    query = parse_query("SELECT a FROM t WHERE a < ?")
    template, values = parameterize_query(query)
    assert template is query and values == ()


# ------------------------------------------------- plan cache semantics


def small_world(n_rows=400, n_owners=5):
    """Five policies for ``alice`` on owners 0-4 of ``t``.  With many
    more owners than that (``sparse_world``) the guards are far cheaper
    than a scan, so this MySQL personality picks IndexGuards and the
    rewrite becomes the UNION of per-guard index scans."""
    db = connect("mysql")
    db.create_table(
        "t",
        Schema.of(
            ("id", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("v", ColumnType.INT),
        ),
    )
    db.insert("t", [(i, i % n_owners, i * 7 % 1000) for i in range(n_rows)])
    db.create_index("t", "owner")
    db.create_index("t", "v")
    db.analyze()
    store = PolicyStore(db)
    for owner in range(5):
        store.insert(
            Policy(
                owner=owner,
                querier="alice",
                purpose="analytics",
                table="t",
                object_conditions=(
                    ObjectCondition("owner", "=", owner),
                    ObjectCondition("v", "<", 600),
                ),
            )
        )
    return db, store


def sparse_world():
    return small_world(n_rows=20_000, n_owners=2000)


def audit_diff(db, before):
    return {k: v for k, v in db.counters.diff(before).items() if k in AUDIT_COUNTERS}


def test_prepared_rows_and_counters_match_unprepared():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id, v FROM t WHERE v < ? ORDER BY id", "alice", "analytics")
    oracle_sql = "SELECT id, v FROM t WHERE v < 300 ORDER BY id"

    expected = sieve.execute(oracle_sql, "alice", "analytics")
    before = db.counters.snapshot()
    cold = prepared.execute([300])
    cold_diff = audit_diff(db, before)
    assert cold.rows == expected.rows

    before = db.counters.snapshot()
    warm = prepared.execute([300])
    warm_diff = audit_diff(db, before)
    assert warm.rows == expected.rows
    assert db.counters.diff(before)["plan_cache_hits"] == 1

    before = db.counters.snapshot()
    sieve.execute(oracle_sql, "alice", "analytics")
    unprepared_diff = audit_diff(db, before)
    assert warm_diff == unprepared_diff == cold_diff


def test_policy_epoch_bump_invalidates_but_never_breaks():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    prepared.execute([300])
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_hits"] == 1

    grant = store.insert(
        Policy(
            owner=0,
            querier="alice",
            purpose="analytics",
            table="t",
            object_conditions=(
                ObjectCondition("owner", "=", 0),
                ObjectCondition("v", ">=", 600, "<=", 999),
            ),
        )
    )
    before = db.counters.snapshot()
    widened = prepared.execute([2000])
    diff = db.counters.diff(before)
    assert diff["plan_cache_misses"] >= 1 and diff["plan_cache_hits"] == 0
    oracle = sieve.execute("SELECT id FROM t WHERE v < 2000", "alice", "analytics")
    assert widened.rows == oracle.rows

    store.delete(grant.id)
    narrowed = prepared.execute([2000])
    oracle = sieve.execute("SELECT id FROM t WHERE v < 2000", "alice", "analytics")
    assert narrowed.rows == oracle.rows
    assert len(narrowed.rows) < len(widened.rows)  # the grant mattered


def test_plan_version_bump_invalidates():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    prepared.execute([300])

    db.analyze("t")  # stats version bump
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_misses"] == 1

    prepared.execute([300])  # re-warm
    db.create_index("t", "id")  # schema version bump
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_misses"] == 1


def test_midstream_policy_churn_never_serves_stale_plans():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    inserted = []
    for round_no in range(4):
        for value in (250, 700):
            got = prepared.execute([value])
            oracle = sieve.execute(
                f"SELECT id FROM t WHERE v < {value}", "alice", "analytics"
            )
            assert got.rows == oracle.rows, (round_no, value)
        if round_no % 2 == 0:
            inserted.append(
                store.insert(
                    Policy(
                        owner=round_no % 5,
                        querier="alice",
                        purpose="analytics",
                        table="t",
                        object_conditions=(
                            ObjectCondition("owner", "=", round_no % 5),
                            ObjectCondition("v", ">=", 600, "<=", 650 + round_no),
                        ),
                    )
                )
            )
        elif inserted:
            store.delete(inserted.pop().id)
    assert sieve.plan_cache.stats.invalidations >= 1


@pytest.mark.parametrize("world", [small_world, sparse_world])
def test_policy_churn_retains_nothing_per_write(world):
    """200 alternating writes, each a *new* policy (a corpus no earlier
    epoch had), with reads in between, every one of them *maintained*
    (the selection schedule is put out of reach): the edited guard's
    superseded branch and the superseded ORs take their compiled
    predicates and their rGG/rGP rows with them, so the
    compiled-predicate cache, the plan cache, the guard store and its
    tables stay flat instead of gaining an AST and a kernel per write —
    under the single-SELECT rewrite and under MySQL's UNION of per-guard
    scans alike.  Then 60 more under the default schedule, which selects
    afresh every k̃-th insert: whichever of the two a write took, nothing
    accumulates."""
    db, store = world()
    never = SieveCostModel(cg=1e12)
    sieve = Sieve(db, store, regeneration=RegenerationController(never))
    union = "UNION" in sieve.rewritten_sql("SELECT id FROM t WHERE v < 300", "alice", "analytics")
    assert union == (world is sparse_world)
    shapes = [
        sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics"),
        sieve.prepare("SELECT COUNT(*) FROM t", "alice", "analytics"),
    ]

    def sizes():
        return (
            len(db._fn_cache),
            len(sieve.plan_cache),
            sieve.guard_store.cache_size(),
            db.catalog.table(GUARD_TABLE).row_count,
            db.catalog.table(PARTITION_TABLE).row_count,
        )

    def churn(writes, on_write):
        grant = None
        for write in range(writes):
            if grant is None:
                lo = 600 + write
                grant = store.insert(
                    Policy(
                        owner=write % 5,
                        querier="alice",
                        purpose="analytics",
                        table="t",
                        object_conditions=(
                            ObjectCondition("owner", "=", write % 5),
                            ObjectCondition("v", ">=", lo, "<=", lo + 40),
                        ),
                    )
                )
            else:
                store.delete(grant.id)
                grant = None
            infos = [shapes[0].execute_with_info([300]), shapes[1].execute_with_info()]
            # ... and the unprepared path.
            infos.append(sieve.execute_with_info("SELECT id FROM t WHERE v < 450", "alice", "analytics"))
            on_write(write, [table for info in infos for table in info.regenerated_tables])

    settled = {}

    def maintained(write, regenerated):
        assert regenerated == []
        # Compared with the same corpus shape two writes back: a grant
        # in place is one more policy in a partition.
        if write in (4, 5):
            settled[write % 2] = sizes()
        elif write > 5:
            assert sizes() == settled[write % 2], write

    churn(200, maintained)
    assert sieve.guard_store.peek("alice", "analytics", "t").maintained_inserts == 100

    sieve.regeneration = None  # Eq. 19 at the default constants
    regenerations = []
    ceiling = tuple(2 * n + 8 for n in settled[0])  # a selection may pick a few more guards

    def scheduled(write, regenerated):
        regenerations.extend(regenerated)
        assert all(n <= most for n, most in zip(sizes(), ceiling)), write

    churn(60, scheduled)
    assert 1 <= len(regenerations) <= 10


def test_writers_and_readers_hammer_matches_the_oracle_at_each_epoch():
    """Two writers churn ``prof``'s policies while six readers query:
    every reply equals the row-by-row oracle over the corpus of the
    epoch the reply says it planned against — whether that reader
    maintained the expression, met one a concurrent reader had just
    maintained (forwards, or back to an older snapshot's corpus), or
    hit a warm cache."""
    db, rows, _policies, sieve = wifi_world(100)
    store = sieve.policy_store
    store.retain_snapshots()
    prepared = sieve.prepare("SELECT id FROM wifi WHERE ts_date >= ?", "prof", "analytics")
    stop = threading.Event()
    replies, errors = [], []

    def writer(seed):
        rng = random.Random(seed)
        mine = []
        try:
            for _ in range(24):
                seen, waited = len(replies), time.monotonic()
                while len(replies) < seen + 3 and time.monotonic() - waited < 5:
                    time.sleep(0.0005)  # let a few reads land on each corpus
                if mine and rng.random() < 0.5:
                    store.delete(mine.pop(rng.randrange(len(mine))).id)
                else:
                    owner, lo = rng.randrange(40), rng.randrange(0, 1200)
                    conditions = [ObjectCondition("owner", "=", owner)]
                    if rng.random() < 0.7:
                        conditions.append(ObjectCondition("ts_time", ">=", lo, "<=", lo + 200))
                    mine.append(
                        store.insert(
                            Policy(owner=owner, querier="prof", purpose="analytics", table="wifi",
                                   object_conditions=tuple(conditions))
                        )
                    )
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def reader(seed):
        rng = random.Random(100 + seed)
        try:
            while not stop.is_set():
                day = rng.randrange(0, 80)
                if rng.random() < 0.5:
                    info = prepared.execute_with_info([day])
                else:
                    info = sieve.execute_with_info(
                        f"SELECT id FROM wifi WHERE ts_date >= {day}", "prof", "analytics"
                    )
                replies.append((info.policy_epoch, day, sorted(r[0] for r in info.result.rows)))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        writers = [threading.Thread(target=writer, args=(seed,)) for seed in range(2)]
        readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=120)
        stop.set()
        for t in readers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in readers + writers)
    finally:
        stop.set()
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert len({epoch for epoch, _day, _ids in replies}) >= 10
    allowed_at = {}
    for epoch, day, ids in replies:
        if epoch not in allowed_at:
            corpus = store.snapshot_at(epoch).policies_for("prof", "analytics", "wifi")
            allowed_at[epoch] = brute_force_allowed(rows, corpus, WIFI_COLUMNS)
        assert ids == sorted(r[0] for r in allowed_at[epoch] if r[4] >= day), (epoch, day)


# ------------------------------------- what a fresh-literal request pays
#
# The guarded expression is built once per (querier, purpose, relation);
# a request that binds never-seen literals to a known shape must pay for
# its own conjuncts only.  Its guard OR arrives as the same node every
# time, and the node carries the guard-sized answers (analysis facts,
# selectivity) while the compiled-expression cache holds its kernel.

FRESH_SHAPE = "SELECT id FROM wifi WHERE ts_time BETWEEN ? AND ? AND ts_date >= ?"
FRESH_CONJUNCTS = 2  # the BETWEEN and the comparison


def wifi_world(n_policies, personality="postgres"):
    """(db, rows, policies, sieve): the conftest WiFi table and
    ``n_policies`` policies for querier ``prof``."""
    db, rows = make_wifi_db(personality)
    per_owner = -(-n_policies // 40)  # the table has 40 owners
    policies = make_policies(n_owners=n_policies // per_owner, per_owner=per_owner)
    store = PolicyStore(db)
    store.insert_many(policies)
    return db, rows, policies, Sieve(db, store)


def guard_or_of(sieve):
    expression = sieve.guard_store.peek("prof", "analytics", "wifi")
    (guard_or,) = [
        e
        for e in expression.rendered_exprs()
        if isinstance(e, Or) and len(e.children) == len(expression.guards)
    ]
    return guard_or


def test_fresh_literals_compile_no_guard_kernel(monkeypatch):
    """After one execution of a shape, new literals trigger no
    ``compile()`` of the fused guard kernel or of a branch of it, and
    200 of them leave the compiled-expression cache with the
    guard-holding entries it had — the guard OR's stage and one per
    branch whose partition is metered (PR 14's parent added a
    100-policy kernel per request)."""
    db, _rows, _policies, sieve = wifi_world(100)
    prepared = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    prepared.execute([100, 400, 3])
    assert db.counters.expr_cache_misses > 0
    cache = db._fn_cache

    def guard_sized():
        return [
            entry
            for entry in cache._entries
            if any(is_metered_or(part, db.counters) for part in analysis.conjuncts(entry.expr))
        ]

    held = guard_sized()
    assert [entry.extra[1] for entry in held].count("stage") == 1
    assert {entry.extra[1] for entry in held} <= {"stage", "branch"}

    guard_kernels = []
    real_compile = builtins.compile

    def counting_compile(source, *args, **kwargs):
        if isinstance(source, str) and ("policy_evals += _n" in source or "(_r):" in source):
            guard_kernels.append(source)
        return real_compile(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    before = len(cache)
    rng = random.Random(5)
    fresh = 200
    for _ in range(fresh):
        lo = rng.randrange(0, 1000)
        prepared.execute([lo, lo + rng.randrange(1, 400), rng.randrange(0, 60)])
    assert guard_kernels == []
    assert guard_sized() == held
    # A binding adds nothing: its conjuncts run the kernels of their shapes.
    assert len(cache) == before


def _fresh_request_work(monkeypatch, n_policies):
    """(analysis steps, histogram look-ups, guard OR) of one request
    with new literals, after one execution of the shape."""
    _db, _rows, _policies, sieve = wifi_world(n_policies)
    prepared = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    prepared.execute([100, 400, 3])
    counts = {"analysis": 0, "histogram": 0}
    real_walk, real_facts = analysis.walk, analysis.facts

    def counting_walk(expr):
        counts["analysis"] += 1  # recursion re-enters through the module global
        return real_walk(expr)

    def counting_facts(expr):
        counts["analysis"] += 1
        return real_facts(expr)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "walk", counting_walk)
        patch.setattr(sys.modules["repro.core.rewriter"], "walk", counting_walk)
        patch.setattr(analysis, "facts", counting_facts)
        for name in ("selectivity_eq", "selectivity_range", "selectivity_in"):
            real = getattr(ColumnStats, name)

            def counting(self, *args, _real=real, **kwargs):
                counts["histogram"] += 1
                return _real(self, *args, **kwargs)

            patch.setattr(ColumnStats, name, counting)
        prepared.execute([120, 500, 5])
    return counts["analysis"], counts["histogram"], guard_or_of(sieve)


def test_fresh_request_analysis_is_query_sized(monkeypatch):
    """Tree walks and histogram look-ups of a fresh-literal request do
    not grow with the policy count (the parent: 1 375 vs 6 763 walk
    steps and 110 vs 486 look-ups on these two queriers)."""
    query_nodes = len(list(analysis.walk(parse_query(FRESH_SHAPE).body.where))) + 1
    per_node = 16  # passes over the query: rewrite, two plans, executor
    for n_policies in (50, 400):
        steps, lookups, guard_or = _fresh_request_work(monkeypatch, n_policies)
        assert steps <= per_node * query_nodes, (n_policies, steps)
        # Two per query conjunct (strategy choice, access path); the
        # BitmapOr arms are remembered on the guard's branches.
        assert guard_or is not None
        assert lookups <= 2 * FRESH_CONJUNCTS, (n_policies, lookups)


def _miss_path_work(monkeypatch, n_policies, fresh=200):
    """What ``fresh`` never-seen bindings of one shape cost beyond their
    own literals, after one warm-up binding: a count per kind of work."""
    import copy

    from repro.core import strategy as strategy_module
    from repro.optimizer import planner as planner_module

    db, _rows, _policies, sieve = wifi_world(n_policies)
    prepared = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    prepared.execute([100, 400, 3])
    counts = {"compile": 0, "best_arm": 0, "expected_pages": 0, "histogram": 0, "deepcopy": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    cache_before, aliases_before = len(db._fn_cache), len(db._fn_cache._id_alias)
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "compile", counting("compile", builtins.compile))
        patch.setattr(
            planner_module.Planner, "_best_arm", counting("best_arm", planner_module.Planner._best_arm)
        )
        for module in (planner_module, strategy_module):
            patch.setattr(module, "expected_pages", counting("expected_pages", module.expected_pages))
        for name in ("selectivity_eq", "selectivity_range", "selectivity_in"):
            patch.setattr(ColumnStats, name, counting("histogram", getattr(ColumnStats, name)))
        patch.setattr(copy, "deepcopy", counting("deepcopy", copy.deepcopy))
        rng = random.Random(9)
        for _ in range(fresh):
            lo = rng.randrange(0, 1000)
            prepared.execute([lo, lo + rng.randrange(1, 400), rng.randrange(0, 60)])
    counts["cache_growth"] = len(db._fn_cache) - cache_before
    counts["alias_growth"] = len(db._fn_cache._id_alias) - aliases_before
    return counts


def test_miss_path_work_is_the_literals_own(monkeypatch):
    """Over 200 fresh bindings nothing guard-sized, copy-sized or
    ``compile()``-sized is done, and a querier with eight times the
    policies does exactly the same work: no ``compile()``, no cache
    entry or id-alias, no BitmapOr arm derived, no ``deepcopy``; page estimates and
    histogram look-ups only for the query's own conjuncts — each once in
    strategy choice and once in access-path choice."""
    fresh = 200
    small = _miss_path_work(monkeypatch, 50, fresh)
    for kind in ("compile", "cache_growth", "alias_growth", "best_arm", "deepcopy"):
        assert small[kind] == 0, (kind, small)
    assert 0 < small["expected_pages"] <= 2 * FRESH_CONJUNCTS * fresh  # both conjuncts are sargable
    assert 0 < small["histogram"] <= 2 * FRESH_CONJUNCTS * fresh
    assert _miss_path_work(monkeypatch, 400, fresh) == small



def test_analyze_between_requests_reestimates_the_guard():
    """The guard OR remembers its selectivity with the TableStats it was
    computed from; ANALYZE makes a new object, so the next plan
    estimates again — from the new histograms."""
    db, rows, _policies, sieve = wifi_world(100)
    prepared = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    prepared.execute([100, 400, 3])
    guard_or = guard_or_of(sieve)
    old_stats = db.table_stats("wifi")
    stats_ref, old_sel = guard_or.__dict__["_selectivity"]
    assert stats_ref() is old_stats

    # Skew the table towards one owner's guard, within the staleness
    # ratio so only the explicit ANALYZE rebuilds statistics.
    owner = rows[0][2]
    db.insert("wifi", [(10_000 + i, 1, owner, 700, 30) for i in range(600)])
    db.analyze()
    new_stats = db.table_stats("wifi")
    assert new_stats is not old_stats
    prepared.execute([120, 500, 5])
    assert guard_or_of(sieve) is guard_or  # same epoch, same node
    stats_ref, new_sel = guard_or.__dict__["_selectivity"]
    assert stats_ref() is new_stats
    assert new_sel != old_sel
    unremembered = Or(tuple(Or(b.children) if isinstance(b, Or) else b for b in guard_or.children))
    assert new_sel == pytest.approx(estimate_selectivity(unremembered, new_stats))


def test_fresh_literal_hammer_matches_the_oracle():
    """Eight threads bind fresh literals on one querier while the
    node-attached memos and the per-conjunct kernel cache fill: every
    reply equals the row-by-row oracle."""
    db, rows, policies, sieve = wifi_world(100)
    prepared = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    allowed = brute_force_allowed(rows, policies, WIFI_COLUMNS)
    failures = []

    def client(seed):
        rng = random.Random(seed)
        for _ in range(25):
            lo = rng.randrange(0, 1000)
            hi, day = lo + rng.randrange(1, 400), rng.randrange(0, 60)
            got = sorted(r[0] for r in prepared.execute([lo, hi, day]).rows)
            want = sorted(r[0] for r in allowed if lo <= r[3] <= hi and r[4] >= day)
            if got != want:
                failures.append((seed, lo, hi, day))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert failures == []


# ------------------------------------------------- one test per stamp
#
# Strategy terms are remembered on the guarded expression, BitmapOr arms
# and selectivities on the guard's branch nodes — each with a stamp for
# what it was computed from besides the node.  Between two fresh
# bindings of one shape the world changes under the long-lived Sieve;
# its next request must plan, decide and answer exactly as a Sieve built
# at that moment on the same database and corpus — one that holds the
# same guards (selection is not what is under test: new indexes or
# statistics would legitimately select others) as brand-new objects, so
# nothing of it has been planned or costed before.  Each test fails if
# the stamp it names is no longer checked.


def _observe_request(db, prepared, values):
    """(plan shape, decisions, rows) of one execution: the plan it built."""
    plans = []
    real_plan = db.plan
    db.plan = lambda query: plans.append(real_plan(query)) or plans[-1]
    try:
        execution = prepared.execute_with_info(values)
    finally:
        del db.plan
    decisions = {
        table: (d.strategy, d.query_index_column, d.delta_guards, d.costs,
                d.guard_est_rows, d.measured_guards)
        for table, d in execution.rewrite.decisions.items()
    }
    (planned,) = plans
    return _plan_shape(planned), decisions, sorted(execution.result.rows)


def _assert_as_if_built_now(monkeypatch, db, sieve, values, rows, policies):
    """The long-lived ``sieve``'s request on never-seen ``values``
    equals a new Sieve's over copies of the same guards, and the
    row-by-row oracle's."""
    from repro.core import middleware as middleware_module

    long_lived = _observe_request(db, sieve.prepare(FRESH_SHAPE, "prof", "analytics"), values)
    held = sieve.guard_store.peek("prof", "analytics", "wifi")
    copied = dataclasses.replace(held, guards=[dataclasses.replace(g) for g in held.guards])
    with monkeypatch.context() as patch:
        patch.setattr(middleware_module, "build_guarded_expression", lambda *a, **k: copied)
        twin = Sieve(db, sieve.policy_store, cost_model=sieve.cost_model)
        built_now = _observe_request(db, twin.prepare(FRESH_SHAPE, "prof", "analytics"), values)
    assert long_lived == built_now
    lo, hi, day = values
    allowed = brute_force_allowed(rows, policies, WIFI_COLUMNS)
    assert long_lived[2] == sorted((r[0],) for r in allowed if lo <= r[3] <= hi and r[4] >= day)
    return long_lived


def _stale_world(n_policies=100):
    db, rows, policies, sieve = wifi_world(n_policies)
    sieve.prepare(FRESH_SHAPE, "prof", "analytics").execute([100, 400, 3])  # memos fill
    return db, rows, policies, sieve


def test_dropping_and_creating_a_guard_index_rederives_the_arms(monkeypatch):
    """Stamp: the catalog's version on a branch's remembered arm."""
    db, rows, policies, sieve = _stale_world(20)  # few guards: the BitmapOr is the plan chosen
    plan, _d, _r = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 420, 4], rows, policies)
    assert "BitmapOr" in repr(plan)
    warm = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    db.catalog.drop_index("wifi", "idx_wifi_owner")  # not through the facade: the catalog counts it
    assert warm.execute([150, 420, 4]).rows  # the cached plan named the index: planned again
    plan, _d, _r = _assert_as_if_built_now(monkeypatch, db, sieve, [160, 430, 5], rows, policies)
    assert "idx_wifi_owner" not in repr(plan)
    db.create_index("wifi", "owner")
    plan, _d, _r = _assert_as_if_built_now(monkeypatch, db, sieve, [170, 440, 6], rows, policies)
    assert "idx_wifi_owner" in repr(plan)


def test_analyze_restamps_strategy_terms_and_arms(monkeypatch):
    """Stamp: the ``TableStats`` weak reference (on both memos)."""
    db, rows, policies, sieve = _stale_world(20)  # the BitmapOr is chosen: its arms' figures show
    before = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 420, 4], rows, policies)
    assert "BitmapOr" in repr(before[0])
    owner = policies[0].owner  # skew the table towards one guard, within the staleness ratio
    extra = [(10_000 + i, 1, owner, 700, 30) for i in range(600)]
    db.insert("wifi", extra)
    db.analyze()
    after = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 421, 4], rows + extra, policies)
    assert after[1]["wifi"][3] != before[1]["wifi"][3]  # the costs moved with the statistics


def test_an_observation_is_never_served_a_remembered_figure(monkeypatch):
    """Stamp: no strategy memo while the cost model holds a profile."""
    db, rows, policies, sieve = _stale_world()
    before = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 420, 4], rows, policies)
    expression = sieve.guard_store.peek("prof", "analytics", "wifi")
    for i in range(len(expression.guards)):
        sieve.cost_model.observe("wifi", expression.guard_key(i), 0.0)
    after = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 421, 4], rows, policies)
    assert after[1]["wifi"][5] == len(expression.guards)  # every guard costed as measured
    assert after[1]["wifi"][0] != before[1]["wifi"][0]  # and the strategy flipped
    for _ in range(8):  # the moving average climbs back
        sieve.cost_model.observe("wifi", expression.guard_key(0), 4000.0)
    again = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 422, 4], rows, policies)
    assert again[1]["wifi"][3] != after[1]["wifi"][3]


def test_a_new_cost_model_recomputes_the_delta_set(monkeypatch):
    """Stamp: the cost model's identity."""
    db, rows, policies, sieve = _stale_world(400)
    before = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 420, 4], rows, policies)
    sieve.cost_model = SieveCostModel(udf_invocation=0.0, udf_per_policy=0.0)  # Δ always wins
    after = _assert_as_if_built_now(monkeypatch, db, sieve, [150, 421, 4], rows, policies)
    assert after[1]["wifi"][2] and after[1]["wifi"][2] != before[1]["wifi"][2]


def test_a_policy_write_rederives_one_arm(monkeypatch):
    """Maintenance shares every guard a write did not touch — branch
    node, remembered arm and all: the request after an insert (and
    after the delete that undoes it) derives exactly one arm."""
    from repro.optimizer.planner import Planner

    db, rows, policies, sieve = _stale_world()
    store = sieve.policy_store
    derived = []
    real = Planner._best_arm
    monkeypatch.setattr(
        Planner, "_best_arm", lambda self, *a: derived.append(a[1]) or real(self, *a)
    )
    prepared = sieve.prepare(FRESH_SHAPE, "prof", "analytics")
    prepared.execute([150, 420, 4])
    assert derived == []
    written = store.insert(
        Policy(
            owner=7, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 7), ObjectCondition("ts_date", "=", 12)),
        )
    )
    execution = prepared.execute_with_info([151, 420, 4])
    assert execution.regenerated_tables == [] and len(derived) == 1
    del derived[:]
    store.delete(written.id)
    execution = prepared.execute_with_info([152, 420, 4])
    assert execution.regenerated_tables == [] and len(derived) == 1
    monkeypatch.undo()
    _assert_as_if_built_now(monkeypatch, db, sieve, [153, 420, 4], rows, policies)


def test_session_refresh_drops_plan_entries():
    db, store = small_world()
    sieve = Sieve(db, store)
    session = sieve.session("alice", "analytics")
    prepared = session.prepare("SELECT id FROM t WHERE v < ?")
    prepared.execute([300])
    assert session.refresh() >= 1
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_misses"] == 1


def test_plan_cache_lru_evicts_at_capacity():
    db, store = small_world()
    sieve = Sieve(db, store, plan_cache_capacity=2)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    for value in (100, 200, 300):  # three value-keyed entries, capacity 2
        prepared.execute([value])
    assert sieve.plan_cache.stats.evictions >= 1
    before = db.counters.snapshot()
    prepared.execute([300])  # most recent entry survived
    assert db.counters.diff(before)["plan_cache_hits"] == 1


def test_server_auto_prepares_repeated_shapes():
    from repro.service import SieveServer

    db, store = small_world()
    sieve = Sieve(db, store)
    oracle_sieve = Sieve(db, store)
    who = ("alice", "analytics")
    sql = "SELECT id FROM t WHERE v < {} ORDER BY id".format
    stats = sieve.plan_cache.stats
    with SieveServer(sieve, workers=2) as server:
        # A shape is prepared at first sight: the first request is a
        # plan-cache miss that admits, its repeat is a hit.
        for _ in range(2):
            got = server.execute(sql(300), *who, timeout=60)
            assert got.rows == oracle_sieve.execute(sql(300), *who).rows
        assert (stats.misses, stats.hits, len(sieve.plan_cache)) == (1, 1, 1)
        # A fresh literal is the same shape: one more miss, no new handle.
        server.execute(sql(301), *who, timeout=60)
        assert (stats.misses, stats.hits) == (2, 1)
        assert len(server._prepared) == 1
        thresholds = [(i * 53) % 400 for i in range(12)]
        got = server.execute_many([sql(t) for t in thresholds], *who, timeout=60)
        assert [r.rows for r in got] == [oracle_sieve.execute(sql(t), *who).rows for t in thresholds]
        assert stats.misses + stats.hits == 15 and len(server._prepared) == 1
        # What cannot be prepared falls through to Sieve.execute and
        # raises what it raises.
        for bad in ("DELETE FROM t", "SELEC id FROM t", "SELECT id FROM t WHERE v < ?"):
            with pytest.raises(Exception) as direct:
                oracle_sieve.execute(bad, *who)
            with pytest.raises(type(direct.value)) as served:
                server.execute(bad, *who, timeout=60)
            assert str(served.value) == str(direct.value)
        assert stats.misses + stats.hits == 15 and len(server._prepared) == 1


@pytest.mark.parametrize("change", ["first-policy", "protect"])
def test_a_relation_becoming_protected_reaches_warm_plans(change):
    """A policy-less querier's cached plan on an unprotected relation is
    the *unrewritten* query; when the relation becomes protected — its
    first policy (someone else's), or an explicit ``protect`` — that
    plan must be dropped, not re-stamped as an unrelated querier's,
    through the held handle and through the server alike."""
    from repro.service import SieveServer

    db, store, policy = make_owner_world(with_policy=False)
    sieve = Sieve(db, store)
    held = sieve.prepare("SELECT * FROM t", "bob", "analytics")
    with SieveServer(sieve, workers=1) as server:
        for _ in range(2):  # cached, and served from the cache
            assert len(held.execute().rows) == 50
            assert len(server.execute("SELECT id FROM t", "bob", "analytics", timeout=60).rows) == 50
        assert len(sieve.plan_cache) == 2 and sieve.plan_cache.stats.hits == 2
        if change == "protect":
            store.protect("t")
        else:
            store.insert(policy)
        assert held.execute().rows == []
        assert server.execute("SELECT id FROM t", "bob", "analytics", timeout=60).rows == []
        # Dropped at their lookup and rebuilt — a re-stamped entry would have hit.
        stats = sieve.plan_cache.stats
        assert (stats.hits, stats.misses) == (2, 4)


# ----------------------------- the differential property (all engines)


@pytest.fixture(scope="module")
def prepared_mall():
    mall = generate_mall(MallConfig(seed=19, n_shops=12, n_customers=80, days=8))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    backend = SqliteBackend().ship(mall.db)
    return {
        "db": mall.db,
        "table": CONNECTIVITY_TABLE,
        "querier": mall.shop_querier(mall.shops[0]),
        "purpose": "any",
        "sieve": Sieve(mall.db, store),
        "sieve_backend": Sieve(mall.db, store, backend=backend),
    }


@pytest.fixture(scope="module")
def prepared_tippers():
    dataset = generate_tippers(TippersConfig(seed=23, n_devices=80, days=8))
    campus = generate_campus_policies(dataset, PolicyGenConfig(seed=24))
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    backend = SqliteBackend().ship(dataset.db)
    return {
        "db": dataset.db,
        "table": WIFI_TABLE,
        "querier": campus.designated_queriers["faculty"][0],
        "purpose": "analytics",
        "sieve": Sieve(dataset.db, store),
        "sieve_backend": Sieve(dataset.db, store, backend=backend),
    }


def _roundtrip_one(world, engine, sql):
    """Auto-parameterize → prepare → rebind must equal the unprepared
    execution in rows AND enforcement counters, cold and warm."""
    db = world["db"]
    sieve = world["sieve_backend"] if engine == "sqlite" else world["sieve"]
    saved = db.vectorized
    db.vectorized = engine != "tuple"
    try:
        querier, purpose = world["querier"], world["purpose"]
        before = db.counters.snapshot()
        expected = sieve.execute(sql, querier, purpose)
        expected_diff = audit_diff(db, before)

        template, values = parameterize_query(parse_query(sql))
        prepared = sieve.prepare(template, querier, purpose)
        for _ in range(2):  # cold fill, then the warm plan-cache hit
            before = db.counters.snapshot()
            got = prepared.execute(values)
            assert got.rows == expected.rows, (engine, sql)
            assert audit_diff(db, before) == expected_diff, (engine, sql)
    finally:
        db.vectorized = saved


ENGINES = ["vectorized", "tuple", "sqlite"]


@pytest.mark.parametrize("engine", ENGINES)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    date_lo=st.integers(min_value=0, max_value=7),
    date_span=st.integers(min_value=0, max_value=7),
    time_lo=st.integers(min_value=0, max_value=1380),
    shape=st.integers(min_value=0, max_value=2),
)
def test_prepared_roundtrip_property(
    prepared_mall, prepared_tippers, engine, date_lo, date_span, time_lo, shape
):
    for world in (prepared_mall, prepared_tippers):
        table = world["table"]
        if shape == 0:
            sql = (
                f"SELECT * FROM {table} "
                f"WHERE ts_date BETWEEN {date_lo} AND {date_lo + date_span}"
            )
        elif shape == 1:
            sql = (
                f"SELECT * FROM {table} "
                f"WHERE ts_time >= {time_lo} AND ts_time <= {time_lo + 120}"
            )
        else:
            sql = (
                f"SELECT count(*) AS n FROM {table} "
                f"WHERE ts_date >= {date_lo} OR ts_time < {time_lo}"
            )
        _roundtrip_one(world, engine, sql)

# ------------------------- memo cold == memo warm (one differential)
#
# Node-attached memos (analysis facts, guard selectivity, per-guard
# branches) and per-conjunct kernels make the n-th request on a
# long-lived world take shortcuts the first request on a new world
# cannot.  Both must produce the same rows, enforcement counters,
# strategy and plan — estimates and access paths.


def _memo_world(dataset, personality, delta):
    # Δ on: a free UDF wins every partition without derived conditions.
    cost_model = SieveCostModel(udf_invocation=0.0, udf_per_policy=0.0) if delta else None
    if dataset == "mall":
        mall = generate_mall(
            MallConfig(seed=19, n_shops=12, n_customers=80, days=8, personality=personality)
        )
        db, groups, policies = mall.db, mall.groups, mall.policies
        table, purpose = CONNECTIVITY_TABLE, "any"
        queriers = [mall.shop_querier(shop) for shop in mall.shops[:3]]
    else:
        tippers = generate_tippers(
            TippersConfig(seed=23, n_devices=80, days=8, personality=personality)
        )
        campus = generate_campus_policies(tippers, PolicyGenConfig(seed=24))
        db, groups, policies = tippers.db, tippers.groups, campus.policies
        table, purpose = WIFI_TABLE, "analytics"
        queriers = campus.designated_queriers["faculty"][:3]
    store = PolicyStore(db, groups)
    store.insert_many(policies)
    return {
        "db": db,
        "table": table,
        "purpose": purpose,
        "queriers": queriers,
        "sieve": Sieve(db, store, cost_model=cost_model),
    }


_LONG_LIVED: dict = {}

MEMO_SHAPES = (
    "SELECT * FROM {table} WHERE ts_date BETWEEN ? AND ?",
    "SELECT * FROM {table} WHERE ts_time >= ? AND ts_time <= ?",
    "SELECT count(*) AS n FROM {table} WHERE ts_date >= ? OR ts_time < ?",
)


def _plan_shape(planned):
    def shape(node):
        return (
            node.node_name,
            node.describe(),
            node.est_rows,
            node.est_cost,
            tuple(shape(child) for child in node.children() if child is not None),
        )

    return shape(planned.root), {name: shape(plan) for name, plan in planned.cte_plans.items()}


def _observe(world, run):
    """(rows, enforcement counters, decisions) of one execution, and
    the rewritten query it ran."""
    db = world["db"]
    before = db.counters.snapshot()
    execution = run()
    counters = audit_diff(db, before)
    decisions = {
        table: (d.strategy, d.query_index_column, d.delta_guards, d.costs)
        for table, d in execution.rewrite.decisions.items()
    }
    return (execution.result.rows, counters, decisions), execution.rewrite.rewritten


@pytest.mark.parametrize("delta", [False, True], ids=["inline", "delta"])
@pytest.mark.parametrize("personality", ["postgres", "mysql"])
@pytest.mark.parametrize("engine", ["vectorized", "tuple"])
@settings(max_examples=4, deadline=None)
@given(
    shape=st.integers(min_value=0, max_value=len(MEMO_SHAPES) - 1),
    who=st.integers(min_value=0, max_value=2),
    bindings=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=1439)),
        min_size=1,
        max_size=3,
    ),
)
def test_memo_cold_equals_memo_warm(engine, personality, delta, shape, who, bindings):
    for dataset in ("mall", "tippers"):
        key = (dataset, personality, delta)
        live = _LONG_LIVED.get(key)
        if live is None:
            live = _LONG_LIVED[key] = _memo_world(*key)
        cold = _memo_world(*key)
        template = MEMO_SHAPES[shape].format(table=live["table"])
        querier = live["queriers"][who % len(live["queriers"])]
        purpose = live["purpose"]
        for world in (live, cold):
            world["db"].vectorized = engine != "tuple"
        prepared = live["sieve"].prepare(template, querier, purpose)
        for date, minute in bindings:
            values = {0: (date, date + 2), 1: (minute, minute + 120), 2: (date, minute)}[shape]
            warm, rewritten = _observe(live, lambda: prepared.execute_with_info(values))
        warm_plan = _plan_shape(live["db"].plan(rewritten))
        bound = to_sql(bind_query(prepared.template, values))
        # The new world plans before it executes: that plan met no memo.
        cold_plan = _plan_shape(cold["db"].plan(cold["sieve"].rewrite(bound, querier, purpose)))
        first, _ = _observe(cold, lambda: cold["sieve"].execute_with_info(bound, querier, purpose))
        assert warm == first, (dataset, bound)
        assert warm_plan == cold_plan, (dataset, bound)
