"""Guarded expressions maintained under policy writes.

A write does not regenerate the written querier's guarded expression:
the expression is *edited* — the policy leaves or joins a partition —
and everything the write did not touch is shared with the predecessor
by identity.  The property here is the one that makes that safe: over
three worlds (the conftest WiFi world, TIPPERS-small, the golden Mall
corpus) and any sequence of inserts, deletes and updates,

* ``Sieve.execute`` returns exactly the rows some current policy
  permits (``brute_force_allowed``) after every step;
* partitions stay disjoint and cover the corpus;
* a guard the step did not touch keeps its branch AST — inlined and Δ —
  as the very same object;
* the persisted rGG/rGP rows describe the maintained expression;
* and once the corpus is back where it started, a forced regeneration
  selects the recorded golden guards: maintenance leaves nothing behind
  that selection could trip over.
"""

from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Sieve
from repro.core.cost_model import SieveCostModel
from repro.core.delta import DELTA_UDF_NAME
from repro.core.candidate_gen import condition_cardinality
from repro.core.generation import maintain_guarded_expression
from repro.core.guards import Guard
from repro.core.regeneration import RegenerationController
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.tippers import WIFI_TABLE
from repro.policy.groups import GroupDirectory
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore

from tests.conftest import brute_force_allowed, make_policies, make_tippers_small, make_wifi_db
from tests.test_golden_guards import GOLDEN, mall_policies

#: Selection is out of reach, so every write in a sequence is maintained.
NEVER = SieveCostModel(cg=1e12)


class World:
    """One database, one querier's corpus, and what inserts may draw on."""

    def __init__(self, golden, db, store, table, querier, purpose, group, time_span, date_span):
        self.golden = golden  # its entry in tests/data/golden_guards.json
        self.db, self.store, self.table = db, store, table
        self.querier, self.purpose, self.group = querier, purpose, group
        self.time_span, self.date_span = time_span, date_span
        heap = db.catalog.table(table)
        self.columns = list(heap.schema.names)
        self.owner_at = [c.lower() for c in self.columns].index("owner")
        self.rows = [tuple(row) for _rowid, row in heap.scan()]
        self.original = self.policies()
        owners = sorted({row[self.owner_at] for row in self.rows})
        held = {p.owner for p in self.original}
        #: Owners with rows but no policy: "outside every guard".
        self.strangers = [o for o in owners if o not in held][:6]
        self.owners = sorted(held)[:12] + self.strangers

    def policies(self) -> list[Policy]:
        return self.store.policies_for(self.querier, self.purpose, self.table)

    def sieve(self) -> Sieve:
        return Sieve(
            self.db, self.store, regeneration=RegenerationController(NEVER)
        )

    def allowed(self) -> list[tuple]:
        """Rows some current policy permits.  Every policy names its
        owners, so only their rows need the row-by-row check."""
        policies = self.policies()
        owners = set()
        for p in policies:
            oc = p.owner_condition
            owners.update(oc.value if oc.op == "IN" else [oc.value])
        rows = [row for row in self.rows if row[self.owner_at] in owners]
        return sorted(brute_force_allowed(rows, policies, self.columns))

    def restore(self) -> None:
        """Back to the original corpus (same ids, fresh insert stamps)."""
        want = {p.id: p for p in self.original}
        for policy in self.policies():
            if policy.id not in want:
                self.store.delete(policy.id)
            elif policy.object_conditions != want[policy.id].object_conditions:
                self.store.update(want[policy.id])
        have = {p.id for p in self.policies()}
        for policy in self.original:
            if policy.id not in have:
                self.store.insert(policy)


@functools.cache
def wifi_world() -> World:
    db, _rows = make_wifi_db()
    groups = GroupDirectory()
    groups.add_member("faculty", "prof")
    store = PolicyStore(db, groups)
    store.insert_many(make_policies())
    return World("wifi-default", db, store, "wifi", "prof", "analytics", "faculty", (0, 1439), (0, 89))


@functools.cache
def tippers_world() -> World:
    dataset, campus, store = make_tippers_small()  # its own copy: the corpus is written
    querier = campus.designated_queriers["faculty"][0]
    group = sorted(dataset.groups.groups_of(querier))[0]
    return World(
        "tippers-faculty", dataset.db, store, WIFI_TABLE, querier, "analytics", group, (0, 1439), (0, 14)
    )


@functools.cache
def mall_world() -> World:
    mall = generate_mall(MallConfig(seed=13, n_customers=900, days=25, personality="postgres"))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall_policies(150))
    group = sorted(mall.groups.groups_of("shop-7"))[0]
    return World(
        "mall-150", mall.db, store, CONNECTIVITY_TABLE, "shop-7", "any", group, (600, 1320), (0, 24)
    )


WORLDS = {"wifi": wifi_world, "tippers": tippers_world, "mall": mall_world}


# ------------------------------------------------------------------ steps


def _range(rng: random.Random, attr: str, span: tuple[int, int], width: int) -> ObjectCondition:
    lo = rng.randrange(span[0], span[1] - width)
    return ObjectCondition(attr, ">=", lo, "<=", lo + rng.randrange(1, width))


def new_policy(world: World, kind: str, rng: random.Random, expression) -> Policy:
    """A policy of one of the awkward kinds."""
    owner = rng.choice(world.owners)
    querier = world.querier
    conditions: list[ObjectCondition] = []
    if kind == "bare":
        pass  # no range condition: only its owner can guard it
    elif kind == "inside":
        # A range strictly inside a range guard the expression holds.
        wide = [
            g.condition
            for g in expression.guards
            if g.condition.is_range and g.condition.value2 - g.condition.value >= 2
        ]
        if wide:
            oc = rng.choice(wide)
            lo = rng.randrange(oc.value, oc.value2)
            conditions.append(ObjectCondition(oc.attr, ">=", lo, "<=", rng.randrange(lo, oc.value2 + 1)))
    elif kind == "stranger":
        owner = rng.choice(world.strangers or world.owners)
        conditions.append(_range(rng, "ts_time", world.time_span, 400))
    elif kind == "group":
        querier = world.group
    else:
        if rng.random() < 0.6:
            conditions.append(_range(rng, "ts_time", world.time_span, 300))
        if rng.random() < 0.6:
            conditions.append(_range(rng, "ts_date", world.date_span, 8))
    return Policy(
        owner=owner,
        querier=querier,
        purpose=world.purpose,
        table=world.table,
        object_conditions=(ObjectCondition("owner", "=", owner), *conditions),
    )


def apply_step(world: World, step: str, rng: random.Random, expression) -> int:
    """One write (or burst); returns how many policies it touched."""
    store = world.store
    current = world.policies()
    if step.startswith("insert-"):
        store.insert(new_policy(world, step[len("insert-"):], rng, expression))
        return 1
    if step == "delete" and current:
        store.delete(rng.choice(current).id)
        return 1
    if step == "delete-guard" and expression.guards:
        # A guard's last policy goes with the rest of its partition.
        doomed = rng.choice(expression.guards).policies
        for policy in doomed:
            store.delete(policy.id)
        return len(doomed)
    if step == "update" and current:
        old = rng.choice(current)
        lo = rng.randrange(*world.time_span)
        store.update(
            Policy(
                owner=old.owner, querier=old.querier, purpose=old.purpose, table=old.table,
                object_conditions=(
                    old.owner_condition,
                    ObjectCondition("ts_time", ">=", lo, "<=", min(world.time_span[1], lo + 200)),
                ),
                id=old.id,
            )
        )
        return 2  # it may leave one guard and join another
    if step == "delete-all":
        for policy in current:
            store.delete(policy.id)
        return len(current)
    return 0


STEPS = (
    "insert-bare", "insert-inside", "insert-stranger", "insert-group", "insert-random",
    "delete", "delete-guard", "update", "delete-all",
)


def delta_branches(world: World, expression) -> dict[int, object]:
    return {
        id(guard): expression.branch_expr(
            i, use_delta=True, delta_udf=DELTA_UDF_NAME, delta_columns=world.columns
        )
        for i, guard in enumerate(expression.guards)
        if not guard.has_derived_conditions
    }


def check_step(world: World, sieve: Sieve, before, touched: int):
    """Everything the property promises after one step; returns the
    expression now held (``None`` once the corpus is empty)."""
    held = sieve.guard_store.peek(world.querier, world.purpose, world.table)
    got = sieve.execute_with_info(f"SELECT * FROM {world.table}", world.querier, world.purpose)
    assert sorted(got.result.rows) == world.allowed()
    if held is not None:
        assert got.regenerated_tables == []  # maintained, not selected again
    policies = world.policies()
    if not policies:
        return None
    after = sieve.guard_store.peek(world.querier, world.purpose, world.table)
    after.check_partition_invariants()
    assert after.covered_policy_ids() == {p.id for p in policies}
    assert len({g.key for g in after.guards}) == len(after.guards)
    if before is not None:
        shared = {id(g) for g in before.guards} & {id(g) for g in after.guards}
        # A write edits one partition; everything else is the same object.
        assert len(after.guards) - len(shared) <= touched
        assert len(before.guards) - len(shared) <= touched
        inlined = {id(g): before.branch_expr(i) for i, g in enumerate(before.guards)}
        held_delta = delta_branches(world, before)
        now_delta = delta_branches(world, after)
        for i, guard in enumerate(after.guards):
            if id(guard) in shared:
                assert after.branch_expr(i) is inlined[id(guard)]
                if id(guard) in held_delta:
                    assert now_delta[id(guard)] is held_delta[id(guard)]
    # The durable tier describes the same expression.
    loaded = sieve.guard_store.load_persisted(world.querier, world.purpose, world.table)
    assert described(loaded) == described(after)
    return after


def described(expression) -> list:
    return sorted((str(g.condition), sorted(g.policy_ids)) for g in expression.guards)


def golden_guards(world: World, expression) -> list[dict]:
    """``expression`` as tests/test_golden_guards.py records one."""
    ordered = sorted(
        world.policies(),
        key=lambda p: (str(p.owner), [str(oc) for oc in p.object_conditions], str(p.querier), p.purpose),
    )
    position = {p.id: i for i, p in enumerate(ordered)}
    return [
        {"condition": str(g.condition), "partition": sorted(position[p.id] for p in g.policies)}
        for g in expression.guards
    ]


# --------------------------------------------------------------- property


@pytest.mark.parametrize("name", sorted(WORLDS))
@settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
@given(steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=7), seed=st.integers(0, 10_000))
def test_maintained_expression_is_exact_after_every_step(name, steps, seed):
    world = WORLDS[name]()
    rng = random.Random(seed)
    sieve = world.sieve()
    try:
        expression = check_step(world, sieve, None, 0)
        for step in steps:
            touched = apply_step(world, step, rng, expression or empty(world))
            expression = check_step(world, sieve, expression, touched)
        world.restore()
        # Back at the golden corpus — through the same maintained lineage.
        check_step(world, sieve, None, 0)
        regenerated, rebuilt = sieve.guarded_expression_for(
            world.querier, world.purpose, world.table, force_rebuild=True
        )
        assert rebuilt and regenerated.maintained_inserts == 0
        want = json.loads(GOLDEN.read_text())[world.golden]["guards"]
        got = golden_guards(world, regenerated)
        key = lambda g: (g["condition"], g["partition"])  # noqa: E731
        assert sorted(got, key=key) == sorted(
            ({"condition": g["condition"], "partition": g["partition"]} for g in want), key=key
        )
    finally:
        world.restore()
        sieve.invalidate_caches()  # its rGE/rGG/rGP rows leave the shared database


def empty(world: World):
    from repro.core.guards import GuardedExpression

    return GuardedExpression(world.querier, world.purpose, world.table, [])


def test_the_property_catches_a_join_outside_the_guards_range(monkeypatch):
    """Mutation check: a ``with_inserted`` that joins any guard on the
    same attribute — not one whose condition *covers* the policy's —
    files a stranger's policy under somebody else's ``owner =`` guard,
    and the rows it should admit go missing."""
    world = tippers_world()
    assert world.strangers

    def run():
        sieve = world.sieve()
        try:
            expression = check_step(world, sieve, None, 0)
            owner = world.strangers[0]  # has rows, and no policy yet
            world.store.insert(
                Policy(
                    owner=owner, querier=world.querier, purpose=world.purpose, table=world.table,
                    object_conditions=(ObjectCondition("owner", "=", owner),),
                )
            )
            check_step(world, sieve, expression, 1)
        finally:
            world.restore()
            sieve.invalidate_caches()

    run()  # the real rule passes
    monkeypatch.setattr(
        Guard, "covers", lambda self, oc: self.condition.attr.lower() == oc.attr.lower()
    )
    with pytest.raises(AssertionError):
        run()


# ------------------------------------------------------------ the two edits


def _expression(world: World):
    sieve = world.sieve()
    expression, _ = sieve.guarded_expression_for(world.querier, world.purpose, world.table)
    heap = world.db.catalog.table(world.table)
    context = (
        world.db.stats.get(heap),
        frozenset(world.db.catalog.indexed_columns(world.table)),
        SieveCostModel(),
    )
    return expression, context


def test_insert_joins_a_covering_guard_or_becomes_its_own():
    world = wifi_world()
    expression, (stats, indexed, cm) = _expression(world)
    owner_guard = next(g for g in expression.guards if g.condition.attr == "owner")
    joiner = Policy(
        owner=owner_guard.condition.value, querier="prof", purpose="analytics", table="wifi",
        object_conditions=(owner_guard.condition, ObjectCondition("wifiap", "!=", 3)),
    )
    joined = expression.with_inserted(joiner, indexed, stats, cm)
    assert len(joined.guards) == len(expression.guards)
    (changed,) = [g for g in joined.guards if all(g is not h for h in expression.guards)]
    assert changed.condition == owner_guard.condition and changed.key == owner_guard.key
    assert joiner.id in changed.policy_ids and joined.maintained_inserts == 1

    ap = next(
        ap for ap in range(32)
        if all(g.condition != ObjectCondition("wifiap", "=", ap) for g in expression.guards)
    )
    stranger = Policy(
        owner=1000, querier="prof", purpose="analytics", table="wifi",
        object_conditions=(
            ObjectCondition("owner", "=", 1000),  # nobody's guard
            ObjectCondition("wifiap", "=", ap),
            ObjectCondition("ts_time", ">=", 0, "<=", 1439),
        ),
    )
    alone = joined.with_inserted(stranger, indexed, stats, cm)
    new = alone.guards[-1]
    assert new.policies == [stranger] and new.key == expression.next_key
    # ... on its most selective eligible condition, not the widest.
    assert new.condition == min(
        stranger.object_conditions, key=lambda oc: condition_cardinality(oc, stats)
    )
    assert new.condition.attr != "ts_time"
    assert all(a is b for a, b in zip(alone.guards, joined.guards))

    # Deleting a guard's last policy removes the guard; keys never shift.
    victim = expression.guards[0]
    without = expression.with_deleted(victim.policy_ids)
    assert [g.key for g in without.guards] == [g.key for g in expression.guards[1:]]
    assert without.guard_key(0) == expression.guard_key(1)
    assert without.next_key == expression.next_key


def test_maintenance_is_a_diff_of_corpora_not_a_log():
    """Whatever happened between two corpora — here an update, which is
    a delete and an insert under one id — the result covers the new
    one; an expression already there is returned as is."""
    world = wifi_world()
    expression, (stats, indexed, cm) = _expression(world)
    policies = world.policies()
    assert maintain_guarded_expression(expression, policies, stats, indexed, cm) is expression
    try:
        old = policies[0]
        world.store.update(
            Policy(
                owner=old.owner, querier=old.querier, purpose=old.purpose, table=old.table,
                object_conditions=(old.owner_condition,), id=old.id,
            )
        )
        extra = world.store.insert(new_policy(world, "random", random.Random(4), expression))
        world.store.delete(policies[1].id)
        now = world.policies()
        maintained = maintain_guarded_expression(expression, now, stats, indexed, cm)
        assert maintained.covered_policy_ids() == {p.id for p in now}
        assert extra.id in maintained.covered_policy_ids()
        (holder,) = [g for g in maintained.guards if old.id in g.policy_ids]
        assert next(p for p in holder.policies if p.id == old.id).object_conditions == (
            old.owner_condition,
        )
        assert maintained.maintained_inserts == 2  # the update's new version and the insert
    finally:
        world.restore()


def test_default_schedule_regenerates_at_the_kth_maintained_insert():
    """Without ``Sieve(regeneration=...)`` Eq. 19 at the cost model's
    constants decides: maintained until the k̃-th insert, selected
    afresh there, and the count starts over."""
    world = wifi_world()
    sieve = Sieve(world.db, world.store)
    rng = random.Random(9)
    sql = f"SELECT COUNT(*) FROM {world.table}"
    try:
        first = sieve.execute_with_info(sql, world.querier, world.purpose)
        assert first.regenerated_tables == [world.table]
        expression = sieve.guard_store.peek(world.querier, world.purpose, world.table)
        k = RegenerationController(sieve.cost_model).interval_for(
            expression.total_cardinality / len(expression.guards)
        )
        assert 2 <= k <= 60
        regenerated_at = []
        for n in range(1, 3 * k):
            world.store.insert(new_policy(world, "random", rng, expression))
            info = sieve.execute_with_info(sql, world.querier, world.purpose)
            if n % 4 == 0 or info.regenerated_tables:
                assert info.result.rows == [(len(world.allowed()),)]
            if info.regenerated_tables:
                regenerated_at.append(n)
                if len(regenerated_at) == 2:
                    break
        # k̃ moves a little with the mean ρ of the guards maintenance adds.
        assert len(regenerated_at) == 2
        assert abs(regenerated_at[0] - k) <= 3 and abs(regenerated_at[1] - 2 * k) <= 6
        held = sieve.guard_store.peek(world.querier, world.purpose, world.table)
        assert held.maintained_inserts == 0
    finally:
        world.restore()
