"""The central property test: every enforcement engine agrees.

For random data, random policy corpora, and random queries, the
following must produce the *same multiset of rows*:

* brute force (evaluate E(P) per tuple in Python),
* Sieve on the MySQL personality,
* Sieve on the PostgreSQL personality,
* BaselineP / BaselineI / BaselineU.

This is the repo's strongest guarantee that guard generation,
partitioning, Δ, strategy selection and the rewrites are all
semantics-preserving.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BaselineI, BaselineP, BaselineU, Sieve
from repro.core.cost_model import SieveCostModel
from repro.db.database import connect
from repro.policy.groups import GroupDirectory
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.storage.schema import ColumnType, Schema

from tests.conftest import brute_force_allowed

N_OWNERS = 12
N_APS = 8


def fresh_world(personality: str, rows: list[tuple], policies: list[Policy]):
    db = connect(personality, page_size=32)
    db.create_table(
        "wifi",
        Schema.of(
            ("id", ColumnType.INT),
            ("wifiap", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.INT),
            ("ts_date", ColumnType.INT),
        ),
    )
    db.insert("wifi", rows)
    for col in ("owner", "wifiap", "ts_time", "ts_date"):
        db.create_index("wifi", col)
    db.analyze()
    store = PolicyStore(db, GroupDirectory())
    store.insert_many(
        Policy(
            owner=p.owner, querier=p.querier, purpose=p.purpose, table=p.table,
            object_conditions=p.object_conditions,
        )
        for p in policies
    )
    return db, store


condition_strategy = st.one_of(
    st.builds(
        lambda a, w: ObjectCondition("ts_time", ">=", a, "<=", a + w),
        st.integers(0, 1300), st.integers(1, 400),
    ),
    st.builds(lambda v: ObjectCondition("wifiap", "=", v), st.integers(0, N_APS - 1)),
    st.builds(
        lambda vs: ObjectCondition("wifiap", "IN", sorted(set(vs))),
        st.lists(st.integers(0, N_APS - 1), min_size=1, max_size=3),
    ),
    st.builds(
        lambda a, w: ObjectCondition("ts_date", ">=", a, "<=", a + w),
        st.integers(0, 50), st.integers(1, 40),
    ),
    st.builds(lambda v: ObjectCondition("ts_time", ">", v), st.integers(0, 1439)),
    st.builds(lambda v: ObjectCondition("ts_date", "<=", v), st.integers(0, 60)),
)

policy_strategy = st.builds(
    lambda owner, conds: Policy(
        owner=owner,
        querier="prof",
        purpose="analytics",
        table="wifi",
        object_conditions=(ObjectCondition("owner", "=", owner), *conds),
    ),
    st.integers(0, N_OWNERS - 1),
    st.lists(condition_strategy, max_size=2),
)

query_strategy = st.sampled_from([
    "SELECT * FROM wifi",
    "SELECT * FROM wifi WHERE ts_date BETWEEN 10 AND 50",
    "SELECT * FROM wifi AS W WHERE W.wifiap IN (1, 2, 3) AND W.ts_time BETWEEN 200 AND 900",
    "SELECT * FROM wifi WHERE owner IN (1, 3, 5, 7) AND ts_time BETWEEN 100 AND 1200",
    "SELECT owner, count(*) AS n FROM wifi GROUP BY owner",
])


def reference_rows(rows, policies, db, sql):
    """Brute-force: filter allowed tuples, then run the query on them."""
    allowed = brute_force_allowed(rows, policies)
    ref_db = connect("mysql")
    ref_db.create_table(
        "wifi",
        Schema.of(
            ("id", ColumnType.INT),
            ("wifiap", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.INT),
            ("ts_date", ColumnType.INT),
        ),
    )
    ref_db.insert("wifi", allowed)
    ref_db.analyze()
    return sorted(ref_db.execute(sql).rows)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    policies=st.lists(policy_strategy, min_size=1, max_size=15),
    sql=query_strategy,
)
def test_all_engines_agree(seed, policies, sql):
    rng = random.Random(seed)
    rows = [
        (i, rng.randrange(N_APS), rng.randrange(N_OWNERS), rng.randrange(1440), rng.randrange(60))
        for i in range(400)
    ]
    db_m, store_m = fresh_world("mysql", rows, policies)
    expected = reference_rows(rows, policies, db_m, sql)

    sieve_m = Sieve(db_m, store_m)
    assert sorted(sieve_m.execute(sql, "prof", "analytics").rows) == expected

    # Force heavy Δ usage on a second pass: still identical.
    sieve_m.cost_model = SieveCostModel(udf_invocation=1e-9, udf_per_policy=1e-9)
    sieve_m.guard_store.resolve(
        "prof", "analytics", "wifi", store_m.snapshot(),
        lambda *_: (
            lambda: (_ for _ in ()).throw(AssertionError("the tier must hold")),
            lambda held: held,
        ),
    )
    assert sorted(sieve_m.execute(sql, "prof", "analytics").rows) == expected

    db_p, store_p = fresh_world("postgres", rows, policies)
    sieve_p = Sieve(db_p, store_p)
    assert sorted(sieve_p.execute(sql, "prof", "analytics").rows) == expected

    for cls in (BaselineP, BaselineI, BaselineU):
        baseline = cls(db_m, store_m)
        assert sorted(baseline.execute(sql, "prof", "analytics").rows) == expected


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    policies=st.lists(policy_strategy, min_size=1, max_size=10),
    extra=policy_strategy,
)
def test_policy_insert_then_query_consistent(policies, extra):
    """Dynamic scenario: adding a policy and re-querying reflects it in
    every engine identically."""
    rng = random.Random(7)
    rows = [
        (i, rng.randrange(N_APS), rng.randrange(N_OWNERS), rng.randrange(1440), rng.randrange(60))
        for i in range(300)
    ]
    db, store = fresh_world("mysql", rows, policies)
    sieve = Sieve(db, store)
    sql = "SELECT * FROM wifi WHERE ts_date <= 40"
    sieve.execute(sql, "prof", "analytics")  # prime the guard cache
    store.insert(Policy(
        owner=extra.owner, querier=extra.querier, purpose=extra.purpose,
        table=extra.table, object_conditions=extra.object_conditions,
    ))
    got = sorted(sieve.execute(sql, "prof", "analytics").rows)
    all_policies = store.all_policies()
    expected = sorted(
        r for r in brute_force_allowed(rows, all_policies) if r[4] <= 40
    )
    assert got == expected
