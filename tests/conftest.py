"""Shared fixtures: small databases, policy factories, datasets, and
the audit-tier replay oracle."""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys

import pytest

from repro.db.database import connect
from repro.obs.histogram import LatencyHistogram
from repro.datasets.policies import generate_campus_policies
from repro.datasets.tippers import TippersConfig, generate_tippers
from repro.policy.groups import GroupDirectory
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.storage.schema import ColumnType, Schema

WIFI_COLUMNS = ("id", "wifiap", "owner", "ts_time", "ts_date")


def make_wifi_db(personality: str = "mysql", n_rows: int = 4000, seed: int = 1,
                 n_owners: int = 40, n_aps: int = 32, page_size: int = 128):
    """A small WiFi-events database with the standard indexes."""
    rng = random.Random(seed)
    db = connect(personality, page_size=page_size)
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
    rows = [
        (i, rng.randrange(n_aps), rng.randrange(n_owners), rng.randrange(1440), rng.randrange(90))
        for i in range(n_rows)
    ]
    db.insert("wifi", rows)
    for col in ("owner", "wifiap", "ts_time", "ts_date"):
        db.create_index("wifi", col)
    db.analyze()
    return db, rows


def make_policies(n_owners: int = 40, querier: str = "prof", purpose: str = "analytics",
                  seed: int = 2, per_owner: int = 2, table: str = "wifi",
                  n_aps: int = 32) -> list[Policy]:
    """Simple synthetic policies: every owner allows `querier` in some
    time window / AP / date range combinations."""
    rng = random.Random(seed)
    out: list[Policy] = []
    for owner in range(n_owners):
        for _ in range(per_owner):
            conds = [ObjectCondition("owner", "=", owner)]
            kind = rng.randrange(3)
            if kind == 0:
                start = rng.randrange(0, 1200)
                conds.append(ObjectCondition("ts_time", ">=", start, "<=", start + rng.randrange(60, 300)))
            elif kind == 1:
                conds.append(ObjectCondition("wifiap", "=", rng.randrange(n_aps)))
            else:
                start = rng.randrange(0, 60)
                conds.append(ObjectCondition("ts_date", ">=", start, "<=", start + rng.randrange(5, 30)))
            out.append(Policy(
                owner=owner, querier=querier, purpose=purpose, table=table,
                object_conditions=tuple(conds),
            ))
    return out


def brute_force_allowed(rows, policies, columns=WIFI_COLUMNS):
    """Reference implementation: rows allowed by at least one policy."""
    from repro.expr.eval import ExprCompiler, RowBinding

    binding = RowBinding.for_table("t", list(columns))
    compiler = ExprCompiler(binding)
    fns = [compiler.compile(p.object_expr()) for p in policies]
    return [row for row in rows if any(fn(row) for fn in fns)]


def make_owner_world(with_policy: bool = True):
    """The protection tests' world: table ``t`` (50 rows, ``owner = id
    % 5``), an empty store, and ``alice``'s one policy (``owner = 1``)
    — already inserted unless ``with_policy`` is false.  Returns
    ``(db, store, policy)``; ``bob`` and any other querier hold none."""
    db = connect("mysql")
    db.create_table("t", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
    db.insert("t", [(i, i % 5) for i in range(50)])
    db.create_index("t", "owner")
    db.analyze()
    store = PolicyStore(db)
    policy = Policy(
        owner=1, querier="alice", purpose="analytics", table="t",
        object_conditions=(ObjectCondition("owner", "=", 1),),
    )
    return db, store, store.insert(policy) if with_policy else policy


@pytest.fixture(scope="session")
def wifi_db_mysql():
    return make_wifi_db("mysql")


@pytest.fixture(scope="session")
def wifi_db_postgres():
    return make_wifi_db("postgres")


def make_tippers_small():
    """A small but realistic campus world: (dataset, policies, store)."""
    dataset = generate_tippers(TippersConfig(n_devices=200, days=15, seed=3))
    campus = generate_campus_policies(dataset)
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    return dataset, campus, store


@pytest.fixture(scope="session")
def tippers_small():
    """The small campus world, shared across tests."""
    return make_tippers_small()


# ----------------------------------------------------------- audit oracle

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool_module(stem: str):
    """Import ``tools/<stem>.py`` (not an installed package) once."""
    name = f"repro_tools_{stem}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, _REPO_ROOT / "tools" / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def hist_of(values, **kwargs) -> LatencyHistogram:
    """A histogram holding the given millisecond samples."""
    hist = LatencyHistogram(**kwargs)
    for v in values:
        hist.record_ms(v)
    return hist


class AuditOracle:
    """Turns any Sieve/cluster run into a replay-verified run.

    Attach middlewares (or an audited cluster) during the test; at
    fixture teardown every attached decision chain is hash-verified
    and replayed against its pinned policy epochs, asserting
    bit-identical decisions — so an existing differential suite opts
    into the oracle by adding one ``attach`` call.

    ``compare_counters=False`` relaxes the per-record counter-delta
    comparison for runs where many workers interleave on one
    database's counters (per-request deltas are not well defined
    there); decisions, guard sets, and result digests still must
    reproduce exactly.
    """

    def __init__(self):
        self._attached = []

    def attach(self, sieve, *, backend_factory=None, compare_counters=True):
        """Enable auditing on one Sieve; returns its AuditLog."""
        log = sieve.enable_audit()
        self._attached.append((sieve, log, backend_factory, compare_counters))
        return log

    def attach_cluster(self, cluster, *, backend_factory=None, compare_counters=True):
        """Adopt every shard chain of a cluster built with
        ``audit=True`` (each replays against its shard's partition)."""
        logs = cluster.audit_logs()
        assert logs, "cluster was not built with audit=True"
        for name, log in logs.items():
            shard = cluster.shard(name)
            self._attached.append((shard.sieve, log, backend_factory, compare_counters))
        return logs

    def verify_and_replay(self):
        """Chain-verify and replay every attached log; returns the
        per-log ReplayReports (empty logs are skipped)."""
        replay = load_tool_module("replay")
        reports = []
        for sieve, log, backend_factory, compare_counters in self._attached:
            checked = log.verify()
            if not checked:
                continue
            report = replay.replay_records(
                log.records(),
                sieve.policy_store,
                db=sieve.db,
                cost_model=sieve.cost_model,
                backend_factory=backend_factory,
                compare_counters=compare_counters,
            )
            assert report.ok, report.describe()
            assert report.replayed == checked
            reports.append(report)
        return reports


@pytest.fixture
def audit_oracle():
    """The replay oracle: attach during the test, verified at teardown."""
    oracle = AuditOracle()
    yield oracle
    oracle.verify_and_replay()
