"""Benchmark-owned input generators: policies, query literals, schedules.

Everything the program under test receives is made here and handed over
as plain data (SQL text, querier names, policy specs); nothing is imported
from ``repro``, so a change to the library's own scenario helpers cannot
silently change the workload.

Two seeds.  The *world* — which shops query, their 150 policies each, the
one fixed literal binding per (querier, template) — comes from
``corpus_seed`` (default ``CORPUS_SEED``), like the fixed-seed Mall rows
built by ``bench/system.py``: per-request work differs ~10 % from one
random corpus to the next, which is noise a run-to-run bound cannot absorb.
``--seed`` makes everything that is *traffic*: the order of requests, the
fresh literals of ``serve_fresh``, the policies ``policy_churn`` writes.
A claim is checked on an unseen world with ``--corpus-seed``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

#: Why each exists is recorded once, in BENCHMARK.json and bench/README.md.
WORKLOADS = ("serve_warm", "serve_fresh", "policy_churn", "cluster_warm")

TABLE = "WiFi_Connectivity"
PURPOSE = "any"
#: Fig. 6 Mall (paper Exp. 5 scale-down): ~37 k WiFi_Connectivity rows.
CORPUS_SEED = 13
MALL = {"seed": 13, "n_customers": 900, "days": 25, "personality": "postgres"}
N_SHOPS = 35
OPEN_START, OPEN_END = 600, 1320

N_CLIENTS = 2  # closed loop; == nproc of the reference host
N_QUERIERS = 12
POLICIES_PER_QUERIER = 150
COMMUNITY = 25  # owners a querier's policies are drawn from (~6 policies each)
LADDER = (50, 150, 400)  # policy counts of the extra serve_warm trace queriers

#: Schedule sizes are fixed (not a function of --seconds) so one seed has
#: one digest; each is several times what a 60 s window can consume.  A
#: schedule is a run of shuffled *rounds*, each round every (querier,
#: template) once, so any window holds the same mix of cheap and dear reads.
ROUNDS_PER_CLIENT = {"serve_warm": 300, "cluster_warm": 300, "serve_fresh": 120}
CHURN_UNITS_PER_CLIENT = 200  # a unit = insert cycle + delete cycle = 12 entries
READS_PER_WRITE = 5

TEMPLATES = {
    "count_all": f"SELECT COUNT(*) FROM {TABLE}",
    "group_owner": f"SELECT owner, COUNT(*) FROM {TABLE} GROUP BY owner",
    "time_count": f"SELECT COUNT(*) FROM {TABLE} WHERE ts_time BETWEEN {{t1}} AND {{t2}}",
    "date_rows": f"SELECT * FROM {TABLE} WHERE ts_date BETWEEN {{d1}} AND {{d2}}",
    # paper Q2
    "owners_dates": f"SELECT * FROM {TABLE} WHERE owner IN ({{owners}}) "
    "AND ts_date BETWEEN {d1} AND {d2}",
    # paper Q1
    "shops_time_dates": f"SELECT * FROM {TABLE} WHERE shop_id IN ({{shops}}) "
    "AND ts_time BETWEEN {t1} AND {t2} AND ts_date BETWEEN {d1} AND {d2}",
    # paper Q3 analogue: the protected relation joined to an unprotected one
    "join_shop_type": f"SELECT s.type, COUNT(*) FROM {TABLE} w JOIN Shop s "
    "ON w.shop_id = s.id WHERE w.ts_date BETWEEN {d1} AND {d2} GROUP BY s.type",
    "top_n": f"SELECT id, owner, ts_time FROM {TABLE} WHERE ts_date BETWEEN {{d1}} "
    "AND {d2} ORDER BY ts_time DESC, id LIMIT 20",
}
SELECTIVE = ("time_count", "date_rows", "owners_dates", "shops_time_dates")
#: (min, max) literal-range widths; a warm binding takes the midpoint so
#: one seed's single draw per template does not swing the result size.
_WIDTHS = {
    "time_count": {"t": (60, 300)},
    "date_rows": {"d": (2, 6)},
    "owners_dates": {"d": (6, 14)},
    "shops_time_dates": {"t": (120, 360), "d": (6, 14)},
    "join_shop_type": {"d": (4, 8)},
    "top_n": {"d": (1, 3)},
}


@dataclass(frozen=True)
class PolicySpec:
    """An allow policy as plain data: ``owner = X`` and closed ranges.

    ``ranges`` is ``((attr, lo, hi), ...)``.  ``bench/system.py`` turns it
    into the library's ``Policy``; ``bench/oracle.py`` evaluates it
    directly, so the two never share code."""

    id: int
    querier: str
    owner: int
    ranges: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class Request:
    kind: str  # "read" | "insert" | "delete"
    querier: str
    sql: str = ""
    policy: PolicySpec | None = None


@dataclass
class Inputs:
    workload: str
    queriers: list[str]
    policies: list[PolicySpec]
    #: every distinct (querier, SQL) the cold and warm passes touch
    warm_pairs: list[tuple[str, str]]
    #: per client, a list of units; a client finishes the unit it is in
    schedules: list[list[list[Request]]]
    #: deterministic single-threaded replay for the traced run
    trace_units: list[list[Request]]
    ladder: dict[int, tuple[str, list[PolicySpec]]] = field(default_factory=dict)

    def digest(self, n_rows: int) -> str:
        """blake2b over row count, policies and schedules: a silent
        workload change shows as a changed digest."""
        h = hashlib.blake2b(digest_size=16)
        h.update(repr((self.workload, n_rows, self.queriers)).encode())
        for part in (self.policies, self.warm_pairs, self.schedules, self.trace_units):
            h.update(repr(part).encode())
        return h.hexdigest()


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")  # str seeds hash deterministically


class _PolicyMaker:
    """Policies of one querier: a bounded owner community, each policy
    an owner plus a time-of-day window, a date window, or both."""

    def __init__(self, rng: random.Random, querier: str, first_id: int, community: list[int] | None = None):
        self.rng = rng
        self.querier = querier
        self.next_id = first_id
        self.community = community or sorted(rng.sample(range(MALL["n_customers"]), COMMUNITY))

    def make(self) -> PolicySpec:
        rng = self.rng
        ranges = []
        kind = rng.random()
        if kind < 0.55:
            start = rng.randrange(OPEN_START, OPEN_END - 120)
            ranges.append(("ts_time", start, min(1439, start + rng.randrange(60, 240))))
        if kind >= 0.45:
            start = rng.randrange(0, MALL["days"] - 4)
            ranges.append(("ts_date", start, min(MALL["days"] - 1, start + rng.randrange(2, 10))))
        spec = PolicySpec(self.next_id, self.querier, rng.choice(self.community), tuple(ranges))
        self.next_id += 1
        return spec


def _bind(name: str, rng: random.Random, owner_pool: list[int], fixed_width: bool) -> str:
    """One SQL text of template ``name`` with literals from ``rng``."""
    values: dict[str, object] = {}
    for axis, (lo, hi) in _WIDTHS.get(name, {}).items():
        width = (lo + hi) // 2 if fixed_width else rng.randrange(lo, hi + 1)
        if axis == "t":
            start = rng.randrange(OPEN_START, OPEN_END - width)
        else:
            start = rng.randrange(0, MALL["days"] - width)
        values[f"{axis}1"], values[f"{axis}2"] = start, start + width
    if name == "owners_dates":
        values["owners"] = ", ".join(map(str, sorted(rng.sample(owner_pool, 8))))
    if name == "shops_time_dates":
        values["shops"] = ", ".join(map(str, sorted(rng.sample(range(N_SHOPS), 3))))
    return TEMPLATES[name].format(**values)


def _rounds(rng: random.Random, items: list, n_rounds: int) -> list:
    """``n_rounds`` shuffles of ``items``, end to end."""
    out = []
    for _ in range(n_rounds):
        out += rng.sample(items, len(items))
    return out


def generate(
    workload: str, seed: int, trace_requests: int, trace_cycles: int, corpus_seed: int = CORPUS_SEED
) -> Inputs:
    """All inputs of one workload.  ``cluster_warm`` gets exactly the
    ``serve_warm`` inputs (same seeds, same schedule)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    world = _rng(corpus_seed, "world")
    queriers = [f"shop-{s}" for s in sorted(world.sample(range(N_SHOPS), N_QUERIERS))]
    makers = {
        q: _PolicyMaker(_rng(corpus_seed, f"policies:{q}"), q, 1_000_000 + 10_000 * i)
        for i, q in enumerate(queriers)
    }
    policies = [makers[q].make() for q in queriers for _ in range(POLICIES_PER_QUERIER)]
    pools = {q: makers[q].community for q in queriers}  # a shop asks about its own customers

    lit = _rng(corpus_seed, "literals")
    # One fixed binding per (querier, template): 8 x 12 = 96 distinct pairs.
    fixed = {q: [_bind(name, lit, pools[q], True) for name in TEMPLATES] for q in queriers}
    fixed_pairs = [(q, sql) for q in queriers for sql in fixed[q]]

    ladder = {}
    if workload == "serve_warm":
        for i, n in enumerate(LADDER):
            maker = _PolicyMaker(_rng(corpus_seed, f"policies:ladder-{n}"), f"ladder-{n}", 2_000_000 + 10_000 * i)
            ladder[n] = (maker.querier, [maker.make() for _ in range(n)])

    def clients():
        return (_rng(seed, f"client:{c}") for c in range(N_CLIENTS))

    if workload == "serve_fresh":
        shapes = [(q, name) for q in queriers for name in SELECTIVE]

        def fresh(r: random.Random) -> list[list[Request]]:
            return [
                [Request("read", q, _bind(name, r, pools[q], False))]
                for q, name in _rounds(r, shapes, ROUNDS_PER_CLIENT[workload])
            ]

        # The warm pass shows the server every (querier, shape) once, with
        # literals of its own, so later requests share shapes, never texts.
        warm = _rng(seed, "warm")
        warm_pairs = [(q, _bind(name, warm, pools[q], False)) for q, name in shapes]
        schedules = [fresh(r) for r in clients()]
        trace_units = schedules[0][:trace_requests]
    elif workload == "policy_churn":
        warm_pairs = fixed_pairs
        share = N_QUERIERS // N_CLIENTS
        owned = [queriers[c * share : (c + 1) * share] for c in range(N_CLIENTS)]

        def writer(stream: str, hot: str, first_id: int) -> _PolicyMaker:
            """Written policies are traffic: drawn from ``seed``, over the
            written querier's own community."""
            return _PolicyMaker(_rng(seed, stream), hot, first_id, pools[hot])

        schedules = [
            _churn_units(r, writer(f"writes:{c}", mine[0], makers[mine[0]].next_id), mine, fixed, CHURN_UNITS_PER_CLIENT)
            for c, (mine, r) in enumerate(zip(owned, clients()))
        ]
        # The traced replay draws its own policies (ids after the clients'),
        # so it is the same whatever the timed window consumed.
        hot = owned[0][0]
        trace_units = _churn_units(
            _rng(seed, "trace"),
            writer("trace", hot, makers[hot].next_id + CHURN_UNITS_PER_CLIENT),
            owned[0],
            fixed,
            (trace_cycles + 1) // 2,
        )
    else:
        warm_pairs = fixed_pairs
        schedules = [
            [[Request("read", *pair)] for pair in _rounds(r, fixed_pairs, ROUNDS_PER_CLIENT[workload])]
            for r in clients()
        ]
        trace_units = schedules[0][:trace_requests]
    return Inputs(workload, queriers, policies, warm_pairs, schedules, trace_units, ladder)


def _churn_units(rng, maker: _PolicyMaker, owned: list[str], fixed: dict[str, list[str]], n_units: int):
    """``n_units`` × [insert P, 5 reads, delete P, 5 reads] on ``owned[0]``.

    The first read after a write goes to the written querier, the other
    four to the client's never-written queriers; after every unit the
    corpus is back at exactly 150 policies per querier."""
    hot, others = owned[0], owned[1:]
    cycles = 2 * n_units
    hot_reads = iter(_rounds(rng, fixed[hot], cycles // len(fixed[hot]) + 1))
    other_pairs = [(q, sql) for q in others for sql in fixed[q]]
    other_reads = iter(_rounds(rng, other_pairs, cycles * (READS_PER_WRITE - 1) // len(other_pairs) + 1))
    units = []
    for _ in range(n_units):
        policy = maker.make()
        unit = []
        for write in (Request("insert", hot, policy=policy), Request("delete", hot, policy=policy)):
            unit.append(write)
            unit.append(Request("read", hot, next(hot_reads)))
            unit += [Request("read", *next(other_reads)) for _ in range(READS_PER_WRITE - 1)]
        units.append(unit)
    return units
