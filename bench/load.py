"""Set-up passes, the closed-loop load generator and the end-to-end metrics.

Closed loop, ``N_CLIENTS`` threads in this process: a caller of an
in-process middleware waits for its reply before asking again.  Every
request comes from the schedule generated up front; the clients only
time ``submit() -> result()`` and keep what came back for the oracle.

Every time reported from here is scaled by the host-speed probe of
``bench/host.py``: set-up is a chain of short segments, the load runs in
``SLICE_S`` slices with the clients parked between them, and each segment
or slice carries the scale measured on its two sides.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass

from bench.host import Meter
from bench.oracle import Oracle
from bench.system import System
from bench.workloads import N_CLIENTS, Inputs, PolicySpec, Request

REQUEST_TIMEOUT_S = 60.0
WARM_PASSES = 2  # the server auto-prepares a shape on its second sighting
WARM_SEGMENT = 8  # warm-pass requests per probed segment
SLICE_S = 0.4  # the host changes state within a second; a probe costs ~4 ms
DISCARD_SHARE = 0.1  # of --seconds, run and thrown away before the timed window
UNSTEADY_SHARE = 0.15  # first vs last fifth of the window


@dataclass
class Record:
    request: Request
    policies: tuple[PolicySpec, ...]  # the querier's corpus when it ran
    start: float
    end: float
    rows: list | None = None
    error: str | None = None
    scale: float = 1.0  # host-speed factor of the segment or slice it ran in
    timed: bool = False  # inside the timed window
    cycle: int = -1  # which cycle of its client's loop (load loop only)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Client:
    """Issues requests one at a time and mirrors the corpus its own
    writes produce, so the oracle knows what each read should see."""

    def __init__(self, system: System, corpus: dict[str, tuple[PolicySpec, ...]]):
        self.system = system
        self.corpus = corpus  # shared; a querier is only ever written by its one owner
        self.records: list[Record] = []

    def issue(self, request: Request, with_info: bool = False):
        corpus = self.corpus
        record = Record(request, corpus[request.querier], time.perf_counter(), 0.0)
        reply = None
        try:
            if request.kind == "read":
                submit = self.system.submit_with_info if with_info else self.system.submit
                reply = submit(request.sql, request.querier).result(timeout=REQUEST_TIMEOUT_S)
                record.rows = (reply.result if with_info else reply).rows
            else:
                self.system.write(request)
        except Exception as exc:  # a failed request is a result, not a crash
            record.error = type(exc).__name__
        record.end = time.perf_counter()
        if request.kind == "insert":
            corpus[request.querier] = corpus[request.querier] + (request.policy,)
        elif request.kind == "delete":
            corpus[request.querier] = tuple(
                p for p in corpus[request.querier] if p.id != request.policy.id
            )
        self.records.append(record)
        return reply


def initial_corpus(inputs: Inputs) -> dict[str, tuple[PolicySpec, ...]]:
    return {
        q: tuple(p for p in inputs.policies if p.querier == q) for q in inputs.queriers
    }


@dataclass
class Setup:
    system: System
    client: Client  # ran the passes; holds their records and the corpus
    cold_ms: list[float]  # scaled, one per querier
    seconds: float  # scaled
    raw_seconds: float


def setup(inputs: Inputs, meter: Meter) -> Setup:
    """World build + policy load + server/cluster start + cold pass +
    warm passes, as a chain of probed segments."""
    raw_total = scaled_total = 0.0

    def close_segment(records: list[Record] = ()) -> None:
        nonlocal raw_total, scaled_total
        raw, scale = meter.mark()
        raw_total += raw
        scaled_total += raw * scale
        for record in records:
            record.scale = scale

    meter.mark()  # set-up starts here, whatever ran before
    system = System(inputs)
    client = Client(system, initial_corpus(inputs))
    close_segment()
    first_sql: dict[str, str] = {}
    for querier, sql in inputs.warm_pairs:
        first_sql.setdefault(querier, sql)
    for querier, sql in first_sql.items():
        client.issue(Request("read", querier, sql))
        close_segment(client.records[-1:])
    cold_ms = [r.ms * r.scale for r in client.records]
    warm = [Request("read", q, sql) for _ in range(WARM_PASSES) for q, sql in inputs.warm_pairs]
    for at in range(0, len(warm), WARM_SEGMENT):
        for request in warm[at : at + WARM_SEGMENT]:
            client.issue(request)
        close_segment()
    return Setup(system, client, cold_ms, scaled_total, raw_total)


def drive(system: System, inputs: Inputs, corpus, seconds: float, meter: Meter) -> list[list[Record]]:
    """The closed loop in ``SLICE_S`` slices: ``DISCARD_SHARE * seconds``
    thrown away, then ``seconds`` timed, then an untimed burst in which
    every client finishes the unit it is in (a churn unit ends with the
    corpus back at its initial size, which the traced replay relies on).
    Returns every record of the loop, per client."""
    clients = [Client(system, corpus) for _ in range(N_CLIENTS)]
    at = [[0, 0, 0] for _ in clients]  # per client: unit, request within it, cycle

    def loop(client: Client, units: list[list[Request]], pos: list[int], deadline: float | None) -> None:
        while pos[1] if deadline is None else time.perf_counter() < deadline:
            unit = units[pos[0] % len(units)]
            request = unit[pos[1]]
            if request.kind != "read" or not pos[1]:
                pos[2] += 1  # a cycle: a write and the reads after it, or one lone read
            client.issue(request)
            client.records[-1].cycle = pos[2]
            pos[1] += 1
            if pos[1] == len(unit):
                pos[0] += 1
                pos[1] = 0

    def burst(length: float | None, timed: bool) -> None:
        seen = [len(c.records) for c in clients]
        deadline = None if length is None else time.perf_counter() + length
        threads = [
            threading.Thread(target=loop, args=(c, units, pos, deadline), name=f"bench-client-{i}")
            for i, (c, units, pos) in enumerate(zip(clients, inputs.schedules, at))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _raw, scale = meter.mark()
        for client, n in zip(clients, seen):
            for record in client.records[n:]:
                record.scale, record.timed = scale, timed

    meter.mark()
    timed_from = time.perf_counter() + seconds * DISCARD_SHARE
    while (now := time.perf_counter()) < timed_from + seconds:
        burst(SLICE_S, now >= timed_from)
    burst(None, False)
    return [c.records for c in clients]


def percentile(ordered: list[float], q: float) -> float:
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def check(records: list[Record], oracle: Oracle) -> set[int]:
    """ids of the records that failed: errored, rejected, timed out or
    answered differently from the oracle."""
    return {
        id(r)
        for r in records
        if r.error is not None
        or (
            r.request.kind == "read"
            and not oracle.matches(r.request.querier, r.policies, r.request.sql, r.rows)
        )
    }


def end_to_end(per_client: list[list[Record]], failed: set[int]) -> dict:
    """Latency and throughput of the oracle-correct reads in the timed
    window, scaled to the reference host speed; ``raw`` holds the same
    figures as the clock gave them.

    The window is the *cycles* that ran wholly inside it — a cycle being a
    write and the reads that follow it, or one lone read: a churn cycle
    holds a ~0.4 s regeneration, and a window edge that falls inside one
    would move the read count by several per cent."""
    whole: list[list[list[Record]]] = []  # per client, its whole cycles in order
    for records in per_client:
        cycles: dict[int, list[Record]] = {}
        for record in records:
            cycles.setdefault(record.cycle, []).append(record)
        whole.append([rs for _cycle, rs in sorted(cycles.items()) if all(r.timed for r in rs)])

    def good(records: list[Record]) -> list[Record]:
        return [r for r in records if r.request.kind == "read" and id(r) not in failed]

    def rate(parts: list[list[list[Record]]], scaled: bool = True) -> float:
        """Closed loop: each client's reads over its own busy time, summed."""
        total = 0.0
        for cycles in parts:
            records = [r for cycle in cycles for r in cycle]
            busy = sum(r.ms * (r.scale if scaled else 1.0) for r in records) / 1000.0
            total += len(good(records)) / busy if busy else 0.0
        return total

    reads = [r for cycles in whole for cycle in cycles for r in good(cycle)]
    if not reads:
        raise SystemExit("bench: no correct read in a whole cycle of the timed window; --seconds is too short")
    scaled = sorted(r.ms * r.scale for r in reads)
    raw = sorted(r.ms for r in reads)
    # the same fifth of every client's cycles
    fifths = [rate([c[len(c) * k // 5 : len(c) * (k + 1) // 5] for c in whole]) for k in range(5)]
    quartiles = statistics.quantiles(fifths, n=4)
    p50 = percentile(scaled, 50)
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": percentile(scaled, 90),
        "throughput_qps": rate(whole),
        "throughput_iqr_qps": quartiles[2] - quartiles[0],
        "fifth_qps": fifths,
        "unsteady": abs(fifths[0] - fifths[-1]) > UNSTEADY_SHARE * max(fifths[0], fifths[-1]),
        "latency_samples": len(scaled),
        "slow_read_share": sum(ms > 5 * p50 for ms in scaled) / len(scaled),
        "cycles": sum(map(len, whole)),
        "raw": {
            "latency_p50_ms": percentile(raw, 50),
            "latency_p90_ms": percentile(raw, 90),
            "throughput_qps": rate(whole, scaled=False),
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB
