"""Actuates a :class:`~repro.faults.plan.FaultPlan` through tier hooks.

One :class:`FaultInjector` is shared by a cluster and all its shards.
The *coordinator* drives the request clock: every admission calls
:meth:`next_request` under the coordinator's routing path, which
assigns the request its ordinal, returns the shard faults due at that
ordinal (the coordinator applies them — crash/slow/drop_relay — before
routing), and stamps the ordinal onto the
:class:`~repro.service.admission.ServiceRequest` as ``fault_tag``.
Workers later look their request's fault up by tag
(:meth:`serve_action`), so thread interleaving in the serving tier can
never change which request a fault hits.

Policy writes drive a separate write clock (:meth:`next_write` /
:meth:`scatter_fault`), consulted by the coordinator's two-phase
scatter at each phase.

Every fault that actually fires is recorded (:attr:`fired`; the
cluster reports :attr:`FaultInjector.fired_total` as its
``faults_injected`` count), so chaos reports can show what a run
exercised rather than what the plan merely contained.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.faults.plan import FaultPlan, RequestFault, ScatterFault, ShardFault


@dataclass(frozen=True)
class ServeAction:
    """What a worker should do to the request it is about to serve."""

    kind: str  # RequestFault kind
    delay_s: float = 0.0


class FaultInjector:
    """Thread-safe actuator for one :class:`FaultPlan`.

    The injector is passive bookkeeping: it never touches the cluster
    itself.  Hooks *ask* it what is due and apply the answer in their
    own tier, which keeps the blast radius of each fault exactly where
    a real failure of that component would land.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._request_clock = 0
        self._write_clock = 0
        self._request_faults: dict[int, RequestFault] = {
            f.ordinal: f for f in plan.request_faults
        }
        self._shard_faults: dict[int, list[ShardFault]] = {}
        for sf in plan.shard_faults:
            self._shard_faults.setdefault(sf.ordinal, []).append(sf)
        self._scatter_faults: dict[tuple[int, str], list[ScatterFault]] = {}
        for sc in plan.scatter_faults:
            self._scatter_faults.setdefault((sc.write, sc.phase), []).append(sc)
        self._skew: dict[int, float] = dict(plan.clock_skew_s)
        self.fired: dict[str, int] = {}

    # ------------------------------------------------------------------
    # clocks (driven by the coordinator)

    def next_request(self) -> tuple[int, list[ShardFault]]:
        """Advance the request clock; return (ordinal, due shard faults)."""
        with self._lock:
            ordinal = self._request_clock
            self._request_clock += 1
        return ordinal, self._shard_faults.get(ordinal, [])

    def next_write(self) -> int:
        """Advance the policy-write clock; return the write ordinal."""
        with self._lock:
            ordinal = self._write_clock
            self._write_clock += 1
        return ordinal

    # ------------------------------------------------------------------
    # lookups (consumed by hooks in each tier)

    def serve_action(self, fault_tag: int | None) -> ServeAction | None:
        """The request fault due for ``fault_tag``, recorded as fired.

        Called by a shard worker immediately before serving a request;
        returns ``None`` for untagged requests (no injector upstream)
        or tags with no fault scheduled.
        """
        if fault_tag is None:
            return None
        fault = self._request_faults.get(fault_tag)
        if fault is None:
            return None
        self.record(fault.kind)
        return ServeAction(kind=fault.kind, delay_s=fault.delay_s)

    def scatter_fault(self, write: int, phase: str) -> ScatterFault | None:
        """The scatter fault due for policy write ``write`` at ``phase``."""
        faults = self._scatter_faults.get((write, phase))
        if not faults:
            return None
        self.record(f"scatter_{phase}")
        return faults[0]

    def skew_s(self, shard_index: int) -> float:
        """Clock skew for the shard at ``shard_index`` (0.0 if none)."""
        return self._skew.get(shard_index, 0.0)

    # ------------------------------------------------------------------
    # accounting

    def record(self, kind: str) -> None:
        """Count a fault that actually fired (plan entries may never
        trigger if the run ends early or the target shard is gone)."""
        with self._lock:
            self.fired[kind] = self.fired.get(kind, 0) + 1

    @property
    def fired_total(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def summary(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self.fired.items()))
