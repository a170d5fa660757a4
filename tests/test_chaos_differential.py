"""The chaos differential: the acceptance gate of the fault tier.

Hundreds of seeded randomized fault plans (``SIEVE_CHAOS_PLANS``
overrides the count; CI's tools-smoke job runs a small slice) drive a
3-shard cluster through crashes, hangs, lost replies, relay failures,
mid-scatter faults and clock skew, and every run must uphold the
fail-closed contract judged by :func:`repro.faults.chaos.run_chaos_plan`:

* answered queries row-identical to the fault-free oracle,
* unanswered queries failed with typed errors (never a hang, never an
  untyped crash),
* post-heal convergence back to the oracle after supervision.

The teeth test then *disables* the epoch fence gate — reintroducing
the naive one-phase policy scatter — and requires the differential to
catch the resulting mixed-epoch staleness.  If that test ever passes
with the bug undetected, the 200-seed sweep above is vacuous.
"""

from __future__ import annotations

import os

from repro.faults.chaos import mixed_epoch_divergence, run_chaos_plan

#: Default seed count; the acceptance bar is >= 200 with zero silent
#: divergence.  Override with SIEVE_CHAOS_PLANS (e.g. CI smoke = 20).
N_PLANS = int(os.environ.get("SIEVE_CHAOS_PLANS", "200"))


def test_chaos_plans_never_diverge_silently():
    failures = []
    for seed in range(N_PLANS):
        result = run_chaos_plan(seed)
        if not result.ok:
            failures.append((seed, result.plan_summary, result.divergences))
        # Sanity on the harness itself: a run that answers nothing
        # proves nothing, and convergence must have answered every
        # measured pair at least once.
        assert result.answered > 0, f"seed {seed} answered no queries"
    assert not failures, (
        f"{len(failures)}/{N_PLANS} chaos plans diverged; first three: "
        f"{failures[:3]}"
    )


def test_chaos_runs_are_replayable():
    a = run_chaos_plan(11)
    b = run_chaos_plan(11)
    # The fault plan and op mix replay exactly; thread timing may vary
    # which races land, so only the seeded inputs are compared.
    assert a.plan_summary == b.plan_summary
    assert a.queries + a.writes_committed + a.writes_aborted == (
        b.queries + b.writes_committed + b.writes_aborted
    )
    assert a.ok and b.ok


def test_teeth_mixed_epoch_bug_is_caught_when_gate_disabled():
    """The deliberate bug: on ``NaiveScatterCluster`` (no prepare
    phase, no routing fence check) a policy delete commits under a shard whose relay died, and that shard keeps
    serving rows from the stale epoch — the differential MUST flag the
    divergence (first element).  With the gate on, the same scenario
    is refused at prepare and answers stay correct (second element)."""
    naive_caught, fenced_clean = mixed_epoch_divergence()
    assert naive_caught, (
        "the chaos differential failed to detect the mixed-epoch bug "
        "with the fence gate disabled — the suite has no teeth"
    )
    assert fenced_clean, (
        "the fence gate failed to prevent the mixed-epoch bug"
    )
