"""Sieve: the paper's contribution.

* guard generation (Section 4): :mod:`candidate_gen`, :mod:`guard_selection`
* cost model and calibration (Sections 4, 5.4): :mod:`cost_model`
* the guard tier — guarded expressions resolved at the policy epoch,
  kept up to date and persisted (Sections 5.1, 6): :mod:`guard_store`
* the Δ operator UDF (Section 5.2): :mod:`delta`
* query rewriting (Sections 5.3-5.6): :mod:`rewriter`
* strategy selection (Section 5.5): :mod:`strategy`
* dynamic regeneration (Section 6): :mod:`regeneration`
* the middleware facade: :mod:`middleware`
* the plan cache and the cache counts: :mod:`cache`
* the paper's baselines (Section 7.2): :mod:`baselines`

``docs/ARCHITECTURE.md`` walks the whole dataflow — policy → guard
generation → strategy choice → rewrite → execution — and shows where
the guard tier and the plan cache sit in it.
"""

from repro.core.guards import Guard, GuardedExpression
from repro.core.cache import CacheStats
from repro.core.cost_model import SieveCostModel
from repro.core.candidate_gen import generate_candidate_guards
from repro.core.guard_selection import select_guards
from repro.core.middleware import Sieve, QueryMetadata
from repro.core.baselines import BaselineP, BaselineI, BaselineU
from repro.core.regeneration import optimal_regeneration_interval, RegenerationController

__all__ = [
    "Guard",
    "GuardedExpression",
    "CacheStats",
    "SieveCostModel",
    "generate_candidate_guards",
    "select_guards",
    "Sieve",
    "QueryMetadata",
    "BaselineP",
    "BaselineI",
    "BaselineU",
    "optimal_regeneration_interval",
    "RegenerationController",
]
