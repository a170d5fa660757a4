"""Profile-based policy generation for the campus (paper Section 7.1).

The paper, following Lin et al.'s mobile-privacy profiles, splits users
into *unconcerned* (adopt the administrator's defaults) and *advanced*
(define their own fine-grained policies): 20% unconcerned, 18%
advanced, and the remaining 62% situational users treated as 2/3
unconcerned, 1/3 advanced — i.e. ≈61.3% / 38.7% overall.

Defaults for an unconcerned user ``u`` (two policies):

1. data captured during working hours is visible to ``group(u)``
   (the affinity group);
2. data at any time is visible to users who share both ``u``'s group
   and profile (modelled as an intersection pseudo-group).

An advanced user defines ~40 policies (paper: "on average 40") across
the control dimensions available: target querier (specific user, the
affinity group, a profile group, or a designated frequent querier such
as a professor), purpose, time-of-day windows, date ranges and
AP/location constraints.

Designated queriers guarantee benchmark queriers accumulate policy
corpora of the sizes Experiments 1-5 sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.rng import make_rng
from repro.datasets.tippers import PROFILES, TippersDataset, WIFI_TABLE
from repro.policy.model import ObjectCondition, Policy

PURPOSES = (
    "analytics",
    "attendance",
    "safety",
    "social",
    "commercial",
    "convenience",
)

WORK_START, WORK_END = 480, 1080  # 08:00 - 18:00


@dataclass
class PolicyGenConfig:
    seed: int = 11
    unconcerned_fraction: float = 0.20
    advanced_fraction: float = 0.18
    # The situational rest splits 2/3 unconcerned, 1/3 advanced (Sec 2.1).
    advanced_policies_mean: int = 40
    advanced_policies_spread: int = 12
    designated_queriers_per_profile: int = 5
    designated_policy_share: float = 0.35


@dataclass
class CampusPolicies:
    policies: list[Policy]
    designated_queriers: dict[str, list[int]]  # profile -> device ids
    user_kind: dict[int, str]  # device -> "unconcerned" | "advanced"


def _user_kind(rng, config: PolicyGenConfig) -> str:
    roll = rng.random()
    if roll < config.unconcerned_fraction:
        return "unconcerned"
    if roll < config.unconcerned_fraction + config.advanced_fraction:
        return "advanced"
    # situational: 2/3 unconcerned, 1/3 advanced
    return "unconcerned" if rng.random() < 2 / 3 else "advanced"


def generate_campus_policies(
    dataset: TippersDataset, config: PolicyGenConfig | None = None
) -> CampusPolicies:
    """Generate the synthetic policy corpus over a TIPPERS dataset."""
    config = config or PolicyGenConfig()
    rng = make_rng(config.seed, "campus-policies")
    groups = dataset.groups

    designated: dict[str, list[int]] = {}
    for profile in ("faculty", "staff", "grad", "undergrad"):
        candidates = dataset.devices_with_profile(profile)
        rng.shuffle(candidates)
        designated[profile] = candidates[: config.designated_queriers_per_profile]
    designated_flat = [d for ds in designated.values() for d in ds]

    policies: list[Policy] = []
    user_kind: dict[int, str] = {}

    for device in dataset.devices:
        kind = _user_kind(rng, config)
        user_kind[device] = kind
        region_group = dataset.group_of(device)
        profile = dataset.profiles[device]
        profile_group = f"profile-{profile}"

        if kind == "unconcerned":
            # Default 1: working hours, affinity group.
            policies.append(
                Policy(
                    owner=device,
                    querier=region_group,
                    purpose="any",
                    table=WIFI_TABLE,
                    object_conditions=(
                        ObjectCondition("owner", "=", device),
                        ObjectCondition("ts_time", ">=", WORK_START, "<=", WORK_END),
                    ),
                )
            )
            # Default 2: any time, group-and-profile intersection.
            intersection = f"{region_group}&{profile_group}"
            if intersection not in groups:
                members = groups.members_of(region_group) & groups.members_of(
                    profile_group
                )
                groups.add_members(intersection, members)
            policies.append(
                Policy(
                    owner=device,
                    querier=intersection,
                    purpose="any",
                    table=WIFI_TABLE,
                    object_conditions=(ObjectCondition("owner", "=", device),),
                )
            )
            continue

        # Advanced user: ~40 policies over the control dimensions.
        n = max(4, round(rng.gauss(config.advanced_policies_mean, config.advanced_policies_spread)))
        peers = [d for d in groups.members_of(region_group) if d != device]
        for _ in range(n):
            roll = rng.random()
            if roll < config.designated_policy_share and designated_flat:
                querier: Any = rng.choice(designated_flat)
            elif roll < config.designated_policy_share + 0.25 and peers:
                querier = rng.choice(peers)
            elif roll < config.designated_policy_share + 0.50:
                querier = region_group
            else:
                querier = profile_group
            purpose = rng.choice(PURPOSES)
            conditions: list[ObjectCondition] = [ObjectCondition("owner", "=", device)]
            dims = rng.randrange(1, 3)  # 1-2 extra conditions (paper: 2/policy)
            chosen = rng.sample(("time", "date", "ap"), dims)
            if "time" in chosen:
                start = rng.randrange(WORK_START - 120, WORK_END)
                duration = rng.randrange(30, 240)
                conditions.append(
                    ObjectCondition(
                        "ts_time", ">=", start, "<=", min(1439, start + duration)
                    )
                )
            if "date" in chosen:
                start_day = rng.randrange(0, max(1, dataset.config.days - 5))
                span = rng.randrange(3, max(4, dataset.config.days // 2))
                conditions.append(
                    ObjectCondition(
                        "ts_date",
                        ">=",
                        start_day,
                        "<=",
                        min(dataset.config.days - 1, start_day + span),
                    )
                )
            if "ap" in chosen:
                home_aps = dataset.region_aps[dataset.affinity_region[device]]
                if rng.random() < 0.7:
                    conditions.append(
                        ObjectCondition("wifiAP", "=", rng.choice(home_aps))
                    )
                else:
                    k = min(len(home_aps), rng.randrange(2, 5))
                    conditions.append(
                        ObjectCondition("wifiAP", "IN", sorted(rng.sample(home_aps, k)))
                    )
            policies.append(
                Policy(
                    owner=device,
                    querier=querier,
                    purpose=purpose,
                    table=WIFI_TABLE,
                    object_conditions=tuple(conditions),
                )
            )

    return CampusPolicies(
        policies=policies,
        designated_queriers=designated,
        user_kind=user_kind,
    )
