"""The TIPPERS-style smart-campus dataset (paper Section 7.1).

The real dataset is three months of WiFi association logs from the 64
APs of the UCI CS building: 3.9M events from 36,436 devices.  It is
not redistributable, so this module generates a synthetic equivalent
that preserves the properties the evaluation depends on:

* the schema of paper Table 2 (Users, User_Groups,
  User_Group_Membership, Location, WiFi_Dataset);
* the profile mix observed by the authors' classification —
  visitors 87.3%, staff 2.8%, faculty 1.1%, undergrad 4.9%,
  grad 3.9% (31,796 / 1,029 / 388 / 1,795 / 1,428 of 36,436);
* affinity structure: each non-visitor device gravitates to one
  building region (the paper derives 56 groups, ~108 devices each);
* occupancy skew: events cluster in profile-typical hours and in the
  device's affinity region, so histograms (and therefore guard
  cardinalities) are non-uniform exactly where policies are.

Scale is configurable; benchmarks run at laptop scale and EXPERIMENTS
documents the ratios.  TIME is minutes-since-midnight, DATE is a day
index from the capture start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.rng import make_rng
from repro.db.database import Database
from repro.policy.groups import GroupDirectory
from repro.storage.schema import ColumnType, Schema

PROFILES = ("visitor", "staff", "faculty", "undergrad", "grad")

# Fractions from the paper's device classification (Section 7.1).
PROFILE_FRACTIONS = {
    "visitor": 31796 / 36436,
    "staff": 1029 / 36436,
    "faculty": 388 / 36436,
    "undergrad": 1795 / 36436,
    "grad": 1428 / 36436,
}

# Typical presence windows per profile, minutes since midnight.
PROFILE_HOURS = {
    "visitor": (600, 960),  # 10:00-16:00
    "staff": (480, 1020),  # 08:00-17:00
    "faculty": (540, 1080),  # 09:00-18:00
    "undergrad": (480, 1200),  # 08:00-20:00
    "grad": (540, 1320),  # 09:00-22:00
}

# Probability a device shows up in the building on a given day.
PROFILE_ACTIVITY = {
    "visitor": 0.04,  # "rarely connect ... less than 5% of the days"
    "staff": 0.85,
    "faculty": 0.7,
    "undergrad": 0.6,
    "grad": 0.8,
}

ROOM_TYPES_BY_PROFILE = {
    "staff": "office",
    "faculty": "office",
    "undergrad": "classroom",
    "grad": "lab",
    "visitor": "common",
}


@dataclass
class TippersConfig:
    """Knobs for the synthetic campus. Defaults are laptop-scale."""

    seed: int = 7
    n_aps: int = 64
    n_devices: int = 600
    days: int = 30
    events_per_active_day: int = 8
    n_regions: int = 14  # regions group APs; affinity groups form per region
    page_size: int = 256
    personality: str = "mysql"


@dataclass
class TippersDataset:
    """The generated database plus the metadata generators need."""

    db: Database
    config: TippersConfig
    groups: GroupDirectory
    profiles: dict[int, str]  # device id -> profile
    affinity_region: dict[int, int]  # device id -> region index
    region_aps: list[list[int]]  # region index -> AP ids
    event_count: int = 0

    @property
    def devices(self) -> list[int]:
        return sorted(self.profiles)

    def devices_with_profile(self, profile: str) -> list[int]:
        return [d for d, p in self.profiles.items() if p == profile]

    def group_of(self, device: int) -> str:
        return f"region-{self.affinity_region[device]}"


WIFI_TABLE = "WiFi_Dataset"


def _profile_of(index: int, n_devices: int) -> str:
    """Deterministic profile assignment matching the paper's fractions."""
    cumulative = 0.0
    position = (index + 0.5) / n_devices
    for profile in PROFILES:
        cumulative += PROFILE_FRACTIONS[profile]
        if position <= cumulative:
            return profile
    return PROFILES[-1]


def generate_tippers(config: TippersConfig | None = None, db: Database | None = None) -> TippersDataset:
    """Build the campus database: schema, rows, indexes, statistics."""
    config = config or TippersConfig()
    if db is None:
        from repro.db.database import connect

        db = connect(config.personality, page_size=config.page_size)

    rng = make_rng(config.seed, "tippers")

    # ----- building model: regions own APs; rooms only matter as types
    ap_ids = list(range(config.n_aps))
    region_aps: list[list[int]] = [[] for _ in range(config.n_regions)]
    for ap in ap_ids:
        region_aps[ap % config.n_regions].append(ap)

    # ----- devices, profiles, affinities
    profiles: dict[int, str] = {}
    affinity: dict[int, int] = {}
    order = list(range(config.n_devices))
    rng.shuffle(order)
    for rank, device in enumerate(order):
        profiles[device] = _profile_of(rank, config.n_devices)
    for device in range(config.n_devices):
        affinity[device] = rng.randrange(config.n_regions)

    # ----- groups: one affinity group per region plus profile groups
    groups = GroupDirectory()
    for region in range(config.n_regions):
        groups.add_group(f"region-{region}")
    for profile in PROFILES:
        groups.add_group(f"profile-{profile}")
    groups.add_group("students")
    for device in range(config.n_devices):
        groups.add_member(f"region-{affinity[device]}", device)
        groups.add_member(f"profile-{profiles[device]}", device)
        if profiles[device] in ("undergrad", "grad"):
            groups.add_member("students", device)

    # ----- schema (paper Table 2)
    db.create_table(
        "Users",
        Schema.of(
            ("id", ColumnType.INT),
            ("device", ColumnType.VARCHAR),
            ("office", ColumnType.INT),
        ),
    )
    db.create_table(
        "Location",
        Schema.of(
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("type", ColumnType.VARCHAR),
        ),
    )
    db.create_table(
        WIFI_TABLE,
        Schema.of(
            ("id", ColumnType.INT),
            ("wifiAP", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.TIME),
            ("ts_date", ColumnType.DATE),
        ),
        page_size=config.page_size,
    )

    for device in range(config.n_devices):
        db.insert_row("Users", (device, f"device-{device:05d}", affinity[device]))
    for ap in ap_ids:
        room_type = rng.choice(("office", "classroom", "lab", "common"))
        db.insert_row("Location", (ap, f"room-{ap:03d}", room_type))

    # ----- connectivity events
    raw_events: list[tuple[int, int, int, int]] = []  # (day, minute, ap, device)
    for device in range(config.n_devices):
        profile = profiles[device]
        lo, hi = PROFILE_HOURS[profile]
        activity = PROFILE_ACTIVITY[profile]
        home_aps = region_aps[affinity[device]]
        for day in range(config.days):
            if rng.random() >= activity:
                continue
            n_events = max(1, round(rng.gauss(config.events_per_active_day, 2)))
            arrival = rng.randrange(lo, max(lo + 1, hi - 60))
            minute = arrival
            for _ in range(n_events):
                if rng.random() < 0.8:
                    ap = rng.choice(home_aps)
                else:
                    ap = rng.randrange(config.n_aps)
                raw_events.append((day, minute % 1440, ap, device))
                minute += max(1, round(rng.gauss(45, 20)))
                if minute >= hi:
                    break
    # Logs arrive in capture order: time-sorted, ids monotone with time.
    # Dates/times end up heap-correlated (clustered), owners scattered —
    # exactly the layout of the real AP logs the paper evaluates on.
    raw_events.sort(key=lambda e: (e[0], e[1]))
    wifi_rows = [
        (event_id, ap, device, minute, day)
        for event_id, (day, minute, ap, device) in enumerate(raw_events)
    ]
    event_id = len(wifi_rows)
    db.insert(WIFI_TABLE, wifi_rows)

    # ----- indexes the paper assumes (owner always; plus the usual ones)
    for column in ("owner", "wifiAP", "ts_time", "ts_date"):
        db.create_index(WIFI_TABLE, column)
    db.create_index("Users", "id")

    groups.install(db)
    db.analyze()

    return TippersDataset(
        db=db,
        config=config,
        groups=groups,
        profiles=profiles,
        affinity_region=affinity,
        region_aps=region_aps,
        event_count=event_id,
    )
