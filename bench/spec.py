"""``BENCHMARK.json`` as the single source of metric names, units and bounds."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def exact_counts() -> list[str]:
    """Per-layer metrics counted in the single-threaded traced run: for one
    seed they repeat exactly, so two runs may be compared for equality."""
    return [
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] == "1/req"
        or m["name"].startswith("ladder.guards.")
        or m["name"] in ("core.guards_per_expression", "core.regen_per_write", "policy.epoch_advances")
    ]
