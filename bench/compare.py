"""Compare two result sets: ``python3 bench/compare.py A.json B.json``.

A and B are ``bench/out/results.json`` files (A is the base).  One row per
workload × end-to-end metric: both medians, the ratio B/A, the bound from
``BENCHMARK.json`` and a verdict —

* ``unresolved``  either side's run-to-run spread (IQR / median over its
  ``--repeat`` runs) is wider than the bound, so the bound cannot be judged;
* ``worse`` / ``better``  B differs from A by more than the bound;
* ``same``  otherwise.

Refuses to compare different inputs (``inputs_digest``) or hosts with a
different ``nproc``.  Exits non-zero on any ``worse`` or on a higher
``failed_share``.  Per-request counts are listed when they differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.spec import SPEC, exact_counts  # noqa: E402


def summary(runs: list[dict], metric: str) -> tuple[float, float]:
    """(median, IQR / median) of one metric over a side's runs."""
    values = [run["end_to_end"][metric] for run in runs]
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return median, (quartiles[2] - quartiles[0]) / abs(median)


def verdict(a: float, b: float, spread: float, bound: float, better: str) -> str:
    if spread > bound:
        return "unresolved"
    change = (b - a) / a if a else 0.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    if a["fingerprint"]["nproc"] != b["fingerprint"]["nproc"]:
        sys.exit(f"refusing: nproc differs ({a['fingerprint']['nproc']} vs {b['fingerprint']['nproc']})")
    bad = False
    print(f"{'workload':<13} {'metric':<18} {'A':>10} {'B':>10} {'B/A':>7} {'bound':>6}  verdict")
    for workload in SPEC["workloads"]:
        name = workload["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb or not wa.get("runs") or not wb.get("runs"):
            print(f"{name:<13} missing on one side")
            bad = True
            continue
        if wa["inputs_digest"] != wb["inputs_digest"]:
            sys.exit(f"refusing: {name} inputs_digest differs ({wa['inputs_digest']} vs {wb['inputs_digest']})")
        for metric in SPEC["end_to_end"]:
            va, sa = summary(wa["runs"], metric["name"])
            vb, sb = summary(wb["runs"], metric["name"])
            result = verdict(va, vb, max(sa, sb), metric["bound"], metric["better"])
            bad = bad or result == "worse"
            ratio = f"{vb / va:.3f}" if va else "n/a"
            print(
                f"{name:<13} {metric['name']:<18} {va:>10.3f} {vb:>10.3f} {ratio:>7} "
                f"{metric['bound']:>6.2f}  {result}" + (f" (spread {max(sa, sb):.3f})" if result == "unresolved" else "")
            )
        fa = max(run["failed_share"] for run in wa["runs"])
        fb = max(run["failed_share"] for run in wb["runs"])
        higher = fb > fa
        bad = bad or higher
        print(f"{name:<13} {'failed_share':<18} {fa:>10.6f} {fb:>10.6f} {'':>7} {'':>6}  {'HIGHER' if higher else 'same'}")
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for count in exact_counts():
            if la.get(count) != lb.get(count):
                print(f"{name:<13} {count:<34} {la.get(count)} -> {lb.get(count)}  count differs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
