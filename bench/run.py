"""The repo's benchmark: ``python3 bench/run.py [--seed N] [--workload NAME]``.

Without ``--workload`` every workload runs in a fresh subprocess, untraced
then traced, every metric is printed by name with its unit, and
``bench/out/results.json`` is written with a host fingerprint.  With
``--workload`` one run happens in this process and the last line of
standard output is the JSON object the driver reads.  Metric names, units
and bounds come from ``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench/run.py: the program under test (src/repro) is not in this checkout")
# Package imports (``bench.trace`` must not shadow the stdlib ``trace``).
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import host, layers, load  # noqa: E402
from bench.oracle import Oracle  # noqa: E402
from bench.spec import OUT, SPEC  # noqa: E402
from bench.trace import Recorder  # noqa: E402
from bench.workloads import CORPUS_SEED, N_CLIENTS, TABLE, WORKLOADS, generate  # noqa: E402

DEFAULT_SEED = 11
TRACE_REQUESTS = 120
TRACE_CYCLES = 12  # policy_churn: write cycles of [1 write, 5 reads]
QUICK = {"trace_requests": 50, "trace_cycles": 6}


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, corpus_seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run of one workload in this process; returns the detail dict."""
    cpu = host.pin()
    inputs = generate(
        workload,
        seed,
        QUICK["trace_requests"] if quick else TRACE_REQUESTS,
        QUICK["trace_cycles"] if quick else TRACE_CYCLES,
        corpus_seed,
    )
    meter = host.Meter()
    made = load.setup(inputs, meter)
    system, client = made.system, made.client
    try:
        oracle = Oracle(system.tables())
        n_rows = len(oracle.tables[TABLE][1])
        before = system.service_stats()
        per_client = load.drive(system, inputs, client.corpus, seconds, meter)
        after = system.service_stats()
        peak_rss_mb = load.peak_rss_mb()  # before the oracle and the replay add theirs
        records = client.records + [r for part in per_client for r in part]
        detail = {
            "workload": workload,
            "seed": seed,
            "corpus_seed": corpus_seed,
            "seconds": seconds,
            "clients": N_CLIENTS,
            "pinned_cpu": cpu,
            "inputs_digest": inputs.digest(n_rows),
            "rows": n_rows,
            "policies": len(inputs.policies),
        }
        if trace:
            recorder = Recorder()
            run = layers.traced_run(system, inputs, client.corpus, recorder)
            records += run.client.records
        failed = load.check(records, oracle)
        e2e = load.end_to_end(per_client, failed)
        e2e["cold_query_p50_ms"] = statistics.median(made.cold_ms)
        e2e["setup_s"] = made.seconds
        e2e["peak_rss_mb"] = peak_rss_mb
        e2e["raw"]["setup_s"] = made.raw_seconds
        detail.update(
            attempted=len(records),
            failed=len(failed),
            failed_share=len(failed) / len(records),
            oracle_distinct_checked=oracle.distinct_checked,
            cold_samples=len(made.cold_ms),
            probe_ms=meter.median_probe_ms(),
            probe_max_ms=max(meter.probes),
            end_to_end=e2e,
        )
        if trace:
            metrics, reasons = layers.window_metrics(before, after, e2e["raw"], system)
            metrics["host.probe_ms"] = detail["probe_ms"]
            detail.update(per_layer={**metrics, **run.metrics}, null_reasons={**reasons, **run.reasons})
            OUT.mkdir(parents=True, exist_ok=True)
            recorder.write(OUT / f"{workload}.trace.json")
        oracle.close()
    finally:
        system.close()
    return detail


def report(detail: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the driver's object."""
    print(
        f"# {detail['workload']} seed={detail['seed']} seconds={detail['seconds']} "
        f"corpus_seed={detail['corpus_seed']} clients={detail['clients']} cpu={detail['pinned_cpu']} "
        f"digest={detail['inputs_digest']} "
        f"attempted={detail['attempted']} failed={detail['failed']} "
        f"failed_share={detail['failed_share']:.6f} "
        f"oracle_checked={detail['oracle_distinct_checked']}"
    )
    e2e = detail["end_to_end"]
    metrics = {}
    if not trace:
        for m in SPEC["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<34} {e2e[m['name']]:>14.4f} {m['unit']}")
        raw = e2e["raw"]
        print(
            f"# times are scaled to the reference host speed (probe {host.REFERENCE_MS} ms); "
            f"probe here: median {detail['probe_ms']:.3f} ms, max {detail['probe_max_ms']:.3f} ms\n"
            f"# raw: latency_p50_ms {raw['latency_p50_ms']:.4f}  latency_p90_ms {raw['latency_p90_ms']:.4f}  "
            f"throughput_qps {raw['throughput_qps']:.4f}  setup_s {raw['setup_s']:.4f}\n"
            f"# latency samples={e2e['latency_samples']} cold samples={detail['cold_samples']} "
            f"whole cycles={e2e['cycles']} "
            f"slow_read_share={e2e['slow_read_share']:.4f} "
            f"throughput IQR={e2e['throughput_iqr_qps']:.2f} 1/s"
            + ("  UNSTEADY (first vs last fifth differ > 15 %)" if e2e["unsteady"] else "")
            + f"\n# fifths 1/s: {' '.join(f'{v:.1f}' for v in e2e['fifth_qps'])}"
        )
    else:
        values = detail["per_layer"]
        for m in SPEC["per_layer"]:
            value = values.get(m["name"])
            if value is None:
                reason = detail["null_reasons"].get(m["name"], "not measured")
                print(f"{m['name']:<34} {'null':>14} {m['unit']}  ({reason})")
            else:
                print(f"{m['name']:<34} {value:>14.4f} {m['unit']}")
            # The driver wants a number for every metric: null reads 0 there.
            metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def run_all(seed: int, corpus_seed: int, seconds: float, quick: bool, repeat: int, only: list[str]) -> int:
    """Each workload in fresh subprocesses (a reused Sieve drifts):
    ``repeat`` untraced runs and one traced run, then the cross-workload
    figure and ``bench/out/results.json``."""
    results = {"fingerprint": fingerprint(), "seed": seed, "corpus_seed": corpus_seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in only:
        runs = []
        traced = {}
        for trace in [0] * repeat + [1]:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--corpus-seed", str(corpus_seed), "--seconds", str(seconds), "--trace", str(trace)]
            cmd += ["--quick"] if quick else []
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                ok = False
                continue
            detail = json.loads((OUT / f"{workload}.{'layers' if trace else 'e2e'}.json").read_text())
            ok = ok and detail["failed"] == 0
            if trace:
                traced = detail
            else:
                runs.append(detail)
        results["workloads"][workload] = {
            "inputs_digest": runs[0]["inputs_digest"] if runs else None,
            "runs": runs,
            "per_layer": traced.get("per_layer", {}),
            "null_reasons": traced.get("null_reasons", {}),
        }

    def qps(workload: str) -> float | None:
        runs = results["workloads"].get(workload, {}).get("runs")
        return statistics.median(r["end_to_end"]["throughput_qps"] for r in runs) if runs else None

    if qps("serve_warm") and qps("cluster_warm"):
        ratio = results["cluster.qps_vs_server"] = qps("cluster_warm") / qps("serve_warm")
        print(f"{'cluster.qps_vs_server':<34} {ratio:>14.4f} ratio  (cluster_warm / serve_warm throughput_qps)")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1))
    print(f"# wrote {OUT / 'results.json'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="traffic: request order, fresh literals, written policies")
    parser.add_argument("--corpus-seed", type=int, default=CORPUS_SEED, help="world: queriers, policy corpus, fixed bindings")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="selftest sizes: 50 traced requests")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload (all-workloads mode)")
    args = parser.parse_args()
    if args.trace is None:
        return run_all(args.seed, args.corpus_seed, args.seconds, args.quick, args.repeat, args.workload or list(WORKLOADS))
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    detail = run_workload(args.workload[0], args.seed, args.corpus_seed, args.seconds, bool(args.trace), args.quick)
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    (OUT / f"{args.workload[0]}.{kind}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(report(detail, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
