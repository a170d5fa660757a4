"""Self-test of the benchmark: ``python3 bench/selftest.py [--quick]``.

Checks, by running ``bench/run.py`` as the driver does:

* every name in ``BENCHMARK.json`` is well formed, used once, and printed
  with its unit; the last output line has exactly the driver's keys;
* the same seed twice gives the same ``inputs_digest`` and the same
  per-request counts in the traced run;
* a second seed gives a different digest and still no failed request.

``--quick`` runs ``serve_warm`` only, with 2 s windows and 50 traced
requests (< 90 s); without it every workload is checked.  Not collected by
the tier-1 test run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.spec import OUT, ROOT, SPEC, exact_counts  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = "2"


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict, str]:
    """(driver object, detail file, stdout) of one quick run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    kind = "layers" if trace else "e2e"
    detail = json.loads((OUT / f"{workload}.{kind}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), detail, proc.stdout


class Checks:
    def __init__(self) -> None:
        self.failed = 0

    def __call__(self, condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message)
        self.failed += not condition


def check_printed(check: Checks, kind: str, result: dict, stdout: str, where: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: driver keys")
    check(set(result["metrics"]) == {m["name"] for m in SPEC[kind]}, f"{where}: exactly the {kind} metrics")
    for metric in SPEC[kind]:
        line = re.search(rf"^{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b", stdout, re.M)
        check(line is not None, f"{where}: {metric['name']} printed with unit {metric['unit']}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{where}: no failed request")


def main() -> int:
    quick = "--quick" in sys.argv[1:]
    check = Checks()
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    check(all(NAME.fullmatch(n) for n in names), "BENCHMARK.json names are well formed")
    check(len(names) == len(set(names)), "BENCHMARK.json names are used once")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"]), "setup_s is an end-to-end metric")
    for workload in ["serve_warm"] if quick else [w["name"] for w in SPEC["workloads"]]:
        first, detail1, stdout = run(workload, 11, 1)
        check_printed(check, "per_layer", first, stdout, f"{workload} traced")
        _second, detail2, _ = run(workload, 11, 1)
        check(detail1["inputs_digest"] == detail2["inputs_digest"], f"{workload}: same seed, same digest")
        differing = [n for n in exact_counts() if detail1["per_layer"].get(n) != detail2["per_layer"].get(n)]
        check(not differing, f"{workload}: same seed, same per-request counts {differing or ''}")
        check((OUT / f"{workload}.trace.json").is_file(), f"{workload}: trace written")
        other, detail3, stdout = run(workload, 12, 0)
        check_printed(check, "end_to_end", other, stdout, f"{workload} seed 12")
        check(detail3["inputs_digest"] != detail1["inputs_digest"], f"{workload}: second seed, different digest")
    print("selftest", "FAILED" if check.failed else "passed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
