"""Run the threaded hammer tests under an aggressive garbage collector.

Interpreter crashes (a segfault in a collection, or right after the
threaded hammers) are rare under the default thresholds; collecting
every 50 allocations makes the collector run inside every window a
thread switch can open.  This sets ``gc.set_threshold(50, 3, 3)``,
turns on ``faulthandler`` (a crash prints every thread's stack) and runs
the three threaded hammers through pytest:

* ``tests/test_prepared.py::test_writers_and_readers_hammer_matches_the_oracle_at_each_epoch``
* ``tests/test_prepared.py::test_fresh_literal_hammer_matches_the_oracle``
* ``tests/test_expr_codegen.py::test_compiled_expr_cache_index_survives_concurrent_use``

Usage, from the repository root::

    python tools/gc_stress.py            # one run; exit status is pytest's
    python tools/gc_stress.py --runs 30  # 30 runs, each in its own process

With ``--runs`` each run is a fresh interpreter, and the tool prints how
many ended in a crash (killed by a signal) and how many failed a test.
Not part of tier-1: a run takes tens of seconds, and a crash is a matter
of chance, so compare two trees over many runs each.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

HAMMERS = (
    "tests/test_prepared.py::test_writers_and_readers_hammer_matches_the_oracle_at_each_epoch",
    "tests/test_prepared.py::test_fresh_literal_hammer_matches_the_oracle",
    "tests/test_expr_codegen.py::test_compiled_expr_cache_index_survives_concurrent_use",
)


def run_once() -> int:
    """The hammers in this process, under the stress thresholds."""
    import pytest

    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    gc.set_threshold(50, 3, 3)
    faulthandler.enable()
    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(REPO_ROOT), *HAMMERS]))


def run_many(runs: int) -> int:
    """``runs`` fresh processes of :func:`run_once`; a summary line."""
    crashed = failed = 0
    for i in range(runs):
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve())],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if done.returncode < 0:
            crashed += 1
            print(f"run {i + 1}: killed by signal {-done.returncode}", flush=True)
            print(done.stderr[-4000:], flush=True)
        elif done.returncode:
            failed += 1
            print(f"run {i + 1}: pytest exit {done.returncode}", flush=True)
            print(done.stdout[-2000:], flush=True)
    print(f"{runs} runs: {crashed} crashed, {failed} failed a test")
    return 1 if crashed or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=0, help="fresh-process runs (default: one run in this process)")
    args = parser.parse_args(argv)
    return run_many(args.runs) if args.runs else run_once()


if __name__ == "__main__":
    sys.exit(main())
