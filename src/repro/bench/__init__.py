"""Support for the paper-reproduction scripts under ``benchmarks/``:
scenario caches, engine runners, result reporting."""

from repro.bench.scenarios import bench_tippers, bench_mall, policies_for_querier
from repro.bench.runner import measure_engine, EngineRun
from repro.bench.results import write_result, format_table

__all__ = [
    "bench_tippers",
    "bench_mall",
    "policies_for_querier",
    "measure_engine",
    "EngineRun",
    "write_result",
    "format_table",
]
