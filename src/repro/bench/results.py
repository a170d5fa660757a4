"""Benchmark result persistence and formatting.

Every experiment writes a Markdown table plus the raw data as JSON to
``benchmarks/results/`` so experiment write-ups can reference
regenerated numbers, and prints the table so it shows up in bench
logs.

Output format (per :func:`write_result` call with name ``<name>``):

* ``benchmarks/results/<name>.md`` — ``# <title>``, a GitHub-Markdown
  table (floats rendered ``{:,.2f}`` by :func:`format_table`), and an
  optional ``notes`` paragraph stating the paper's expected shape so a
  reader can judge the run without the paper at hand.
* ``benchmarks/results/<name>.json`` — the bench's ``data`` argument
  serialized with ``json.dumps(indent=2, default=str)`` (anything
  non-JSON-native, e.g. Decimals or dataclasses' reprs, becomes a
  string).  By convention ``data`` is a list with one element per
  swept configuration, either

  - a list/tuple ordered exactly as the Markdown table's columns
    (older benches, e.g. ``fig6_scalability.json``), or
  - an object keyed by metric name (newer benches, e.g.
    ``backend_sqlite.json`` with keys ``query``, ``sieve_ms``,
    ``baseline_ms``, ``mean_sieve_ms``, ``mean_baseline_ms``,
    ``speedup``, ``rows_returned``).

  Wall-clock metrics are suffixed ``_ms`` and are hardware-dependent;
  deterministic metrics (``*_cost`` in
  :attr:`~repro.db.counters.CounterSet.cost_units`, counters, ratios)
  are what cross-run comparisons and assertions should use.

The README's "Benchmark output format" section is the user-facing
summary of this contract; keep the two in sync.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Sequence

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """A GitHub-Markdown table."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:,.2f}"
        return str(value)

    head = "| " + " | ".join(headers) + " |"
    sep = "| " + " | ".join("---" for _ in headers) + " |"
    body = ["| " + " | ".join(fmt(v) for v in row) + " |" for row in rows]
    return "\n".join([head, sep, *body])


def write_result(
    name: str,
    title: str,
    table: str,
    data: Any = None,
    notes: str = "",
) -> pathlib.Path:
    """Persist one experiment's output; returns the markdown path."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    md_path = RESULTS_DIR / f"{name}.md"
    parts = [f"# {title}", "", table]
    if notes:
        parts += ["", notes]
    text = "\n".join(parts) + "\n"
    md_path.write_text(text)
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(data, indent=2, default=str))
    print(f"\n{text}")
    return md_path
