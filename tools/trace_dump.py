"""Render live span trees from a traced Sieve pipeline (smoke CLI).

Builds a small Mall world, turns on tracing (slow-query threshold 0 so
every query is retained with its full tree), runs a few Fig. 6-style
queries, and pretty-prints each trace as an indented tree::

    sieve.query 3.214ms trace=00000001-7f30 engine=vectorized rows_admitted=1
      middleware.prepare 1.102ms
        parse 0.211ms
        guard.resolve 0.388ms table=WiFi_Connectivity hit=False
        strategy 0.102ms table=WiFi_Connectivity strategy=LinearScan
        rewrite 0.201ms enforced=1
      plan 0.310ms
        plan.template 0.240ms
        plan.bind 0.052ms
      execute 1.691ms engine=vectorized tuples_scanned=4231
        run 1.622ms
      audit.record 0.050ms

Exit status is non-zero when no trace was captured or a trace is
missing its pipeline phases — CI runs this as the observability smoke
test.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.scenarios import mall_policies_for_shop  # noqa: E402
from repro.core import Sieve  # noqa: E402
from repro.datasets.mall import MallConfig, generate_mall  # noqa: E402
from repro.policy.store import PolicyStore  # noqa: E402

#: Phases every query trace must contain (the satellite contract).
REQUIRED_PHASES = ("middleware.prepare", "execute")

SQLS = [
    "SELECT COUNT(*) FROM WiFi_Connectivity",
    "SELECT owner, COUNT(*) FROM WiFi_Connectivity GROUP BY owner",
    "SELECT COUNT(*) FROM WiFi_Connectivity WHERE ts_time BETWEEN 600 AND 1200",
]


def _short(value, limit: int = 48) -> str:
    """Attr values elided for one-line display: structured attrs (the
    middleware's per-table enforcement dict) show only their shape."""
    if isinstance(value, dict):
        return f"<{len(value)} table(s): {', '.join(sorted(value))}>"
    text = str(value)
    return text if len(text) <= limit else text[: limit - 1] + "…"


def format_span(span, indent: int = 0) -> list[str]:
    """One line per span: name, duration, then attrs key=value."""
    attrs = " ".join(
        f"{key}={_short(value)}" for key, value in sorted(span.attrs.items())
    )
    prefix = "  " * indent
    line = f"{prefix}{span.name} {span.duration_ms:.3f}ms"
    if indent == 0:
        line += f" trace={span.trace_id}"
    if attrs:
        line += f" {attrs}"
    return [line] + [
        text for child in span.children for text in format_span(child, indent + 1)
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--customers", type=int, default=60,
        help="mall-world size for the demo queries (default 60)",
    )
    args = parser.parse_args(argv)

    mall = generate_mall(
        MallConfig(seed=13, n_customers=args.customers, days=5, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    shop = mall.shops[0]
    store.insert_many(mall_policies_for_shop(mall, shop, 50))
    sieve = Sieve(mall.db, store)
    sieve.enable_tracing(slow_query_ms=0.0)

    querier = mall.shop_querier(shop)
    for sql in SQLS:
        sieve.execute(sql, querier, "any")

    roots = sieve.tracer.traces()
    if not roots:
        print("FAIL: no traces captured")
        return 1
    for root in roots:
        print("\n".join(format_span(root)))
        print()
    for root in roots:
        missing = [phase for phase in REQUIRED_PHASES if root.find(phase) is None]
        if missing:
            print(f"FAIL: trace {root.trace_id} is missing span(s): {missing}")
            return 1
    if len(sieve.slow_query_log) != len(roots):
        print("FAIL: slow-query log (threshold 0) did not retain every trace")
        return 1
    print(f"OK: {len(roots)} traces, all pipeline phases present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
