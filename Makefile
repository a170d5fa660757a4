# Developer entry points. All targets run from the repo root and need
# only the Python already in the environment (src/ is put on PYTHONPATH
# explicitly, so no install step is required).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-canonical bench-selftest profile-fresh profile-warm profile-churn bench-smoke bench bench-backend bench-engine bench-service bench-cluster bench-audit bench-obs bench-health bench-faults bench-gate chaos-report health-report replay trace-dump audit-oracle docs-check

# Tier-1 gate: the full unit/integration suite.
test:
	$(PYTHON) -m pytest -x -q

# The repo's one benchmark (BENCHMARK.json is its contract): four Mall
# workloads, six bounded end-to-end metrics, a per-layer trace; results
# land in bench/out/.  bench/README.md explains every number.
bench-canonical:
	python3 bench/run.py

# < 90 s sanity check of the canonical benchmark itself (CI runs it so
# the benchmark cannot rot).
bench-selftest:
	python3 bench/selftest.py --quick

# Where a fresh-literal request spends its time: N prepared requests
# with never-seen literals, single-threaded — the median timed plainly,
# then under cProfile as ms per src/repro layer plus the top functions
# (--mode warm|churn for the other request kinds).  For finding waste;
# bench/ measures a change.
N ?= 200
profile-fresh:
	$(PYTHON) tools/profile_request.py --mode fresh -n $(N)

# The same for a warm request (one fixed binding per querier and shape:
# plan-cache hit, so what is left is the engine — scans, the guard
# kernel, projection).
profile-warm:
	$(PYTHON) tools/profile_request.py --mode warm -n $(N)

# ... and under policy churn ([1 write, 5 reads]): prints the median
# read after a write next to the median warm read — what a write costs
# the next request (guard maintenance, one branch compile, a re-plan).
profile-churn:
	$(PYTHON) tools/profile_request.py --mode churn -n $(N)

# One quick benchmark as a smoke signal: the session-cache bench builds
# the Fig. 6 Mall world and asserts the warm path is >= 2x faster.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_session_cache.py -q --benchmark-only

# The real-DBMS tier: Sieve vs the no-guard baseline, both on SQLite.
bench-backend:
	$(PYTHON) -m pytest benchmarks/bench_backend_sqlite.py -q --benchmark-only

# The execution tier: tuple-at-a-time vs vectorized on the Fig. 6
# guarded workload; asserts >= 3x and writes repo-root BENCH_engine.json.
# Its prepared-mode rows assert warm prepared e2e <= 1.2x exec-only
# (the planning tax the plan cache removes).
bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine_vectorized.py -q --benchmark-only

# The serving tier: closed-loop throughput/latency vs worker and
# querier count on the bundled engine and the SQLite backend; asserts
# zero failed requests (and >= 2x 1->4 worker scaling on >= 4 cores).
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service_throughput.py -q --benchmark-only

# The cluster tier: N=4 scatter-gather vs one server on the Fig. 6
# workload; asserts cluster-vs-single row identity and >= 2x per-shard
# policy-filter reduction, and writes repo-root BENCH_cluster.json.
bench-cluster:
	$(PYTHON) -m pytest benchmarks/bench_cluster.py -q --benchmark-only

# The audit tier: <5% overhead ceiling on the Fig. 6 workload, 1k-query
# replay fidelity (decisions + counters), cluster chain merge; writes
# repo-root BENCH_audit.json.
bench-audit:
	$(PYTHON) -m pytest benchmarks/bench_audit.py -q --benchmark-only

# The observability tier: <3% tracing+profiling overhead ceiling and
# >= 95% span attribution on the Fig. 6 workload, plus the stale-stats
# strategy-correction demo; writes repo-root BENCH_obs.json.
bench-obs:
	$(PYTHON) -m pytest benchmarks/bench_obs.py -q --benchmark-only

# The health tier: histogram quantile accuracy vs its documented
# bound, <3% instrumentation overhead, the 2x overload burst (SLO
# shedding must keep served p99 inside budget where the naive queue
# blows through), and the slow-shard detour; writes BENCH_health.json.
bench-health:
	$(PYTHON) -m pytest benchmarks/bench_health.py -q --benchmark-only

# The fault tier: resilient-path overhead at the noise floor (target
# <5% fault-free), crash -> supervisor-rebuild recovery time, and a
# zero-divergence chaos smoke slice; writes repo-root BENCH_faults.json.
bench-faults:
	$(PYTHON) -m pytest benchmarks/bench_faults.py -q --benchmark-only

# Chaos smoke: replay a seeded matrix of fault plans against the
# fault-free oracle and print the per-seed outcome table (exits
# non-zero on any divergence or missing teeth).
chaos-report:
	$(PYTHON) tools/chaos_report.py

# Regression gate: re-runs the snapshot-emitting benches in smoke mode
# and compares each gated metric against the committed BENCH_*.json
# baselines (>20% unfavourable drift fails; baselines are restored).
# Its BENCH_*.json ratios come from other workloads, windows and warm
# states than bench/ and are not comparable with BENCHMARK.json's
# metrics (ROADMAP open item 1).
bench-gate:
	$(PYTHON) tools/bench_gate.py

# Health smoke: render the cluster dashboard, slow one shard, and
# verify the control loop flags + detours it (exits non-zero if not).
health-report:
	$(PYTHON) tools/health_report.py

# Audit smoke: record -> tamper-check -> replay a 200-query Mall window
# with mid-window policy churn (exits non-zero on any decision mismatch).
replay:
	$(PYTHON) tools/replay.py

# Observability smoke: trace a few Mall queries and pretty-print the
# span trees (exits non-zero if any pipeline phase span is missing).
trace-dump:
	$(PYTHON) tools/trace_dump.py

# The replay-verified differential suites (opt-in marker; tier-1
# excludes them via pytest.ini addopts so the gate stays fast).
audit-oracle:
	$(PYTHON) -m pytest -q -m audit_oracle

# The full benchmark suite (minutes; writes benchmarks/results/).
bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

# Fails if any module under src/repro lacks a module docstring.
docs-check:
	$(PYTHON) tools/docs_check.py
