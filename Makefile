# Developer entry points. All targets run from the repo root and need
# only the Python already in the environment (src/ is put on PYTHONPATH
# explicitly, so no install step is required).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-canonical bench-selftest bench-paper profile-fresh profile-warm profile-churn profile-cold chaos-report health-report replay trace-dump audit-oracle docs-check

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
# the miss-path split (bind / strategy / rewrite / plan / first minus
# repeat execution of a plan) and compile() calls per request, then
# under cProfile as ms per src/repro layer plus the top functions
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

# ... and for a cold request, each querier's first, which generates its
# guards (Section 4): the median over three fresh 12-querier worlds and
# its split timed plainly (candidates / merge sweep / selection / plan /
# branch compile() / execute / other), then guard generation for one
# shop at 150 / 400 / 1 000 / 2 000 policies and how it grows, then a
# fourth world's cold requests under cProfile.
profile-cold:
	$(PYTHON) tools/profile_request.py --mode cold -n 36

# Chaos smoke: replay a seeded matrix of fault plans against the
# fault-free oracle and print the per-seed outcome table (exits
# non-zero on any divergence or missing teeth).
chaos-report:
	$(PYTHON) tools/chaos_report.py

# Health smoke: render the cluster dashboard, slow one shard, verify
# the control loop flags + detours it, then crash + rebuild the fallback
# and revoke a policy under the detour (exits non-zero on a missing
# detour or a non-identical answer).
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

# The paper-reproduction scripts (Fig. 2-6, Tables 6-11, Section 6, the
# design ablation) plus Sieve vs the no-guard baseline on real SQLite:
# each asserts the paper's shape on deterministic counters and writes
# its table to benchmarks/results/ (< 1 min).  Not the performance
# benchmark - that is bench-canonical above.
bench-paper:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-only

# Fails if a module under src/repro lacks a docstring, a layer or metric
# of the canonical benchmark is undocumented, or README / ARCHITECTURE /
# this Makefile / ci.yml name a make target or file that does not exist,
# or README / ARCHITECTURE pass a public constructor an option it lacks,
# or a doc or docstring names a tests/ file::test_id that does not exist.
docs-check:
	$(PYTHON) tools/docs_check.py
