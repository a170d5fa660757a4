# Developer entry points. All targets run from the repo root and need
# only the Python already in the environment (src/ is put on PYTHONPATH
# explicitly, so no install step is required).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-canonical bench-selftest bench-paper profile-fresh profile-warm profile-churn profile-cold profile-plans chaos-report health-report replay trace-dump audit-oracle docs-check loc

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
# with never-seen literals in known shapes, single-threaded — the median
# timed plainly with parse_query / compile() / Planner.prepare calls per
# read, the miss-path split (front end / strategy / bind / plan.template
# / plan.bind / first minus repeat execution of a plan), Planner.prepare,
# rewriter.rewrite and compile() calls and GC pause ms per request, then
# under cProfile as ms per src/repro layer plus the top functions
# (--mode warm|churn for the other request kinds).  Exits non-zero if a
# fresh read of a known shape parses or runs phase 1 of planning.  For
# finding waste; bench/ measures a change.
N ?= 200
profile-fresh:
	$(PYTHON) tools/profile_request.py --mode fresh -n $(N)

# The same for a warm request (one fixed text per querier and shape:
# the statement memo skips parsing and the plan cache hits, so what is
# left is the engine — scans, the guard kernel, projection), then the
# guard-branch calls and rows per call of each warm read of the
# canonical serve_warm world, by shape, and its compiled-expression
# cache look-ups and CTE tuples copied (a cached plan's operators are
# resolved on its first execution; a guarded CTE is held as heap
# rowids).  Exits non-zero if a warm read parses or compiles, makes
# more guard-branch calls than its BitmapOr has arms, or makes any
# compiled-expression look-up or CTE tuple copy — counts, which no
# host noise moves.
profile-warm:
	$(PYTHON) tools/profile_request.py --mode warm -n $(N)

# ... and under policy churn ([1 write, 5 reads]): prints the median
# read after a write next to the median warm read — what a write costs
# the next request — then that read's own time per stage timed plainly
# (release / guard maintenance / strategy / rewrite / plan.template /
# plan.bind / guard-kernel build / compile() / execute / other) and its
# compile() calls, dispatch shells and guard branches counted apart.
profile-churn:
	$(PYTHON) tools/profile_request.py --mode churn -n $(N)

# ... and for a cold request, each querier's first, which generates its
# guards (Section 4), in the canonical serve_warm world (bench/workloads.py,
# bench/system.py): the median over three fresh instances of it and its
# split timed plainly (front end / candidates / merge sweep / selection /
# guard persistence / strategy / rewrite / bind / plan.template /
# plan.bind / guard-kernel build / compile() / execute / other), the
# share the named stages hold, its compile() calls (dispatch shells,
# guard branches, other) and its selectivity_range calls, facts merges
# and guard-branch renderings, then guard generation for one shop at
# 150 / 400 / 1 000 / 2 000 policies and how it grows, then a fourth
# world's cold requests under cProfile.  Exits non-zero if a cold
# request makes more selectivity_range calls or facts merges than the
# tool's COLD_CEILINGS.
profile-cold:
	$(PYTHON) tools/profile_request.py --mode cold -n 36

# The planner's access-path choice on the canonical serve_warm world
# (96 querier x SQL pairs): per benchmark query shape, the Section 5.5
# strategy label, the path actually planned, and every candidate path's
# estimated cost, measured cost units and median wall ms (of 5 runs);
# then the wall-clock regret and how often the planned path is the
# cost-unit argmin.  ~10 s.
profile-plans:
	$(PYTHON) tools/profile_request.py --mode plans -n 5

# Chaos smoke: replay a seeded matrix of fault plans against the
# fault-free oracle and print the per-seed outcome table (exits
# non-zero on any divergence or missing teeth).
chaos-report:
	$(PYTHON) tools/chaos_report.py

# Health smoke: render the cluster dashboard, fail one shard, verify
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

# Lines of Python per tree, the figures every CHANGES.md entry reports.
loc:
	@for tree in src tests tools bench benchmarks; do \
		printf '%-12s %7d\n' "$$tree/" "$$(find $$tree -name '*.py' -exec cat {} + | wc -l)"; \
	done

# Fails if a module under src/repro lacks a docstring, a layer or metric
# of the canonical benchmark is undocumented, or README / ARCHITECTURE /
# this Makefile / ci.yml name a make target or file that does not exist,
# or README / ARCHITECTURE pass a public constructor an option it lacks,
# or a doc or docstring names a tests/ file::test_id that does not exist.
docs-check:
	$(PYTHON) tools/docs_check.py
