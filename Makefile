# Development targets.  Everything runs from the repo root with no
# installation step: PYTHONPATH=src is injected here.

PYTHON    ?= python
PYTHONPATH := $(CURDIR)/src
export PYTHONPATH

# Benchmark wall-clock ratios are only meaningful when exactly one
# measurement runs at a time: `make -jN` interleaving two bench suites
# corrupts every committed BENCH_*.json number.  Nothing in this
# Makefile benefits from parallel make, so pin the whole file serial.
.NOTPARALLEL:

.PHONY: help test test-fault test-evolution test-replication loc loc-check perfbench-smoke bench bench-all bench-chase-bulk-tiny bench-weak bench-weak-tiny bench-weak-deletes bench-weak-deletes-tiny bench-weak-local bench-weak-local-tiny bench-query bench-query-tiny bench-serve bench-serve-tiny bench-replication bench-replication-tiny bench-evolution bench-evolution-tiny profile-chase docs clean

help:
	@echo "targets:"
	@echo "  test                    - tier-1 test suite (pytest -x -q over tests/)"
	@echo "  test-fault              - durability suite: WAL/snapshot units, crash-point recovery matrix, I/O-fault isolation (quarantine/repair), server concurrency (includes slow stress tests), golden store bytes, frame codec and format-1 stores"
	@echo "  test-evolution          - schema-evolution suite: op catalog, incremental re-check vs full analysis, online migration oracles, migration crash-point recovery matrix"
	@echo "  test-replication        - replication suite: WAL shipping/anti-entropy units, exactly-once sessions, kill-and-failover matrix under concurrent load"
	@echo "  loc                     - design-size measures: per-module line counts of src/repro/weak and the named parameters of each public service constructor, then per-module line counts of src/repro/data and src/repro/query"
	@echo "  loc-check               - the same measures, failing when the src/repro/weak line total, the named-parameter total or the src/repro/query line total exceeds its ceiling in tools/loc.py"
	@echo "  perfbench-smoke         - 1 s perfbench run of each workload, untraced and traced (every run checks its own answers; fails on a nonzero exit)"
	@echo "  bench                   - all benchmarks; regenerates BENCH_chase.json, BENCH_weak.json and benchmarks/results.txt"
	@echo "  bench-all               - every bench suite, strictly one after another (single recipe, immune to -j)"
	@echo "  bench-chase-bulk-tiny   - bulk-kernel vs indexed engine at smoke scale (CI gate: >=2x)"
	@echo "  bench-weak              - weak-instance query service vs rebuild-per-query; regenerates BENCH_weak.json"
	@echo "  bench-weak-tiny         - the same benchmark at smoke scale (CI: equivalence only, no artifact)"
	@echo "  bench-weak-deletes      - provenance-scoped deletes vs invalidate-and-rebuild; regenerates BENCH_weak.json"
	@echo "  bench-weak-deletes-tiny - the delete benchmark at smoke scale (CI: equivalence only, no artifact)"
	@echo "  bench-weak-local        - sharded local path vs global chase-method service; regenerates BENCH_weak.json"
	@echo "  bench-weak-local-tiny   - the sharded benchmark at smoke scale (CI: equivalence only, no artifact)"
	@echo "  bench-query             - shard-routed query engine vs one global live tableau (gate: >=5x); regenerates BENCH_weak.json"
	@echo "  bench-query-tiny        - the query-layer benchmark at smoke scale (CI: equivalence only, no artifact)"
	@echo "  bench-serve             - durable concurrent serving: worker-scaling throughput + 100k-row crash recovery; regenerates BENCH_serve.json"
	@echo "  bench-serve-tiny        - the serving benchmark at smoke scale (CI: equivalence only, no artifact)"
	@echo "  bench-replication       - sync-ship commit overhead (gate: <=2x) + failover-to-first-ack latency (gate: <1s); regenerates BENCH_serve.json"
	@echo "  bench-replication-tiny  - the replication benchmark at smoke scale (CI: invariants only, no artifact)"
	@echo "  bench-evolution         - online incremental migration vs restart-the-world (gate: >=5x); regenerates BENCH_weak.json"
	@echo "  bench-evolution-tiny    - the evolution benchmark at smoke scale (CI: equivalence only, no artifact)"
	@echo "  profile-chase           - cProfile top-20 of the bulk kernel and indexed engine on the cascade workload (local tooling, no artifact)"
	@echo "  docs                    - render the API reference with pydoc into docs/api/"
	@echo "  clean                   - remove caches and generated docs"

test:
	$(PYTHON) -m pytest -x -q

# The full durability story in one target: WAL/snapshot unit tests,
# the kill-and-recover matrix over every injected crash point, the
# multi-writer server suite — slow stress tests included (the tier-1
# run skips nothing either; this target just scopes the fault files) —
# and the on-disk format: the golden-store bytes, the one-frame codec,
# and a committed store of the pre-frame format that must still open.
test-fault:
	$(PYTHON) -m pytest tests/test_durable.py tests/test_durable_recovery.py tests/test_fault_isolation.py tests/test_server_concurrency.py tests/test_golden_store.py tests/test_store_format.py -q

# The whole evolution story in one target: op parsing/application units,
# incremental-vs-full independence agreement, online-migration oracle
# matrix (every op equals a from-scratch rebuild), and the durable
# kill-and-recover matrix over every evolve.* crash point.
test-evolution:
	$(PYTHON) -m pytest tests/test_evolution.py tests/test_evolution_recovery.py -q

# The replication story in one target: shipping/anti-entropy/session
# units (property test for replay idempotence included) plus the
# kill-and-failover matrix under concurrent server load.
test-replication:
	$(PYTHON) -m pytest tests/test_replication.py tests/test_replication_recovery.py tests/test_replica_labels.py -q

# The two "quality of design" measures ROADMAP tracks: how many lines
# src/repro/weak holds, module by module, and how many named knobs each
# public service constructor takes (each class counted once, its
# aliases named on its line).  Then, with totals of their own, the line
# counts of src/repro/data and src/repro/query.
loc:
	$(PYTHON) tools/loc.py

# The same measures held to the ceilings committed in tools/loc.py: a
# change that re-adds a wrapper class, a knob or a second query path
# fails here.
loc-check:
	$(PYTHON) tools/loc.py --check

# One short perfbench run per workload, untraced and traced.  Every run
# checks its answers against the model and a crash-copy recovery and
# exits nonzero on any failure; the traced run also wraps program
# methods by name, so a rename that breaks those wrappers fails here.
perfbench-smoke:
	@for w in ingest query-mix; do for t in 0 1; do \
		echo "perfbench-smoke: $$w --trace $$t"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace $$t || exit 1; \
	done; done

# bench_* files are not collected by the default pytest run, so name them.
bench:
	$(PYTHON) -m pytest benchmarks/bench_chase.py benchmarks/bench_scaling.py -q
	$(PYTHON) -m pytest $(filter-out benchmarks/bench_chase.py benchmarks/bench_scaling.py,$(wildcard benchmarks/bench_*.py)) -q

# Strictly serial sweep of every bench suite: one recipe, one suite at
# a time, so even `make -jN bench-all` cannot interleave measurements
# (committed BENCH_*.json ratios assume an otherwise idle machine).
bench-all:
	$(PYTHON) -m pytest benchmarks/bench_chase.py benchmarks/bench_scaling.py -q && \
	$(PYTHON) -m pytest benchmarks/bench_weak_queries.py -q && \
	$(PYTHON) -m pytest benchmarks/bench_weak_deletes.py -q && \
	$(PYTHON) -m pytest benchmarks/bench_weak_local.py -q && \
	$(PYTHON) -m pytest benchmarks/bench_query.py -q && \
	$(PYTHON) -m pytest $(filter-out benchmarks/bench_chase.py benchmarks/bench_scaling.py benchmarks/bench_weak_queries.py benchmarks/bench_weak_deletes.py benchmarks/bench_weak_local.py benchmarks/bench_query.py,$(wildcard benchmarks/bench_*.py)) -q

bench-chase-bulk-tiny:
	REPRO_BENCH_CHASE_TINY=1 $(PYTHON) -m pytest benchmarks/bench_chase.py::test_bulk_vs_indexed_large -q

# cProfile top-20 (cumulative) over the cascade workload, bulk kernel
# then indexed engine — local tooling for kernel work, committed nowhere.
profile-chase:
	$(PYTHON) -c "\
	import cProfile, pstats, io, time; \
	from repro.chase.bulk import chase_fds_bulk; \
	from repro.chase.engine import chase_fds; \
	from repro.chase.tableau import ChaseTableau; \
	from repro.workloads.states import cascade_chain_workload; \
	schema, F, state = cascade_chain_workload(50, 201); fds = tuple(F); \
	tab = ChaseTableau.from_state(state); \
	p = cProfile.Profile(); p.enable(); chase_fds_bulk(tab, fds); p.disable(); \
	print('== bulk kernel (50x201 cascade) =='); \
	pstats.Stats(p).sort_stats('cumulative').print_stats(20); \
	tab2 = ChaseTableau.from_state(state, columnar=False); \
	p2 = cProfile.Profile(); p2.enable(); chase_fds(tab2, fds, bulk=False); p2.disable(); \
	print('== indexed engine (same workload) =='); \
	pstats.Stats(p2).sort_stats('cumulative').print_stats(20)"

bench-weak:
	$(PYTHON) -m pytest benchmarks/bench_weak_queries.py -q

bench-weak-tiny:
	REPRO_BENCH_WEAK_TINY=1 $(PYTHON) -m pytest benchmarks/bench_weak_queries.py -q

bench-weak-deletes:
	$(PYTHON) -m pytest benchmarks/bench_weak_deletes.py -q

bench-weak-deletes-tiny:
	REPRO_BENCH_WEAK_DELETES_TINY=1 $(PYTHON) -m pytest benchmarks/bench_weak_deletes.py -q

bench-weak-local:
	$(PYTHON) -m pytest benchmarks/bench_weak_local.py -q

bench-weak-local-tiny:
	REPRO_BENCH_WEAK_LOCAL_TINY=1 $(PYTHON) -m pytest benchmarks/bench_weak_local.py -q

bench-query:
	$(PYTHON) -m pytest benchmarks/bench_query.py -q

bench-query-tiny:
	REPRO_BENCH_QUERY_TINY=1 $(PYTHON) -m pytest benchmarks/bench_query.py -q

bench-serve:
	$(PYTHON) -m pytest benchmarks/bench_serve.py -q

bench-serve-tiny:
	REPRO_BENCH_SERVE_TINY=1 $(PYTHON) -m pytest benchmarks/bench_serve.py -q

bench-replication:
	$(PYTHON) -m pytest benchmarks/bench_replication.py -q

bench-replication-tiny:
	REPRO_BENCH_REPLICATION_TINY=1 $(PYTHON) -m pytest benchmarks/bench_replication.py -q

bench-evolution:
	$(PYTHON) -m pytest benchmarks/bench_evolution.py -q

bench-evolution-tiny:
	REPRO_BENCH_EVOLUTION_TINY=1 $(PYTHON) -m pytest benchmarks/bench_evolution.py -q

docs:
	rm -rf docs/api
	mkdir -p docs/api
	cd docs/api && $(PYTHON) -m pydoc -w repro \
		repro.schema repro.data repro.deps repro.deps.closure repro.deps.fdset \
		repro.chase repro.chase.tableau repro.chase.engine repro.chase.bulk \
		repro.chase.reference \
		repro.chase.satisfaction repro.core repro.core.embedding repro.core.loop \
		repro.core.independence repro.core.maintenance repro.core.counterexamples \
		repro.weak repro.weak.representative repro.weak.service \
		repro.weak.sharded repro.weak.durable repro.weak.server \
		repro.weak.replication \
		repro.query repro.query.ast repro.query.parser \
		repro.query.planner repro.query.engine \
		repro.workloads >/dev/null
	@echo "API reference written to docs/api/ (open docs/api/repro.html)"

clean:
	rm -rf docs/api .pytest_cache benchmarks/__pycache__ tests/__pycache__
	find . -name '__pycache__' -type d -prune -exec rm -rf {} +
