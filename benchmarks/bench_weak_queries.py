"""Headline service benchmark: live weak-instance queries vs
rebuild-per-query (supports the ROADMAP's serve-heavy-traffic goal).

A 10-scheme chain with a ~11k-tuple satisfying base state faces a
mixed stream of inserts (some invalid), a few deletes, and 200 window
queries.  The baseline answers every query the way the seed code did —
``repro.weak.representative.window`` on the current state, which
rebuilds and re-chases the whole tableau — while the
:class:`~repro.weak.service.WeakInstanceService` keeps the chased
tableau live and chases only what each accepted insert dirties.
Both sides must produce identical answers; the speedup is recorded in
``BENCH_weak.json`` (acceptance: ≥ 5×).

Tiny mode (``REPRO_BENCH_WEAK_TINY=1``, used by the CI smoke step)
shrinks the workload to a couple of seconds and asserts only the
equivalence, not the speedup — wall-clock ratios are meaningless at
that scale, but a correctness regression in the incremental path still
fails fast.
"""

import os
import time

from repro.chase.engine import chase_fds
from repro.chase.tableau import ChaseTableau
from repro.core.maintenance import MaintenanceChecker
from repro.weak.representative import window
from repro.weak.service import WeakInstanceService
from repro.workloads.schemas import chain_schema
from repro.workloads.states import mixed_stream_workload

from benchmarks.reporting import BENCH_WEAK_JSON_PATH, emit, emit_bench_json

TINY = os.environ.get("REPRO_BENCH_WEAK_TINY") == "1"

if TINY:
    N_SCHEMES, N_BASE, N_INSERTS, N_DELETES, N_QUERIES, DOMAIN = 5, 40, 20, 4, 30, 500
else:
    N_SCHEMES, N_BASE, N_INSERTS, N_DELETES, N_QUERIES, DOMAIN = (
        10, 1_300, 100, 10, 200, 20_000,
    )


def _run_service(schema, fds, base, ops):
    """The live service: load once, chase increments, serve windows."""
    t0 = time.perf_counter()
    service = WeakInstanceService(schema, fds, method="local")
    service.load(base)
    answers = []
    for op in ops:
        if op.kind == "insert":
            service.insert(op.scheme, op.values)
        elif op.kind == "delete":
            service.delete(op.scheme, op.values)
        else:
            answers.append(frozenset(service.window(op.attributes).tuples))
    return answers, time.perf_counter() - t0, service.stats


def _run_rebuild(schema, fds, base, ops):
    """The seed-style baseline: identical state maintenance (local
    O(1) checks), but every query re-derives the representative
    instance from scratch."""
    t0 = time.perf_counter()
    checker = MaintenanceChecker(schema, fds, method="local")
    checker.load(base)
    answers = []
    for op in ops:
        if op.kind == "insert":
            checker.insert(op.scheme, op.values)
        elif op.kind == "delete":
            checker.delete(op.scheme, op.values)
        else:
            answers.append(frozenset(window(checker.state(), fds, op.attributes).tuples))
    return answers, time.perf_counter() - t0


def _cold_load_row_at_a_time(schema, fds, base):
    """The service's cold load with the bulk kernel pinned off: the same
    validated load, then a row-major tableau with the merge log on (so
    deletes could be scoped) chased by the row-at-a-time engine."""
    checker = MaintenanceChecker(schema, fds, method="local")
    checker.load(base)
    tableau = ChaseTableau.from_state(checker.state(), columnar=False)
    tableau.enable_merge_log()
    result = chase_fds(tableau, fds, bulk=False)
    assert result.consistent


def test_service_vs_rebuild_stream():
    schema, F = chain_schema(N_SCHEMES)
    base, ops = mixed_stream_workload(
        schema,
        F,
        n_base=N_BASE,
        n_inserts=N_INSERTS,
        n_deletes=N_DELETES,
        n_queries=N_QUERIES,
        seed=42,
        domain_size=DOMAIN,
    )
    if not TINY:
        assert base.total_tuples() >= 10_000

    served, t_service, stats = _run_service(schema, F, base, ops)
    rebuilt, t_rebuild = _run_rebuild(schema, F, base, ops)

    assert served == rebuilt, "service answers diverged from rebuild-per-query"
    assert len(served) == N_QUERIES
    speedup = t_rebuild / t_service

    # cold load, measured on its own so the win of the bulk kernel is
    # visible instead of folded into the stream total: load the base
    # state and force the first chased tableau, through the service's
    # bulk path and through the row-at-a-time engine
    t0 = time.perf_counter()
    svc_bulk = WeakInstanceService(schema, F, method="local")
    svc_bulk.load(base)
    svc_bulk.representative()
    t_cold_bulk = time.perf_counter() - t0
    assert svc_bulk.stats.bulk_loads >= 1, (
        "the bulk kernel must be the default cold-load path"
    )
    t0 = time.perf_counter()
    _cold_load_row_at_a_time(schema, F, base)
    t_cold_row = time.perf_counter() - t0

    emit(
        f"weak-queries: rows={base.total_tuples()} ops={len(ops)} "
        f"queries={N_QUERIES} service={t_service:.2f}s "
        f"rebuild={t_rebuild:.2f}s speedup={speedup:.1f}x "
        f"(rebuilds={stats.rebuilds} cache_hits={stats.window_cache_hits})"
    )
    emit(
        f"weak-queries-cold-load: bulk={t_cold_bulk:.2f}s "
        f"row-at-a-time={t_cold_row:.2f}s "
        f"({t_cold_row / t_cold_bulk:.1f}x)"
    )
    if TINY:
        return
    emit_bench_json(
        "service_vs_rebuild",
        {
            "workload": "mixed_stream_workload(chain_schema(10))",
            "base_tuples": base.total_tuples(),
            "inserts": N_INSERTS,
            "deletes": N_DELETES,
            "queries": N_QUERIES,
            "service_rebuilds": stats.rebuilds,
            "incremental_chases": stats.incremental_chases,
            # coarse rounding on purpose: this file is committed, and
            # millisecond noise should not dirty it on every re-run
            "service_seconds": round(t_service, 1),
            "rebuild_seconds": round(t_rebuild, 1),
            "speedup": round(speedup),
            # cold load measured on its own (load + first chased
            # tableau); the bulk kernel is the service's path, the
            # row-at-a-time figure is the same load with it pinned off
            "cold_load_seconds": round(t_cold_bulk, 2),
            "cold_load_row_seconds": round(t_cold_row, 2),
            "cold_load_bulk_loads": svc_bulk.stats.bulk_loads,
        },
        path=BENCH_WEAK_JSON_PATH,
    )
    assert speedup >= 5.0, (
        f"incremental service only {speedup:.1f}x over rebuild-per-query "
        f"(service={t_service:.2f}s rebuild={t_rebuild:.2f}s)"
    )


def test_query_only_throughput():
    """Steady-state serving (no updates): the window cache should make
    repeated queries nearly free."""
    schema, F = chain_schema(min(N_SCHEMES, 6))
    base, ops = mixed_stream_workload(
        schema,
        F,
        n_base=min(N_BASE, 300),
        n_inserts=0,
        n_deletes=0,
        n_queries=max(N_QUERIES, 100),
        seed=7,
        domain_size=DOMAIN,
    )
    service = WeakInstanceService(schema, F, method="local")
    service.load(base)
    queries = [op.attributes for op in ops if op.kind == "query"]
    service.window(queries[0])  # build the tableau outside the timer
    t0 = time.perf_counter()
    service.window_many(queries)
    dt = time.perf_counter() - t0
    hit_rate = service.stats.window_cache_hits / service.stats.window_queries
    emit(
        f"weak-query-cache: {len(queries)} queries in {dt * 1000:.0f}ms "
        f"(cache hit rate {hit_rate:.0%})"
    )
    assert hit_rate > 0.5  # the pool is small, repeats must hit
