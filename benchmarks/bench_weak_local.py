"""Headline sharded-maintenance benchmark: the independence-aware
local path vs the global chase-method service (ISSUE 4's tentpole,
supporting the ROADMAP's serve-heavy-traffic goal).

A 16-scheme *disjoint-star* schema (``Ri(Ki, Aia, Aib)`` with
``Ki → Aia, Ki → Aib`` — independent, the fully shardable regime)
holds an ~11k-tuple satisfying base state and faces an insert-heavy
stream: ~1.6k inserts (a tenth deliberately corrupted, plus the
occasional organic key collision) with 120 scheme-embedded window
queries spread evenly through them.  Both services must produce
identical answers.

* The **baseline** is ``WeakInstanceService(method="chase")`` — the
  general path that works for any schema: every insert is validated by
  incrementally chasing the global tableau, and every *rejected*
  insert poisons that tableau, forcing a full re-chase of the whole
  state on the next operation.  On a write-heavy stream with occasional
  conflicts this rebuild-per-reject dominates.
* The **sharded local path**
  (:class:`~repro.weak.sharded.ShardedWeakInstanceService`) exploits
  Theorem 3: each insert is validated in O(1) against its own scheme's
  embedded-cover indexes (rejects touch *nothing*), and every
  scheme-embedded query is answered from the scheme's own shard.

Because the mixed-stream speedup is dominated by what rejects cost the
baseline, the benchmark also measures a **collision-free** stream
(huge key domain, no corrupted tuples): there the gap is purely
accept-path maintenance + query locality, and the sharded path must
still win by the acceptance factor.  Both numbers are recorded in
``BENCH_weak.json#local_vs_chase`` (acceptance: mixed ≥ 2×, the
claimed target being ≥ 3×; collision-free ≥ 2×).

Tiny mode (``REPRO_BENCH_WEAK_LOCAL_TINY=1``, the CI smoke step)
shrinks the workload and asserts only the equivalences.
"""

import os
import time

from repro.weak.service import WeakInstanceService
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import disjoint_star_schema
from repro.workloads.states import insert_heavy_stream_workload

from benchmarks.reporting import BENCH_WEAK_JSON_PATH, emit, emit_bench_json

TINY = os.environ.get("REPRO_BENCH_WEAK_LOCAL_TINY") == "1"

if TINY:
    N_SCHEMES, N_BASE, N_INSERTS, N_QUERIES, DOMAIN = 5, 60, 120, 30, 500
else:
    N_SCHEMES, N_BASE, N_INSERTS, N_QUERIES, DOMAIN = 16, 700, 1_600, 120, 20_000


def _run(service, base, ops):
    t0 = time.perf_counter()
    service.load(base)
    answers = []
    for op in ops:
        if op.kind == "insert":
            service.insert(op.scheme, op.values)
        elif op.kind == "delete":
            service.delete(op.scheme, op.values)
        else:
            answers.append(frozenset(service.window(op.attributes).tuples))
    return answers, time.perf_counter() - t0


def _measure(schema, fds, base, ops):
    """Sharded local path and chase baseline over one stream; answers
    must agree."""
    sharded = ShardedWeakInstanceService(schema, fds)
    local_answers, t_local = _run(sharded, base, ops)
    baseline = WeakInstanceService(schema, fds, method="chase")
    chase_answers, t_chase = _run(baseline, base, ops)
    assert local_answers == chase_answers, (
        "sharded service diverged from the global chase service"
    )
    return sharded, t_local, baseline, t_chase


def test_local_vs_chase_insert_heavy():
    schema, F = disjoint_star_schema(N_SCHEMES, satellites=2)
    base, ops = insert_heavy_stream_workload(
        schema,
        F,
        n_base=N_BASE,
        n_inserts=N_INSERTS,
        n_queries=N_QUERIES,
        seed=42,
        domain_size=DOMAIN,
        invalid_ratio=0.1,
    )
    if not TINY:
        assert base.total_tuples() >= 10_000

    sharded, t_local, baseline, t_chase = _measure(schema, F, base, ops)
    speedup = t_chase / t_local

    # every query is scheme-embedded, so the planner must keep the
    # whole stream on the shard fast path
    assert sharded.stats.joined_windows == 0
    assert sharded.stats.shard_windows == N_QUERIES
    # both sides saw the same accept/reject stream
    assert (
        sharded.stats.inserts_rejected == baseline.stats.inserts_rejected > 0
    )

    emit(
        f"weak-local: rows={base.total_tuples()} ops={len(ops)} "
        f"queries={N_QUERIES} sharded={t_local:.2f}s chase={t_chase:.2f}s "
        f"speedup={speedup:.1f}x (rejects={sharded.stats.inserts_rejected} "
        f"chase_rebuilds={baseline.stats.rebuilds})"
    )

    # collision-free variant: huge key domain, no corrupted tuples —
    # isolates accept-path maintenance + query locality from what a
    # reject costs the poisoned global tableau
    cf_base, cf_ops = insert_heavy_stream_workload(
        schema,
        F,
        n_base=N_BASE,
        n_inserts=N_INSERTS,
        n_queries=N_QUERIES,
        seed=42,
        domain_size=10**9,
        invalid_ratio=0.0,
    )
    cf_sharded, t_cf_local, cf_baseline, t_cf_chase = _measure(
        schema, F, cf_base, cf_ops
    )
    cf_speedup = t_cf_chase / t_cf_local
    assert cf_sharded.stats.inserts_rejected == 0
    assert cf_baseline.stats.rebuilds <= 1

    emit(
        f"weak-local-accept-only: sharded={t_cf_local:.2f}s "
        f"chase={t_cf_chase:.2f}s speedup={cf_speedup:.1f}x"
    )

    # sharded cold load, measured on its own: loading the base state
    # builds the shards' FD indexes and nothing else — the sharded
    # service keeps no tableau, so a cold start chases nothing
    svc_cold = ShardedWeakInstanceService(schema, F)
    t0 = time.perf_counter()
    svc_cold.load(base)
    t_cold = time.perf_counter() - t0
    assert svc_cold.stats.bulk_loads == svc_cold.stats.rebuilds == 0
    emit(f"weak-local-cold-load: load={t_cold:.2f}s (no chase)")

    if TINY:
        return
    emit_bench_json(
        "local_vs_chase",
        {
            "workload": "insert_heavy_stream_workload(disjoint_star_schema(16))",
            "base_tuples": base.total_tuples(),
            "inserts": N_INSERTS,
            "queries": N_QUERIES,
            "inserts_rejected": sharded.stats.inserts_rejected,
            "chase_rebuilds": baseline.stats.rebuilds,
            "shard_windows": sharded.stats.shard_windows,
            "joined_windows": sharded.stats.joined_windows,
            # coarse rounding on purpose: this file is committed, and
            # millisecond noise should not dirty it on every re-run
            "sharded_seconds": round(t_local, 1),
            "chase_seconds": round(t_chase, 1),
            "speedup": round(speedup),
            # cold load measured on its own: index builds, no chase
            "cold_load_seconds": round(t_cold, 2),
            "accept_only": {
                "sharded_seconds": round(t_cf_local, 1),
                "chase_seconds": round(t_cf_chase, 1),
                "speedup": round(cf_speedup, 1),
            },
        },
        path=BENCH_WEAK_JSON_PATH,
    )
    assert speedup >= 2.0, (
        f"sharded local path only {speedup:.1f}x over the chase-method "
        f"service (sharded={t_local:.2f}s chase={t_chase:.2f}s)"
    )
    assert cf_speedup >= 2.0, (
        f"collision-free sharded path only {cf_speedup:.1f}x "
        f"(sharded={t_cf_local:.2f}s chase={t_cf_chase:.2f}s)"
    )


def test_update_locality():
    """Inserting into one shard must not disturb another shard's cached
    window — the per-shard cache-isolation the global service cannot
    offer (its single version stamp supersedes every cached window on
    any insert)."""
    schema, F = disjoint_star_schema(4, satellites=2)
    base, _ = insert_heavy_stream_workload(
        schema, F, n_base=30, n_inserts=0, n_queries=0, seed=7, domain_size=10**9
    )
    service = ShardedWeakInstanceService.from_state(base, F)
    r1 = schema.schemes[0].attributes
    warm = service.window(r1)
    hits = service.stats.window_cache_hits
    # a foreign-shard insert...
    out = service.insert("R2", (10**9 + 1, 1, 2))
    assert out.accepted
    # ...leaves R1's cached window untouched
    again = service.window(r1)
    assert again is warm
    assert service.stats.window_cache_hits == hits + 1
