"""Delete benchmark: provenance-scoped deletes vs invalidate-and-rebuild.

PR 2's service made inserts and queries incremental but served every
delete by throwing the live tableau away — on the headline mixed
stream, the handful of delete-triggered rebuilds *was* the service's
residual cost.  The scoped delete path retracts the one tableau row,
dissolves only the symbol classes its merges tainted, and re-runs the
incremental fixpoint over the affected rows
(:meth:`repro.chase.engine.IncrementalFDChaser.rechase_scoped`), so a
delete costs its footprint instead of a rebuild.

This benchmark runs a 10-scheme chain with a ~11k-tuple base state
through a delete-heavy stream (100 deletes evenly interleaved with 200
window queries) twice: once through the service and once through the
old invalidate-and-rebuild path — the state kept in a
:class:`~repro.core.maintenance.MaintenanceChecker`, the chased
tableau thrown away on every delete and re-derived once by the
one-shot :func:`repro.weak.representative.representative_instance`
before the next query, which serves windows from it.  Both sides must
produce identical answers; the speedup is recorded in
the ``deletes_vs_rebuild`` section of ``BENCH_weak.json`` (acceptance:
≥ 5×, with the scoped service performing at most 2 rebuilds).

Tiny mode (``REPRO_BENCH_WEAK_DELETES_TINY=1``, the CI smoke step)
shrinks the stream to seconds and asserts only the equivalence and the
rebuild counters, not the wall-clock ratio.
"""

import os
import time

from repro.core.maintenance import MaintenanceChecker
from repro.schema.attributes import AttributeSet
from repro.weak.representative import representative_instance
from repro.weak.service import WeakInstanceService
from repro.workloads.schemas import chain_schema
from repro.workloads.states import delete_heavy_stream_workload

from benchmarks.reporting import BENCH_WEAK_JSON_PATH, emit, emit_bench_json

TINY = os.environ.get("REPRO_BENCH_WEAK_DELETES_TINY") == "1"

if TINY:
    N_SCHEMES, N_BASE, N_DELETES, N_QUERIES, DOMAIN = 5, 40, 8, 24, 500
else:
    N_SCHEMES, N_BASE, N_DELETES, N_QUERIES, DOMAIN = 10, 1_300, 100, 200, 20_000


def _run_scoped(schema, fds, base, ops):
    """Drive the stream through the service (scoped deletes)."""
    t0 = time.perf_counter()
    service = WeakInstanceService(schema, fds, method="local")
    service.load(base)
    # force the initial chase before the stream (the local method defers
    # it to the first query) so a leading delete is already scoped
    service.representative()
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
    """The invalidate-and-rebuild baseline: identical state maintenance
    (local O(1) checks), but every update drops the chased tableau and
    the next query re-chases the current state once.  Returns the
    number of chases as its rebuild count (the initial one included,
    as the service counts it)."""
    t0 = time.perf_counter()
    checker = MaintenanceChecker(schema, fds, method="local")
    checker.load(base)
    tableau = representative_instance(checker.state(), fds)
    rebuilds = 1
    answers = []
    for op in ops:
        if op.kind == "insert":
            checker.insert(op.scheme, op.values)
            tableau = None
        elif op.kind == "delete":
            checker.delete(op.scheme, op.values)
            tableau = None
        else:
            if tableau is None:
                tableau = representative_instance(checker.state(), fds)
                rebuilds += 1
            facts = tableau.total_projection(AttributeSet(op.attributes))
            answers.append(frozenset(facts.tuples))
    return answers, time.perf_counter() - t0, rebuilds


def test_scoped_deletes_vs_rebuild_stream():
    schema, F = chain_schema(N_SCHEMES)
    base, ops = delete_heavy_stream_workload(
        schema,
        F,
        n_base=N_BASE,
        n_deletes=N_DELETES,
        n_queries=N_QUERIES,
        seed=42,
        domain_size=DOMAIN,
    )
    if not TINY:
        assert base.total_tuples() >= 10_000

    scoped_answers, t_scoped, scoped_stats = _run_scoped(schema, F, base, ops)
    rebuilt_answers, t_rebuild, baseline_rebuilds = _run_rebuild(
        schema, F, base, ops
    )

    assert scoped_answers == rebuilt_answers, (
        "scoped-delete service diverged from the invalidate-and-rebuild baseline"
    )
    assert len(scoped_answers) == N_QUERIES
    # the acceptance contract: deletes no longer rebuild (≤ 2 leaves
    # room for the fallback heuristic), while the baseline pays ≈ one
    # rebuild per delete
    assert scoped_stats.rebuilds <= 2, scoped_stats
    assert scoped_stats.scoped_rechases >= N_DELETES - 2, scoped_stats
    assert baseline_rebuilds >= int(N_DELETES * 0.8), baseline_rebuilds

    speedup = t_rebuild / t_scoped
    avg_affected = (
        scoped_stats.affected_rows_total / scoped_stats.scoped_rechases
        if scoped_stats.scoped_rechases
        else 0.0
    )
    emit(
        f"weak-deletes: rows={base.total_tuples()} deletes={N_DELETES} "
        f"queries={N_QUERIES} scoped={t_scoped:.2f}s rebuild={t_rebuild:.2f}s "
        f"speedup={speedup:.1f}x (scoped_rechases={scoped_stats.scoped_rechases} "
        f"rebuilds={scoped_stats.rebuilds} vs {baseline_rebuilds}; "
        f"avg_affected={avg_affected:.1f} max={scoped_stats.affected_rows_max}; "
        f"windows_retained={scoped_stats.windows_retained})"
    )
    if TINY:
        return
    emit_bench_json(
        "deletes_vs_rebuild",
        {
            "workload": "delete_heavy_stream_workload(chain_schema(10))",
            "base_tuples": base.total_tuples(),
            "deletes": N_DELETES,
            "queries": N_QUERIES,
            "stats": {
                "rebuilds": scoped_stats.rebuilds,
                "scoped_rechases": scoped_stats.scoped_rechases,
                "delete_fallbacks": scoped_stats.delete_fallbacks,
                "affected_rows_max": scoped_stats.affected_rows_max,
                "affected_rows_avg": round(avg_affected, 1),
                "windows_retained": scoped_stats.windows_retained,
            },
            "baseline_rebuilds": baseline_rebuilds,
            # coarse rounding on purpose: this file is committed, and
            # millisecond noise should not dirty it on every re-run
            "scoped_seconds": round(t_scoped, 1),
            "rebuild_seconds": round(t_rebuild, 1),
            "speedup": round(speedup),
        },
        path=BENCH_WEAK_JSON_PATH,
    )
    assert speedup >= 5.0, (
        f"scoped deletes only {speedup:.1f}x over invalidate-and-rebuild "
        f"(scoped={t_scoped:.2f}s rebuild={t_rebuild:.2f}s)"
    )
