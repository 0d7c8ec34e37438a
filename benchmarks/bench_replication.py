"""Replication benchmark: sync-ship commit overhead and failover
latency (``BENCH_serve.json#replication``).

**Commit overhead**: the sync-ship invariant — *acked ⟹ fsynced on
the primary AND on every reachable replica* — doubles the fsyncs on
every commit's critical path, so the honest question is what it costs
against an identical single-store run.  A 16-scheme disjoint star
takes an insert-heavy load (~11k rows in ``insert_many`` chunks, each
chunk durably committed before the next) twice: once on a plain
:class:`~repro.weak.durable.DurableShardedService`, once on a
:class:`~repro.weak.replication.ReplicatedShardedService` with one
sync replica.  The gate is ``overhead <= 2x``: shipping appends the
*already-encoded* frame blob (no re-serialization) and the replica
fsync is the only extra blocking work, so replication must cost at
most the second fsync it adds.  Runs are interleaved (single,
replicated, single, replicated, …) and the best replicated/single
pair is gated, for the same drift reason ``bench_serve`` pairs its
trials.

**Failover latency**: at the same ~11k-row scale the primary's disk
dies under one shard (persistent injected EIO) and the clock runs
from the first doomed write to its durable ack on the promoted
replica — quarantine, promotion, in-memory state collapse into a
clean snapshot on the replica's store, planner re-route, and the
retried write's own commit, all inside one
:meth:`~repro.weak.replication.ReplicatedShardedService.failover`
pass.  Gate: under one second.  Theorem 3 is what keeps this a
per-shard number — the other 15 shards never participate, so the
blast radius of the dead disk is one shard's snapshot, not a global
view change.

Tiny mode (``REPRO_BENCH_REPLICATION_TINY=1``, the CI smoke leg)
shrinks the load and asserts only the invariants (equal final states,
failover correctness), not the ratios.
"""

import os
import time

from repro.weak.durable import DurableShardedService
from repro.weak.replication import ReplicatedShardedService
from repro.workloads.schemas import disjoint_star_schema

from tests.harness.faults import FaultyIO

from benchmarks.reporting import BENCH_SERVE_JSON_PATH, emit, emit_bench_json

TINY = os.environ.get("REPRO_BENCH_REPLICATION_TINY") == "1"

if TINY:
    N_SCHEMES, ROWS_PER_SCHEME, CHUNK, TRIALS = 4, 48, 16, 1
else:
    N_SCHEMES, ROWS_PER_SCHEME, CHUNK, TRIALS = 16, 704, 64, 3


def _chunks(schema):
    """The insert-heavy stream: per-scheme fresh-key rows, in
    round-robin ``CHUNK``-sized batches so every commit covers every
    shard (the worst case for a sync ship — 16 replica fsyncs per
    commit, none amortizable against another shard's)."""
    names = sorted(s.name for s in schema)
    widths = {s.name: len(s.columns) for s in schema}
    batch = []
    for k in range(ROWS_PER_SCHEME):
        for name in names:
            batch.append(
                (name, tuple(f"{name}-{k}-{j}" for j in range(widths[name])))
            )
            if len(batch) == CHUNK:
                yield batch
                batch = []
    if batch:
        yield batch


def _run_ingest(service):
    t0 = time.perf_counter()
    accepted = 0
    for batch in _chunks(service.schema):
        outcomes = service.insert_many(batch)
        accepted += sum(1 for o in outcomes if o.accepted)
    elapsed = time.perf_counter() - t0
    return elapsed, accepted


def _ingest_stats(service, elapsed, accepted):
    return {
        "rows": accepted,
        "elapsed_s": round(elapsed, 3),
        "rows_per_sec": round(accepted / elapsed, 1),
        "wal_commits": service.stats.wal_commits,
        "fsyncs": service.stats.wal_fsyncs,
    }


def test_sync_ship_overhead(tmp_path):
    schema, fds = disjoint_star_schema(N_SCHEMES)
    best = None
    for trial in range(TRIALS):
        single = DurableShardedService(
            schema, fds, tmp_path / f"single-{trial}"
        )
        t_single, n_single = _run_ingest(single)
        state_single = single.state()
        single_stats = _ingest_stats(single, t_single, n_single)
        single.close()

        replicated = ReplicatedShardedService(
            schema, fds, tmp_path / f"repl-{trial}",
            replicas=[tmp_path / f"repl-{trial}-r1"],
        )
        t_repl, n_repl = _run_ingest(replicated)
        state_repl = replicated.state()
        repl_stats = _ingest_stats(replicated, t_repl, n_repl)
        repl_stats["frames_shipped"] = (
            replicated.stats.replica_frames_shipped
        )
        replicated.close()

        assert n_single == n_repl
        assert state_single == state_repl, (
            "replication changed the served state"
        )
        ratio = t_repl / t_single
        if best is None or ratio < best[0]:
            best = (ratio, single_stats, repl_stats)

    overhead, single_stats, repl_stats = best
    emit(
        f"replication-overhead: shards={N_SCHEMES} "
        f"rows={single_stats['rows']} chunk={CHUNK} | "
        f"single: {single_stats['rows_per_sec']}/s | "
        f"replicated(sync, 1 replica): {repl_stats['rows_per_sec']}/s | "
        f"overhead={overhead:.2f}x"
    )
    if TINY:
        return
    assert single_stats["rows"] >= 11_000
    assert overhead <= 2.0, (
        f"sync shipping to one replica must cost at most the extra "
        f"fsync it adds (<= 2x), got {overhead:.2f}x"
    )
    emit_bench_json(
        "replication",
        {
            "shards": N_SCHEMES,
            "rows": single_stats["rows"],
            "chunk": CHUNK,
            "trials": TRIALS,
            "replicas": 1,
            "single_store": single_stats,
            "replicated_sync": repl_stats,
            "commit_overhead": round(overhead, 2),
            "acceptance": "insert-heavy replicated-commit overhead "
            "<= 2x the single-store run (best interleaved pair); "
            "identical final state both sides",
        },
        path=BENCH_SERVE_JSON_PATH,
    )


def test_failover_latency(tmp_path, monkeypatch):
    # the dead disk quarantines after one immediate retry
    monkeypatch.setattr(ReplicatedShardedService, "IO_RETRIES", 1)
    monkeypatch.setattr(ReplicatedShardedService, "IO_BACKOFF", 0.0)
    schema, fds = disjoint_star_schema(N_SCHEMES)
    primary_io = FaultyIO()
    service = ReplicatedShardedService(
        schema, fds, tmp_path / "store", replicas=[tmp_path / "r1"],
        io=primary_io,
    )
    try:
        _elapsed, accepted = _run_ingest(service)
        sick = "R1"
        width = len(schema[sick].columns)
        primary_io.kill(match=f"shards/{sick}")

        t0 = time.perf_counter()
        outcome = service.insert(
            sick, tuple(f"post-failover-{j}" for j in range(width))
        )
        t_failover = time.perf_counter() - t0

        assert outcome.accepted, "auto-failover must absorb the dead disk"
        assert service.stats.failovers == 1
        assert service.primary_of(sick) == "r1"
        rows_after = service.total_tuples()
    finally:
        service.close()

    emit(
        f"replication-failover: shards={N_SCHEMES} rows={accepted} | "
        f"dead primary disk to first accepted write on the promoted "
        f"replica: {t_failover * 1e3:.1f}ms"
    )
    if TINY:
        return
    assert rows_after == accepted + 1
    assert t_failover < 1.0, (
        f"failover to first accepted write must land under a second "
        f"at ~11k-row scale, got {t_failover:.2f}s"
    )
    emit_bench_json(
        "replication_failover",
        {
            "shards": N_SCHEMES,
            "rows": accepted,
            "failover_to_first_ack_ms": round(t_failover * 1e3, 1),
            "acceptance": "dead primary disk (persistent EIO) to the "
            "first durably acked write on the promoted replica in "
            "under 1s, other shards untouched",
        },
        path=BENCH_SERVE_JSON_PATH,
    )
