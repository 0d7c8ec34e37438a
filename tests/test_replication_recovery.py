"""The kill-and-failover matrix: a primary store dies under concurrent
client load and the service keeps its promises.

The contract, per leg:

* **Every acked write is present after failover** — an acknowledged
  insert committed on the primary AND (sync shipping) on every
  reachable replica, so promotion cannot lose it.
* **The promoted shard is observationally equivalent** to a
  from-scratch chase oracle over the recovered state — failover
  re-routes storage, it must not damage derivability.
* **Duplicate retried submissions apply exactly once** — the
  ``(session_id, seq)`` stamp rides the WAL frame and the snapshot
  session table, both of which replicate with the chain.

Fault legs mirror the CI matrix names: kill-primary-mid-commit,
kill-primary-mid-snapshot, replica-EIO-during-ship, plus crashes
*inside* the failover protocol itself (the
:data:`~repro.weak.replication.REPLICATION_CRASH_POINTS` seam).
"""

import pytest

from repro.weak.durable import verify_store
from repro.weak.replication import ReplicaStore, ReplicatedShardedService
from repro.weak.server import WeakInstanceServer
from repro.workloads.schemas import disjoint_star_schema

from tests.harness.drivers import (
    assert_observationally_equivalent,
    reopen_replicated,
)
from tests.harness.faults import FaultInjector, FaultyIO, InjectedCrash

N_SCHEMES = 4


@pytest.fixture
def star4():
    return disjoint_star_schema(N_SCHEMES)


def scheme_row(schema, name, j):
    index = name[1:]
    return dict(
        zip(schema[name].attributes.names, (f"k{j}", f"a{index}{j}", f"b{index}{j}"))
    )


def query_pool(schema):
    return [tuple(s.attributes.names) for s in schema]


def shard_rows(service, name):
    return sorted(tuple(t.values) for t in service.state()[name])


def submit_wave(server, schema, start, count):
    """``count`` inserts per scheme, pipelined; returns the futures
    tagged with their target rows."""
    futures = []
    for j in range(start, start + count):
        for s in schema:
            r = scheme_row(schema, s.name, j)
            futures.append((s.name, r, server.submit_insert(s.name, r)))
    return futures


def drain(futures):
    """Wait for every future; returns the acked ``(scheme, row)``
    pairs and asserts none errored."""
    acked = []
    for name, r, future in futures:
        outcome = future.result(timeout=60)
        assert outcome.accepted, (name, r, outcome.reason)
        acked.append((name, r))
    return acked


def assert_acked_present(service, schema, acked):
    for name, r in acked:
        values = tuple(r[a] for a in schema[name].attributes.names)
        assert values in {
            tuple(t.values) for t in service.state()[name]
        }, f"acked write {values} missing from {name} after failover"


class TestKillPrimaryMidCommit:
    @pytest.mark.usefixtures("one_io_retry")
    def test_acked_writes_survive_and_service_keeps_serving(
        self, tmp_path, star4
    ):
        schema, fds = star4
        primary_io = FaultyIO()
        svc = ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"],
            io=primary_io,
        )
        with WeakInstanceServer(svc, workers=2) as server:
            acked = drain(submit_wave(server, schema, 0, 6))
            # the disk under R1's primary dies mid-stream: every
            # subsequent WAL write/fsync on it errors persistently
            primary_io.kill(match="shards/R1")
            acked += drain(submit_wave(server, schema, 6, 6))
            assert svc.stats.failovers == 1
            assert svc.primary_of("R1") == "r1"
            for other in ("R2", "R3", "R4"):
                assert svc.primary_of(other) == "primary"
            assert server.health()["shards"]["R1"] == "serving"
            assert_acked_present(server, schema, acked)
            assert_observationally_equivalent(
                server, schema, fds, query_pool(schema)
            )
        svc.close()


class TestKillPrimaryMidSnapshot:
    @pytest.mark.usefixtures("one_io_retry")
    def test_snapshot_failure_fails_over_and_keeps_acks(
        self, tmp_path, star4
    ):
        schema, fds = star4
        primary_io = FaultyIO()
        # every snapshot write on R2's primary dir fails from the
        # start; the small interval forces the attempt mid-load
        primary_io.fail(
            "snapshot.write", match="shards/R2", occurrence=1, times=None
        )
        svc = ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"],
            io=primary_io,
            snapshot_interval=4,
        )
        with WeakInstanceServer(svc, workers=2) as server:
            acked = drain(submit_wave(server, schema, 0, 10))
            assert svc.stats.failovers >= 1
            assert svc.primary_of("R2") == "r1"
            assert server.health()["shards"]["R2"] == "serving"
            assert_acked_present(server, schema, acked)
            assert_observationally_equivalent(
                server, schema, fds, query_pool(schema)
            )
        svc.close()


class TestReplicaEIODuringShip:
    def test_replica_faults_never_surface_to_clients(self, tmp_path, star4):
        schema, fds = star4
        replica_io = FaultyIO()
        replica = ReplicaStore(tmp_path / "r1", io=replica_io, label="r1")
        svc = ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[replica]
        )
        with WeakInstanceServer(svc, workers=2) as server:
            # a flaky replica disk: several ships fail mid-load
            replica_io.fail(
                "wal.fsync", match="shards", occurrence=2, times=4
            )
            acked = drain(submit_wave(server, schema, 0, 8))
            assert svc.stats.replica_ship_failures >= 1
            assert svc.stats.failovers == 0  # the primary never blinked
            assert_acked_present(server, schema, acked)
            # one more write per shard drives anti-entropy catch-up
            acked += drain(submit_wave(server, schema, 8, 1))
        svc.close()
        report = verify_store(tmp_path / "d", replicas=[tmp_path / "r1"])
        assert report["ok"], report["findings"]
        for name, entry in report["replicas"][str(tmp_path / "r1")][
            "shards"
        ].items():
            assert not entry["findings"], (name, entry)


class TestExactlyOnceAcrossFailover:
    @pytest.mark.usefixtures("one_io_retry")
    def test_retry_after_failover_applies_once(self, tmp_path, star4):
        schema, fds = star4
        primary_io = FaultyIO()
        svc = ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"],
            io=primary_io,
        )
        with WeakInstanceServer(svc, workers=2) as server:
            r1 = scheme_row(schema, "R1", 0)
            out = server.insert("R1", r1, session=("client-a", 1))
            assert out.accepted
            primary_io.kill(match="shards/R1")
            # a plain write trips the quarantine and drives the failover
            r2 = scheme_row(schema, "R1", 1)
            assert server.insert("R1", r2).accepted
            assert svc.stats.failovers == 1
            # the client never saw seq 1's ack land (say the connection
            # died mid-failover) and retries it — twice
            for _ in range(2):
                retry = server.insert("R1", r1, session=("client-a", 1))
                assert retry.accepted
            assert svc.stats.session_dedup_hits == 2
            # and a fresh sessioned write still applies (exactly once)
            r3 = scheme_row(schema, "R1", 2)
            assert server.insert("R1", r3, session=("client-a", 2)).accepted
            assert server.insert("R1", r3, session=("client-a", 2)).accepted
            assert svc.stats.session_dedup_hits == 3
            rows = shard_rows(server, "R1")
            assert len(rows) == 3, rows
        svc.close()


class TestCrashInsideFailover:
    @pytest.mark.usefixtures("one_io_retry")
    @pytest.mark.parametrize(
        "point", ["failover.begin", "failover.promoted"]
    )
    def test_crash_at_point_recovers_every_acked_write(
        self, tmp_path, star4, point
    ):
        """The failover protocol itself can die (the process crashes
        mid-promotion).  Either side of the swap, a restart over the
        same directories must recover every previously acked write —
        before the swap the primary chain still holds them, after it
        the promoted chain does (and the void-shard open failover
        re-routes automatically)."""
        schema, fds = star4
        primary_io = FaultyIO()
        svc = ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"],
            io=primary_io,
            fault_hook=FaultInjector(point),
        )
        acked = []
        for j in range(4):
            for s in schema:
                r = scheme_row(schema, s.name, j)
                assert svc.insert(s.name, r).accepted
                acked.append((s.name, r))
        primary_io.kill(match="shards/R1")
        with pytest.raises(InjectedCrash):
            svc.insert("R1", scheme_row(schema, "R1", 99))
        svc.close()
        recovered = reopen_replicated(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        )
        try:
            assert_acked_present(recovered, schema, acked)
            assert_observationally_equivalent(
                recovered, schema, fds, query_pool(schema)
            )
            # and the recovered service still takes writes on R1
            assert recovered.insert(
                "R1", scheme_row(schema, "R1", 100)
            ).accepted
        finally:
            recovered.close()
