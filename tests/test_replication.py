"""Per-shard replication: shipping, anti-entropy, failover, rejoin,
and exactly-once sessions.

The crash-matrix counterpart (kill-the-primary under concurrent server
load) lives in ``tests/test_replication_recovery.py``; this module
pins the mechanics — replica chains are byte-identical mirrors, a sick
replica never fails the primary, promotion picks the most-caught-up
chain, the stale-snapshot splice is refused, session stamps replicate
and fail over with the chain — plus the WAL-replay idempotence
property anti-entropy leans on.
"""

import errno
import shutil
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import (
    NoPromotableReplicaError,
    ReplicationError,
    SessionSequenceError,
    ShardQuarantinedError,
)
from repro.weak.durable import (
    DurableShardedService,
    StoreIO,
    _encode_record,
    verify_store,
)
from repro.weak.replication import (
    REPLICATION_CRASH_POINTS,
    ReplicaStore,
    ReplicatedShardedService,
)
from repro.schema.evolution import parse_evolution_op
from repro.weak.server import WeakInstanceServer
from repro.workloads.schemas import chain_schema, disjoint_star_schema

from tests.harness.faults import FaultyIO


@pytest.fixture
def chain2():
    return chain_schema(2)


def shard_rows(service, name):
    return sorted(tuple(t.values) for t in service.state()[name])


def row(schema, name, *values):
    return dict(zip(schema[name].attributes.names, values))


class SlowIO(StoreIO):
    """A replica disk whose WAL writes take ``delay`` seconds; sets
    ``writing`` when a write starts, so a test can act mid-ship."""

    def __init__(self, delay=0.2):
        self.delay = delay
        self.writing = threading.Event()

    def wal_write(self, handle, blob, path):
        self.writing.set()
        time.sleep(self.delay)
        super().wal_write(handle, blob, path)


class StallingIO(StoreIO):
    """A replica disk whose WAL fsyncs for one shard block, once
    ``armed``, until ``release`` is set; ``stalled`` fires when the
    first one blocks."""

    def __init__(self, shard):
        self.shard = shard
        self.armed = False
        self.stalled = threading.Event()
        self.release = threading.Event()

    def wal_fsync(self, handle, path):
        if self.armed and path.parent.name == self.shard:
            self.stalled.set()
            self.release.wait(10)
        super().wal_fsync(handle, path)


def chain_bytes(root, name):
    """(snapshot bytes or None, wal bytes) for one shard directory."""
    directory = root / "shards" / name
    snap = directory / "snapshot.json"
    wal = directory / "wal.log"
    return (
        snap.read_bytes() if snap.exists() else None,
        wal.read_bytes() if wal.exists() else b"",
    )


class TestShipping:
    def test_replica_chains_mirror_primary(self, tmp_path, chain2):
        schema, fds = chain2
        roots = [tmp_path / "r1", tmp_path / "r2"]
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=roots
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.insert("R2", row(schema, "R2", "b", "c"))
            svc.delete("R1", row(schema, "R1", "a", "b"))
            for name in ("R1", "R2"):
                primary = chain_bytes(tmp_path / "d", name)
                for root in roots:
                    assert chain_bytes(root, name) == primary
            assert svc.stats.replica_ship_failures == 0
            assert svc.stats.replica_frames_shipped == 6  # 3 frames × 2

    def test_snapshot_install_ships_and_truncates(self, tmp_path, chain2):
        schema, fds = chain2
        root = tmp_path / "r1"
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[root]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.snapshot()
            snap, wal = chain_bytes(root, "R1")
            assert snap is not None and wal == b""
            assert chain_bytes(tmp_path / "d", "R1") == (snap, b"")
            assert svc.stats.replica_snapshot_installs >= 1

    def test_stalled_replica_shard_does_not_stall_another(self, tmp_path):
        """Replica delivery is serialized per shard: while R1's ship
        hangs in the replica's fsync, a commit on R2 ships and returns."""
        schema, fds = disjoint_star_schema(2, satellites=1)
        io = StallingIO("R1")
        replica = ReplicaStore(tmp_path / "r", io=io, label="r")
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[replica]
        ) as svc:
            io.armed = True
            stuck = threading.Thread(target=svc.insert, args=("R1", (1, 10)))
            stuck.start()
            try:
                assert io.stalled.wait(5)
                done = threading.Event()

                def write_r2():
                    svc.insert("R2", (2, 20))
                    done.set()

                threading.Thread(target=write_r2, daemon=True).start()
                finished = done.wait(1.0)
            finally:
                io.release.set()
                stuck.join(5)
            assert finished, "R2's commit waited for R1's stalled replica"
            assert not stuck.is_alive()
            # values in canonical attribute order (A1a, K1)
            assert shard_rows(svc, "R1") == [(10, 1)]
            assert shard_rows(svc, "R2") == [(20, 2)]
            for name in ("R1", "R2"):
                primary = chain_bytes(tmp_path / "d", name)
                assert primary[1]  # the row's frame
                assert chain_bytes(tmp_path / "r", name) == primary
            assert svc.stats.replica_frames_shipped == 2
            assert svc.stats.replica_ship_failures == 0

    def test_concurrent_shard_ships_keep_counters_exact(self, tmp_path):
        """Shards ship concurrently under their own locks: with more
        threads than cores and a short switch interval, the shared
        ``replica_*`` counters lose no update and every replica chain
        mirrors its primary."""
        schema, fds = disjoint_star_schema(4, satellites=1)
        roots = [tmp_path / "r1", tmp_path / "r2"]
        rounds = 15

        def work(svc, i):
            for j in range(rounds):
                svc.insert(f"R{i}", (j, i))
                if j % 5 == 4:
                    svc.snapshot(f"R{i}")

        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=roots
        ) as svc:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(work, svc, i) for i in (1, 2, 3, 4)]
                    for future in futures:
                        future.result(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            stats = svc.stats
            assert stats.replica_frames_shipped == 4 * rounds * len(roots)
            assert stats.replica_snapshot_installs == 4 * 3 * len(roots)
            assert stats.replica_ship_failures == 0
            for i in (1, 2, 3, 4):
                primary = chain_bytes(tmp_path / "d", f"R{i}")
                for root in roots:
                    assert chain_bytes(root, f"R{i}") == primary

    def test_replica_fault_never_fails_the_primary(self, tmp_path, chain2):
        schema, fds = chain2
        sick_io = FaultyIO()
        sick = ReplicaStore(tmp_path / "sick", io=sick_io, label="sick")
        healthy = ReplicaStore(tmp_path / "ok", label="ok")
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[sick, healthy]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            sick_io.fail("wal.fsync", errno.EIO, match="R1", times=1)
            out = svc.insert("R1", row(schema, "R1", "c", "d"))
            assert out.accepted  # the primary committed regardless
            assert svc.stats.replica_ship_failures == 1
            lag = svc.replication_status()["shards"]["R1"]["replicas"]
            assert lag["sick"]["lag_frames"] == 1
            assert lag["sick"]["error"] is not None
            assert lag["ok"]["lag_frames"] == 0
            # the next ship runs anti-entropy and heals the laggard
            svc.insert("R1", row(schema, "R1", "e", "f"))
            assert chain_bytes(tmp_path / "sick", "R1") == chain_bytes(
                tmp_path / "d", "R1"
            )
            lag = svc.replication_status()["shards"]["R1"]["replicas"]
            assert lag["sick"]["lag_frames"] == 0
            assert lag["sick"]["error"] is None

    def test_lag_never_reports_an_ack_from_the_future(self, tmp_path, chain2):
        schema, fds = chain2
        slow = SlowIO()
        replica = ReplicaStore(tmp_path / "r1", io=slow)
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[replica]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            slow.writing.clear()
            with ThreadPoolExecutor(max_workers=1) as pool:
                second = pool.submit(
                    svc.insert, "R1", row(schema, "R1", "c", "d")
                )
                assert slow.writing.wait(5.0)  # the second ship is in flight
                lag = svc.replication_status()["shards"]["R1"]["replicas"]["r1"]
                assert lag["seconds_since_ack"] >= 0
                assert second.result(timeout=5.0).accepted

    def test_health_surfaces_replication(self, tmp_path, chain2):
        schema, fds = chain2
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            report = svc.health()
            entry = report["replication"]["shards"]["R1"]
            assert entry["primary"] == "primary"
            assert entry["epoch"] == 0
            assert entry["replicas"]["r1"]["lag_frames"] == 0
            assert entry["replicas"]["r1"]["seconds_since_ack"] is not None


class TestAntiEntropy:
    def test_stale_snapshot_is_never_splice_extended(self, tmp_path, chain2):
        """A replica that missed a snapshot install must be
        snapshot-copied, not appended to: its empty WAL is trivially a
        byte prefix of the primary's, but its chain starts from older
        state — the splice would silently drop the missed delta."""
        schema, fds = chain2
        sick_io = FaultyIO()
        sick = ReplicaStore(tmp_path / "sick", io=sick_io, label="sick")
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[sick]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.snapshot("R1")  # replica installs snapshot S1
            sick_io.kill(match="R1")
            svc.insert("R1", row(schema, "R1", "c", "d"))  # ship fails
            svc.snapshot("R1")  # install of S2 fails too
            sick_io.clear()
            svc.insert("R1", row(schema, "R1", "e", "f"))  # heals
            assert chain_bytes(tmp_path / "sick", "R1") == chain_bytes(
                tmp_path / "d", "R1"
            )
            assert svc.stats.replica_snapshot_copies >= 1
            # the replica's decoded chain holds every row
            summary = sick.chain_summary("R1")
            assert summary["rows"] + summary["frames"] >= 3

    def test_rejoin_fresh_store(self, tmp_path, chain2):
        schema, fds = chain2
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.snapshot("R1")
            svc.insert("R1", row(schema, "R1", "c", "d"))
            report = svc.rejoin("R1", tmp_path / "late")
            assert report["chain_before"]["frames"] == 0
            assert chain_bytes(tmp_path / "late", "R1") == chain_bytes(
                tmp_path / "d", "R1"
            )
            # and the late joiner now receives ships like any replica
            svc.insert("R1", row(schema, "R1", "e", "f"))
            assert chain_bytes(tmp_path / "late", "R1") == chain_bytes(
                tmp_path / "d", "R1"
            )

    def test_rejoin_without_demoted_store_raises(self, tmp_path, chain2):
        schema, fds = chain2
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        ) as svc:
            with pytest.raises(ReplicationError):
                svc.rejoin("R1")

    def test_verify_store_cross_checks_replicas(self, tmp_path, chain2):
        schema, fds = chain2
        root, replica = tmp_path / "d", tmp_path / "r1"
        with ReplicatedShardedService(
            schema, fds, root, replicas=[replica]
        ) as svc:
            for k in range(4):
                svc.insert("R1", row(schema, "R1", f"a{k}", f"b{k}"))
        report = verify_store(root, replicas=[replica])
        assert report["ok"]
        entry = report["replicas"][str(replica)]["shards"]["R1"]
        assert entry["wal_records"] == 4 and not entry["findings"]
        # flip one byte mid-frame in the replica WAL: divergence → exit 1
        wal = replica / "shards" / "R1" / "wal.log"
        data = bytearray(wal.read_bytes())
        data[10] ^= 0x40
        wal.write_bytes(bytes(data))
        report = verify_store(root, replicas=[replica])
        assert not report["ok"]
        assert any(
            "diverge" in f or "corruption" in f
            for f in report["replicas"][str(replica)]["shards"]["R1"]["findings"]
        )


class TestShardIdentity:
    @pytest.mark.parametrize("rebuild", ["evolve", "repair", "failover"])
    def test_shard_record_survives_same_name_rebuild(
        self, tmp_path, chain2, rebuild
    ):
        """Rebuilding R1 under its own name — an add-fd that changes
        its cover, a repair, a live failover — swaps its checker and
        tableau but keeps its record: the same lock (the one a front
        end holds across the swap), the same serving status, and the
        acknowledged rows."""
        schema, fds = chain2
        with DurableShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            lock = svc.shard_lock("R1")
            assert svc.shard_lock("R1") is lock
            if rebuild == "evolve":
                result = svc.evolve(parse_evolution_op("add-fd A2 -> A1"))
                assert result.rebuilt == ("R1",)
            elif rebuild == "repair":
                svc.repair("R1")
            else:
                svc.failover("R1")
            assert svc.shard_lock("R1") is lock
            assert svc.health()["shards"]["R1"] == "serving"
            assert shard_rows(svc, "R1") == [("a", "b")]
            assert svc.insert("R1", row(schema, "R1", "c", "d")).accepted


class TestReplicationStatusLifecycle:
    """``replication_status()`` reads each shard record's own
    replication state, so it follows the record through evolutions,
    failovers and rejoins."""

    LABELS = {"r1", "r2"}

    def test_split_lists_exactly_the_new_epochs_shards(self, tmp_path):
        schema, fds = disjoint_star_schema(2)
        roots = [tmp_path / label for label in sorted(self.LABELS)]
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=roots
        ) as svc:
            svc.insert("R2", row(schema, "R2", 1, "a", "b"))
            svc.evolve(
                parse_evolution_op("split R2 -> R2a(K2,A2a) + R2b(K2,A2b)")
            )
            svc.insert("R2a", {"K2": 2, "A2a": "c"})
            shards = svc.replication_status()["shards"]
            assert sorted(shards) == ["R1", "R2a", "R2b"]
            for name, entry in shards.items():
                assert set(entry["replicas"]) == self.LABELS, name
                for lag in entry["replicas"].values():
                    assert lag["lag_frames"] == 0 and lag["error"] is None
            for lag in shards["R2a"]["replicas"].values():
                assert lag["acked_offset"] > 0
            for root in roots:
                assert chain_bytes(root, "R2a") == chain_bytes(
                    tmp_path / "d", "R2a"
                )

    def test_failover_then_rejoin(self, tmp_path, chain2):
        schema, fds = chain2
        roots = [tmp_path / label for label in sorted(self.LABELS)]
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=roots
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            promoted = svc.failover("R1")["promoted"]
            status = svc.replication_status()["shards"]
            assert status["R1"]["epoch"] == 1
            assert status["R1"]["primary"] == promoted
            assert set(status["R1"]["replicas"]) == self.LABELS - {promoted}
            assert status["R2"]["epoch"] == 0
            assert set(status["R2"]["replicas"]) == self.LABELS
            svc.rejoin("R1")
            svc.insert("R1", row(schema, "R1", "c", "d"))
            entry = svc.replication_status()["shards"]["R1"]
            assert entry["epoch"] == 1
            assert set(entry["replicas"]) == (
                self.LABELS - {promoted}
            ) | {"primary"}
            for lag in entry["replicas"].values():
                assert lag["lag_frames"] == 0 and lag["acked_epoch"] == 1

    def test_same_name_rebuild_keeps_epoch_and_labels(self, tmp_path, chain2):
        schema, fds = chain2
        roots = [tmp_path / label for label in sorted(self.LABELS)]
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=roots
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.failover("R1")
            before = svc.replication_status()["shards"]["R1"]
            result = svc.evolve(parse_evolution_op("add-fd A2 -> A1"))
            assert result.rebuilt == ("R1",)
            after = svc.replication_status()["shards"]["R1"]
            assert after["epoch"] == before["epoch"] == 1
            assert set(after["replicas"]) == set(before["replicas"])
            assert after["primary"] == before["primary"]


class TestFailover:
    def test_crash_points_exported(self):
        assert "failover.begin" in REPLICATION_CRASH_POINTS
        assert "ship.begin" in REPLICATION_CRASH_POINTS

    def test_manual_failover_keeps_state_and_reroutes(self, tmp_path, chain2):
        schema, fds = chain2
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.insert("R2", row(schema, "R2", "b", "c"))
            result = svc.failover("R1")
            assert result["promoted"] == "r1"
            assert svc.primary_of("R1") == "r1"
            assert svc.primary_of("R2") == "primary"
            assert shard_rows(svc, "R1") == [("a", "b")]
            out = svc.insert("R1", row(schema, "R1", "c", "d"))
            assert out.accepted
            # the promoted shard's files live under the replica root
            assert str(tmp_path / "r1") in str(svc.wal_path("R1"))
            assert svc.stats.failovers == 1

    @pytest.mark.usefixtures("one_io_retry")
    def test_auto_failover_on_quarantine(self, tmp_path, chain2):
        schema, fds = chain2
        primary_io = FaultyIO()
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"],
            io=primary_io,
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            primary_io.kill(match="shards/R1")
            # the write that trips the quarantine is retried through
            # the promoted replica and still succeeds
            out = svc.insert("R1", row(schema, "R1", "c", "d"))
            assert out.accepted
            assert svc.stats.failovers == 1
            assert svc.primary_of("R1") == "r1"
            assert svc.health()["shards"]["R1"] == "serving"
            assert shard_rows(svc, "R1") == [("a", "b"), ("c", "d")]
            # the sibling shard never noticed
            assert svc.primary_of("R2") == "primary"

    @pytest.mark.usefixtures("one_io_retry")
    def test_quarantine_stands_without_replicas(self, tmp_path, chain2):
        schema, fds = chain2
        primary_io = FaultyIO()
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[],
            io=primary_io,
        ) as svc:
            primary_io.kill(match="shards/R1")
            with pytest.raises(ShardQuarantinedError):
                svc.insert("R1", row(schema, "R1", "a", "b"))
            assert svc.stats.failovers == 0

    def test_explicit_failover_without_replicas_raises(self, tmp_path, chain2):
        schema, fds = chain2
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[]
        ) as svc:
            with pytest.raises(NoPromotableReplicaError):
                svc.failover("R1")

    def test_void_shard_fails_over_at_open(self, tmp_path, chain2):
        """A primary whose shard chain is wholly unreadable at open
        recovers from the replica's chain instead of starting empty."""
        schema, fds = chain2
        root, replica = tmp_path / "d", tmp_path / "r1"
        with ReplicatedShardedService(
            schema, fds, root, replicas=[replica]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.snapshot("R1")
            svc.insert("R1", row(schema, "R1", "c", "d"))
        # the disk incident: the primary's R1 snapshot is destroyed
        # (every generation unreadable opens the shard quarantined and
        # "void" — its in-memory rows are not authoritative)
        (root / "shards" / "R1" / "snapshot.json").write_bytes(b"not json")
        with ReplicatedShardedService(
            schema, fds, root, replicas=[replica]
        ) as svc:
            assert svc.stats.failovers == 1
            assert svc.primary_of("R1") == "r1"
            assert shard_rows(svc, "R1") == [("a", "b"), ("c", "d")]
            out = svc.insert("R1", row(schema, "R1", "e", "f"))
            assert out.accepted

    def test_rejoin_after_failover_is_byte_identical(self, tmp_path, chain2):
        schema, fds = chain2
        root = tmp_path / "d"
        with ReplicatedShardedService(
            schema, fds, root, replicas=[tmp_path / "r1"]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.failover("R1")
            svc.insert("R1", row(schema, "R1", "c", "d"))
            report = svc.rejoin("R1")
            assert report["label"] == "primary"
            promoted_dir = svc.shard_store("R1").root
            assert chain_bytes(root, "R1") == chain_bytes(promoted_dir, "R1")
            assert svc.stats.rejoins == 1


class TestSessions:
    def test_duplicate_insert_returns_original_outcome(self, tmp_path, chain2):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            first = svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            dup = svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            assert first.accepted and dup.accepted
            assert svc.stats.session_dedup_hits == 1
            assert shard_rows(svc, "R1") == [("a", "b")]
            # the duplicate staged no second frame
            assert svc.stats.wal_records_appended == 1

    def test_duplicate_delete_returns_original_outcome(self, tmp_path, chain2):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            assert svc.delete("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            # retry after a lost ack: the tuple is long gone, but the
            # session remembers the delete found it
            assert svc.delete("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            assert svc.stats.session_dedup_hits == 1

    def test_sequence_behind_high_water_raises(self, tmp_path, chain2):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            svc.insert("R1", row(schema, "R1", "c", "d"), session=("c1", 2))
            with pytest.raises(SessionSequenceError):
                svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 1))

    def test_session_survives_restart_via_wal(self, tmp_path, chain2):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 7))
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            assert svc.stats.session_records == 1
            dup = svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 7))
            assert dup.accepted
            assert svc.stats.session_dedup_hits == 1
            assert shard_rows(svc, "R1") == [("a", "b")]

    def test_session_survives_snapshot_truncation(self, tmp_path, chain2):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 7))
            svc.snapshot("R1")  # the WAL frame holding the stamp is gone
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            dup = svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 7))
            assert dup.accepted
            assert svc.stats.session_dedup_hits == 1

    @pytest.mark.parametrize("path", ["restart", "snapshot-truncation"])
    def test_recovered_duplicate_returns_the_original_tuple(
        self, tmp_path, chain2, path
    ):
        """A duplicate answered from a recovered session stamp (the
        live outcome died with the old process) still reports the
        tuple the original insert stored."""
        schema, fds = chain2
        r = row(schema, "R1", "a", "b")
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            first = svc.insert("R1", r, session=("c1", 7))
            if path == "snapshot-truncation":
                svc.snapshot("R1")
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            dup = svc.insert("R1", r, session=("c1", 7))
            assert svc.stats.session_dedup_hits == 1
            assert dup.tuple is not None
            assert dup.tuple == first.tuple

    def test_session_survives_failover(self, tmp_path, chain2):
        schema, fds = chain2
        with ReplicatedShardedService(
            schema, fds, tmp_path / "d", replicas=[tmp_path / "r1"]
        ) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            svc.failover("R1")
            # the retry lands on the promoted shard: the stamp shipped
            # with the chain, so it deduplicates, not re-applies
            dup = svc.insert("R1", row(schema, "R1", "a", "b"), session=("c1", 1))
            assert dup.accepted
            assert svc.stats.session_dedup_hits == 1
            assert shard_rows(svc, "R1") == [("a", "b")]

    def test_server_sessions_exactly_once(self, tmp_path, chain2):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            with WeakInstanceServer(svc, workers=2) as server:
                r = row(schema, "R1", "a", "b")
                outs = [
                    server.insert("R1", r, session=("c9", 1)) for _ in range(3)
                ]
                assert all(o.accepted for o in outs)
                assert svc.stats.session_dedup_hits == 2
                assert shard_rows(svc, "R1") == [("a", "b")]

    def test_server_sessions_require_durability(self, tmp_path, chain2):
        from repro.exceptions import ReproError
        from repro.weak.sharded import ShardedWeakInstanceService

        schema, fds = chain2
        svc = ShardedWeakInstanceService(schema, fds)
        with WeakInstanceServer(svc, workers=1) as server:
            with pytest.raises(ReproError):
                server.insert("R1", row(schema, "R1", "a", "b"), session=("c", 1))


# -- one chain reader: every reader agrees on the same damaged bytes ------------


def _damage_wal(wal, damage):
    data = bytearray(wal.read_bytes())
    if damage == "torn-tail":
        del data[-5:]  # the last frame never fully landed
    else:
        # flip a payload byte of the second frame: the frames after it
        # are intact but stranded
        length, _ = struct.unpack_from("<II", data, 0)
        data[8 + length + 10] ^= 0x40
    wal.write_bytes(bytes(data))


class TestOneChainReader:
    @pytest.mark.parametrize(
        "damage, frames", [("torn-tail", 3), ("mid-file", 1)]
    )
    def test_every_reader_agrees_on_a_damaged_chain(
        self, tmp_path, chain2, damage, frames
    ):
        """The same damaged chain, read as a primary (reopen, repair,
        verify-store) and as a replica (chain summary, then a
        void-shard failover that promotes it), must give one
        replayed-record count and one row set."""
        schema, fds = chain2
        built = tmp_path / "built"
        with ReplicatedShardedService(
            schema, fds, built / "d", replicas=[built / "r1"]
        ) as svc:
            for k in range(2):
                svc.insert("R1", row(schema, "R1", f"a{k}", f"b{k}"))
            svc.snapshot("R1")
            for k in range(2, 6):
                svc.insert("R1", row(schema, "R1", f"a{k}", f"b{k}"))
        assert chain_bytes(built / "d", "R1") == chain_bytes(built / "r1", "R1")
        for store in ("d", "r1"):
            _damage_wal(built / store / "shards" / "R1" / "wal.log", damage)
        expected = sorted(
            (f"a{k}", f"b{k}") for k in range(2 + frames)
        )

        def fresh(label):
            target = tmp_path / label
            shutil.copytree(built, target)
            return target

        counts = {}
        root = fresh("reopen")
        with DurableShardedService(schema, fds, root / "d") as svc:
            assert shard_rows(svc, "R1") == expected
            counts["reopen"] = svc.stats.wal_records_replayed
        root = fresh("repair")
        with DurableShardedService(schema, fds, root / "d") as svc:
            report = svc.repair("R1")
            assert shard_rows(svc, "R1") == expected
            assert report["rows"] == len(expected)
            counts["repair"] = report["wal_records_replayed"]
        entry = verify_store(fresh("verify") / "d")["shards"]["R1"]
        assert entry["rows"] == len(expected)
        counts["verify_store"] = entry["wal_records"]
        summary = ReplicaStore(fresh("summary") / "r1").chain_summary("R1")
        assert summary["readable"] and summary["rows"] == len(expected)
        counts["chain_summary"] = summary["frames"]
        root = fresh("failover")
        (root / "d" / "shards" / "R1" / "snapshot.json").write_bytes(b"lost")
        with ReplicatedShardedService(
            schema, fds, root / "d", replicas=[root / "r1"]
        ) as svc:
            assert svc.stats.failovers == 1
            assert svc.primary_of("R1") == "r1"
            assert shard_rows(svc, "R1") == expected
            counts["failover"] = svc.stats.wal_records_replayed
        assert counts == dict.fromkeys(counts, frames)

    def test_primary_readers_agree_on_a_bad_generation_zero(
        self, tmp_path, chain2
    ):
        """A corrupt newest snapshot: reopen, repair and verify-store
        all fall back to the same older generation (replicas keep a
        single generation, so they have no fallback to agree on)."""
        schema, fds = chain2
        built = tmp_path / "built"
        with DurableShardedService(schema, fds, built) as svc:
            svc.insert("R1", row(schema, "R1", "a", "b"))
            svc.snapshot("R1")
            svc.insert("R1", row(schema, "R1", "c", "d"))
            svc.snapshot("R1")
            svc.insert("R1", row(schema, "R1", "e", "f"))
        snap = built / "shards" / "R1" / "snapshot.json"
        blob = bytearray(snap.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        snap.write_bytes(bytes(blob))
        # generation 1 holds {ab}; the WAL tail after generation 0
        # holds ef — the cd insert is the documented rollback
        expected = [("a", "b"), ("e", "f")]
        reopen, repair, scrub = (tmp_path / x for x in ("reopen", "repair", "scrub"))
        for target in (reopen, repair, scrub):
            shutil.copytree(built, target)
        with DurableShardedService(schema, fds, reopen) as svc:
            assert svc.stats.snapshot_fallbacks == 1
            assert shard_rows(svc, "R1") == expected
        with DurableShardedService(schema, fds, repair) as svc:
            report = svc.repair("R1")
            assert report["generation"] == 1
            assert shard_rows(svc, "R1") == expected
        entry = verify_store(scrub)["shards"]["R1"]
        assert entry["generation"] == 1
        assert entry["rows"] == len(expected)


# -- WAL-replay idempotence (the anti-entropy invariant) -------------------------


# FD-respecting value pairs (K determines A), so any replayed row set
# is a legal relation and recovery never has to reject anything
_VALUES = st.sampled_from(["a", "b", "c", "d"]).map(
    lambda k: (k, {"a": "x", "b": "y", "c": "z", "d": "x"}[k])
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["+", "-"]), _VALUES), min_size=1, max_size=24
)


class TestReplayIdempotence:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_OPS, cut=st.integers(min_value=0, max_value=24), data=st.data())
    def test_replaying_a_prefix_twice_equals_once(
        self, tmp_path_factory, ops, cut, data
    ):
        """Recovering from ``P + (P + rest)`` must equal recovering
        from ``P + rest`` — the last op per value decides membership,
        and duplicating a prefix never changes any value's last op.
        Anti-entropy's suffix shipping (and a replica re-appending
        frames it already held) is sound exactly because of this.
        Session stamps ride along: the ``>=`` high-water fold makes
        re-replayed stamps a no-op too."""
        schema, fds = chain_schema(1)
        cut = min(cut, len(ops))
        stamped = []
        for index, (op, values) in enumerate(ops):
            meta = None
            if data.draw(st.booleans(), label=f"stamp-{index}"):
                meta = {"sid": "s", "seq": index + 1}
            stamped.append(_encode_record(op, values, meta))
        once = b"".join(stamped)
        twice = b"".join(stamped[:cut]) + once
        states = []
        sessions = []
        for label, blob in (("once", once), ("twice", twice)):
            root = tmp_path_factory.mktemp(label)
            # lay the frames down as a real store's WAL and recover
            DurableShardedService(schema, fds, root).close()
            wal = root / "shards" / "R1" / "wal.log"
            wal.write_bytes(blob)
            with DurableShardedService(schema, fds, root) as svc:
                states.append(shard_rows(svc, "R1"))
                sessions.append(dict(svc._shard("R1").sessions))
        assert states[0] == states[1]
        assert sessions[0].keys() == sessions[1].keys()
        for sid in sessions[0]:
            assert sessions[0][sid]["seq"] == sessions[1][sid]["seq"]
