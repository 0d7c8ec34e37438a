"""The shard as the failure domain, under injected I/O faults.

The crash suite (``test_durable_recovery.py``) kills the whole
process; this suite breaks the *disk* under a live process — EIO,
ENOSPC, torn writes, bit-flips on read — through the
:class:`~tests.harness.faults.FaultyIO` seam, and pins the isolation
contract Theorem 3 licenses:

* a transient error is absorbed by bounded retry, invisibly;
* a persistent error quarantines exactly one shard: its writes and
  reads raise :class:`ShardQuarantinedError`, every other shard keeps
  answering correctly *during* the fault, and the planner routes
  shard-local windows around the sick shard;
* ENOSPC degrades the shard read-only instead, with probe-based
  recovery once space returns;
* after :meth:`repair` the shard is observationally equivalent to a
  from-scratch chase over the recovered state, and un-quarantined;
* mid-file WAL corruption is counted and surfaced, never silently
  absorbed as a torn tail;
* the server front end sheds overflowing submits with
  :class:`ServiceOverloadedError` and a quarantined shard never blocks
  another shard's writes or reads — even when both route to the same
  worker.
"""

import errno
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import (
    ReproError,
    ServiceOverloadedError,
    ShardQuarantinedError,
)
from repro.weak.durable import (
    SHARD_DEGRADED,
    SHARD_QUARANTINED,
    SHARD_SERVING,
    DurableShardedService,
    StoreIO,
    verify_store,
)
from repro.weak.server import WeakInstanceServer
from repro.schema.attributes import AttributeSet
from repro.workloads.schemas import chain_schema, disjoint_star_schema
from repro.workloads.states import embedded_query_pool

from tests.harness.drivers import assert_observationally_equivalent
from tests.harness.faults import FaultyIO

#: pairwise-disjoint schemes — every scheme-local window is planner-local,
#: so "routes around the sick shard" is testable without lookup joins
SCHEMA, FDS = disjoint_star_schema(3)
QUERY_POOL = embedded_query_pool(SCHEMA)
NAMES = tuple(s.name for s in SCHEMA)


#: retries in this module never sleep
pytestmark = pytest.mark.usefixtures("no_io_backoff")


def open_service(root, io=None, **options):
    return DurableShardedService(SCHEMA, FDS, root, io=io, **options)


def stored(service, name):
    return sorted(tuple(t.values) for t in service.state()[name])


def row(i, j):
    """The j-th row of scheme R{i}, in declared (insert) order:
    ``(K{i}, A{i}a, A{i}b)``."""
    return (f"k{j}", f"x{i}{j}", f"y{i}{j}")


def srow(i, j):
    """The same row in stored/window order — attribute sets sort, and
    ``A{i}a < A{i}b < K{i}``, so the key comes last."""
    key, sat_a, sat_b = row(i, j)
    return (sat_a, sat_b, key)


def window_rows(service, name):
    target = SCHEMA[name].attributes
    return sorted(
        tuple(t.value(a) for a in target) for t in service.window(target)
    )


class TestRetryAndQuarantine:
    def test_eio_transient_error_absorbed_by_retry(self, tmp_path):
        io = FaultyIO()
        with open_service(tmp_path / "d", io) as svc:
            io.fail("wal.write", errno.EIO, match="R1", times=1)
            assert svc.insert("R1", row(1, 0)).accepted
            assert svc.stats.io_retries >= 1
            assert svc.stats.shards_quarantined == 0
            assert svc.shard_status("R1") == SHARD_SERVING
        with open_service(tmp_path / "d") as back:
            assert stored(back, "R1") == [srow(1, 0)]

    def test_eio_torn_write_rolled_back_before_retry(self, tmp_path):
        """A retried append must not stack the failed attempt's partial
        frame under the good copy — the WAL stays frame-clean."""
        io = FaultyIO()
        with open_service(tmp_path / "d", io) as svc:
            io.fail("wal.write", errno.EIO, match="R1", times=1, partial=5)
            assert svc.insert("R1", row(1, 0)).accepted
            assert svc.insert("R1", row(1, 1)).accepted
        report = verify_store(tmp_path / "d")
        assert report["ok"]
        assert report["shards"]["R1"]["wal_records"] == 2
        with open_service(tmp_path / "d") as back:
            assert back.stats.wal_corrupt_frames == 0
            assert stored(back, "R1") == [srow(1, 0), srow(1, 1)]

    def test_eio_persistent_failure_quarantines_only_that_shard(self, tmp_path):
        io = FaultyIO()
        with open_service(tmp_path / "d", io) as svc:
            for i, name in enumerate(NAMES, start=1):
                assert svc.insert(name, row(i, 0)).accepted
            io.fail("wal.fsync", errno.EIO, match="R1", times=None)
            with pytest.raises(ShardQuarantinedError) as excinfo:
                svc.insert("R1", row(1, 1))
            assert excinfo.value.shard == "R1"
            assert svc.shard_status("R1") == SHARD_QUARANTINED
            assert svc.stats.shards_quarantined == 1
            health = svc.health()
            assert health["status"] == "degraded"
            assert health["shards"]["R1"] == SHARD_QUARANTINED
            assert "R1" in health["errors"]
            # the sick shard refuses both directions...
            with pytest.raises(ShardQuarantinedError):
                svc.insert("R1", row(1, 2))
            with pytest.raises(ShardQuarantinedError):
                svc.window(SCHEMA["R1"].attributes)
            # ...while every healthy shard keeps serving correctly
            for i, name in enumerate(NAMES[1:], start=2):
                assert svc.insert(name, row(i, 1)).accepted
                assert window_rows(svc, name) == sorted([srow(i, 0), srow(i, 1)])
                assert svc.health()["shards"][name] == SHARD_SERVING

    def test_health_agrees_with_inner_through_quarantine_and_repair(
        self, tmp_path
    ):
        """Shard status lives on the shard record, so the durable
        service's health and the inner sharded service's report the
        same status and error for every shard at every step."""
        io = FaultyIO()
        with open_service(tmp_path / "d", io) as svc:

            def assert_agree(r1_status):
                outer, inner = svc.health(), svc.health()
                assert outer["shards"] == inner["shards"]
                assert outer["errors"] == inner["errors"]
                assert outer["status"] == inner["status"]
                assert outer["shards"]["R1"] == r1_status

            for i, name in enumerate(NAMES, start=1):
                assert svc.insert(name, row(i, 0)).accepted
            assert_agree(SHARD_SERVING)
            io.fail("wal.fsync", errno.EIO, match="R1", times=None)
            with pytest.raises(ShardQuarantinedError):
                svc.insert("R1", row(1, 1))
            assert_agree(SHARD_QUARANTINED)
            io.clear()
            svc.repair("R1")
            assert_agree(SHARD_SERVING)

    def test_quarantine_blocks_exactly_the_plans_that_read_it(self, tmp_path):
        """On a chain a window's plan reads its start shard plus the
        shards it looks attributes up in: a quarantined R2 blocks every
        window and query whose plan reads R2 — rather than silently
        excluding it — and no other; the one-shot representative
        instance needs every shard."""
        schema, fds = chain_schema(3)
        io = FaultyIO()
        with DurableShardedService(
            schema, fds, tmp_path / "d", io=io
        ) as svc:
            svc.insert("R1", ("a", "b"))
            svc.insert("R2", ("b", "c"))
            svc.insert("R3", ("c", "d"))
            io.fail("wal.fsync", errno.EIO, match="R2", times=None)
            with pytest.raises(ShardQuarantinedError):
                svc.insert("R2", ("b2", "c2"))
            assert svc.health()["shards"]["R2"] == SHARD_QUARANTINED
            # [A2 A3] reads R2; [A1 A3], [A1 A4] and [A2 A4] look an
            # attribute up in R2
            for attrs in ("A2 A3", "A1 A3", "A1 A4", "A2 A4"):
                assert "R2" in svc._plan(AttributeSet(attrs)).shards
                with pytest.raises(ShardQuarantinedError):
                    svc.window(attrs)
                with pytest.raises(ShardQuarantinedError):
                    svc.query(f"select(A2='b', [{attrs}])" if "A2" in attrs
                              else f"[{attrs}]")
            # [A1 A2] and [A3 A4] read R1 and R3 alone
            assert [tuple(t.values) for t in svc.window("A1 A2")] == [("a", "b")]
            got = svc.query("select(A3='c', [A3 A4])")
            assert [tuple(t.values) for t in got] == [("c", "d")]
            with pytest.raises(ShardQuarantinedError):
                svc.representative()

    def test_quarantine_blocks_a_cached_query(self, tmp_path):
        """A query answered before the quarantine has its plan and its
        result cached; neither may read around the quarantine — the
        same text, another constant of its shape and its explain all
        raise, while a cached query over healthy shards still answers."""
        schema, fds = chain_schema(3)
        io = FaultyIO()
        with DurableShardedService(
            schema, fds, tmp_path / "d", io=io
        ) as svc:
            svc.insert("R1", ("a", "b"))
            svc.insert("R2", ("b", "c"))
            svc.insert("R3", ("c", "d"))
            blocked = "select(A2='b', [A2 A3])"
            healthy = "select(A3='c', [A3 A4])"
            assert [tuple(t.values) for t in svc.query(blocked)] == [("b", "c")]
            assert [tuple(t.values) for t in svc.query(healthy)] == [("c", "d")]
            io.fail("wal.fsync", errno.EIO, match="R2", times=None)
            with pytest.raises(ShardQuarantinedError):
                svc.insert("R2", ("b2", "c2"))
            for text in (blocked, "select(A2='zz', [A2 A3])"):
                with pytest.raises(ShardQuarantinedError):
                    svc.query(text)
                with pytest.raises(ShardQuarantinedError):
                    svc.explain(text)
            got = svc.query(healthy)
            assert [tuple(t.values) for t in got] == [("c", "d")]
            assert svc.stats.query_result_cache_hits >= 1


FAULT_MATRIX = [
    pytest.param("wal.write", errno.EIO, id="eio-wal.write"),
    pytest.param("wal.fsync", errno.EIO, id="eio-wal.fsync"),
    pytest.param("wal.write", errno.ENOSPC, id="enospc-wal.write"),
    pytest.param("wal.fsync", errno.ENOSPC, id="enospc-wal.fsync"),
]


class TestRepairMatrix:
    @pytest.mark.parametrize("op,err", FAULT_MATRIX)
    def test_io_fault_heal_repair_matches_oracle(self, tmp_path, op, err):
        """The acceptance matrix, I/O-fault half: at every injected
        fault the healthy shards keep answering correctly during the
        fault, and after ``repair`` the sick shard is observationally
        equivalent to the from-scratch chase oracle — on the live
        service and again after a restart."""
        io = FaultyIO()
        with open_service(tmp_path / "d", io) as svc:
            acked = {name: [] for name in NAMES}
            for i, name in enumerate(NAMES, start=1):
                svc.insert(name, row(i, 0))
                acked[name].append(srow(i, 0))
            svc.snapshot()
            io.fail(op, err, match="R1", times=None)
            with pytest.raises(ShardQuarantinedError):
                for j in range(1, 4):
                    svc.insert("R1", row(1, j))
            sick_status = svc.shard_status("R1")
            assert sick_status == (
                SHARD_DEGRADED if err == errno.ENOSPC else SHARD_QUARANTINED
            )
            # healthy shards answer correctly DURING the fault
            for i, name in enumerate(NAMES[1:], start=2):
                for j in range(1, 4):
                    assert svc.insert(name, row(i, j)).accepted
                    acked[name].append(srow(i, j))
                assert window_rows(svc, name) == sorted(acked[name])
            io.clear()  # the disk heals
            report = svc.repair("R1")
            assert report["shard"] == "R1"
            assert report["previous_status"] == sick_status
            assert svc.shard_status("R1") == SHARD_SERVING
            assert svc.stats.shards_recovered == 1
            # acknowledged R1 rows survived; un-acked ones may or may
            # not (both legal) — so pin acked-subset, then oracle-match
            recovered_r1 = set(stored(svc, "R1"))
            assert set(acked["R1"]) <= recovered_r1
            assert_observationally_equivalent(svc, SCHEMA, FDS, QUERY_POOL)
            # the repaired shard serves writes again, durably
            assert svc.insert("R1", row(1, 9)).accepted
        with open_service(tmp_path / "d") as back:
            assert srow(1, 9) in set(stored(back, "R1"))
            for name in NAMES[1:]:
                assert set(acked[name]) <= set(stored(back, name))
            assert_observationally_equivalent(back, SCHEMA, FDS, QUERY_POOL)


class TestEnospcDegradedMode:
    def test_enospc_degrades_read_only_with_probe_recovery(self, tmp_path):
        io = FaultyIO()
        with open_service(tmp_path / "d", io) as svc:
            assert svc.insert("R1", row(1, 0)).accepted
            io.fail("wal.fsync", errno.ENOSPC, match="R1", times=None)
            with pytest.raises(ShardQuarantinedError) as excinfo:
                svc.insert("R1", row(1, 1))
            assert excinfo.value.status == SHARD_DEGRADED
            assert svc.shard_status("R1") == SHARD_DEGRADED
            assert svc.stats.shards_degraded == 1
            # degraded = read-only: reads keep serving...
            assert srow(1, 0) in window_rows(svc, "R1")
            # ...writes keep probing and failing while space is short
            with pytest.raises(ShardQuarantinedError):
                svc.insert("R1", row(1, 2))
            io.clear()  # space returns
            assert svc.insert("R1", row(1, 3)).accepted
            assert svc.shard_status("R1") == SHARD_SERVING
            assert svc.stats.shards_recovered == 1
        with open_service(tmp_path / "d") as back:
            # the backlog staged while degraded flushed on recovery
            assert set(stored(back, "R1")) >= {srow(1, 0), srow(1, 3)}


class TestBitflipAndGenerations:
    def _seed_two_generations(self, root):
        """gen 1 holds {row0}; gen 0 holds {row0, row1}."""
        with open_service(root) as svc:
            svc.insert("R1", row(1, 0))
            svc.snapshot("R1")
            svc.insert("R1", row(1, 1))
            svc.snapshot("R1")

    def test_bitflip_snapshot_falls_back_to_older_generation(self, tmp_path):
        self._seed_two_generations(tmp_path / "d")
        io = FaultyIO()
        # recovery reads newest-first: flip a byte of the first
        # (generation-0) read only, inside the CRC-covered tuple data
        io.flip_bit(match="R1/snapshot.json", offset=100, occurrence=1)
        with open_service(tmp_path / "d", io) as svc:
            assert svc.stats.snapshot_fallbacks == 1
            assert svc.shard_status("R1") == SHARD_SERVING
            # rolled back to the older generation's state (documented
            # tradeoff: availability over the lost suffix)
            assert stored(svc, "R1") == [srow(1, 0)]
            assert_observationally_equivalent(svc, SCHEMA, FDS, QUERY_POOL)

    def test_bitflip_all_generations_unreadable_quarantines_shard(
        self, tmp_path
    ):
        self._seed_two_generations(tmp_path / "d")
        with open_service(tmp_path / "d") as svc:
            for i, name in enumerate(NAMES[1:], start=2):
                svc.insert(name, row(i, 0))
        io = FaultyIO()
        io.flip_bit(match="R1/snapshot.json", offset=100, occurrence=1)
        io.flip_bit(match="R1/snapshot.json", offset=100, occurrence=2)
        with open_service(tmp_path / "d", io) as svc:
            assert svc.shard_status("R1") == SHARD_QUARANTINED
            assert svc.health()["status"] == "degraded"
            # the rest of the store recovered and serves
            for i, name in enumerate(NAMES[1:], start=2):
                assert window_rows(svc, name) == [srow(i, 0)]
            with pytest.raises(ShardQuarantinedError):
                svc.window(SCHEMA["R1"].attributes)
            io.clear()  # operator restores the disk
            report = svc.repair("R1")
            assert report["rows"] == 2
            assert svc.shard_status("R1") == SHARD_SERVING
            assert stored(svc, "R1") == [srow(1, 0), srow(1, 1)]
            assert_observationally_equivalent(svc, SCHEMA, FDS, QUERY_POOL)

    def test_bitflip_wal_midfile_corruption_counted(self, tmp_path):
        """Satellite: a bad frame with valid frames *after* it is
        mid-file corruption — counted, surfaced, and the stranded good
        records reported, never replayed (replay keeps the trusted
        prefix only)."""
        with open_service(tmp_path / "d") as svc:
            for j in range(3):
                svc.insert("R1", row(1, j))
        wal = tmp_path / "d" / "shards" / "R1" / "wal.log"
        data = wal.read_bytes()
        length, _ = struct.unpack_from("<II", data, 0)
        second = 8 + length  # offset of the second frame's header
        io = FaultyIO()
        io.flip_bit(match="R1/wal.log", offset=second + 10, occurrence=1)
        with open_service(tmp_path / "d", io) as svc:
            assert svc.stats.wal_corrupt_frames == 1
            assert svc.stats.wal_truncated_bytes > 0
            # the trusted prefix replayed; records beyond the bad frame
            # are stranded, not resurrected
            assert stored(svc, "R1") == [srow(1, 0)]

    def test_torn_tail_stays_quiet(self, tmp_path):
        """The counter-case: a half-written final frame is the expected
        residue of a crash — truncated silently, not counted as
        corruption."""
        with open_service(tmp_path / "d") as svc:
            for j in range(3):
                svc.insert("R1", row(1, j))
        wal = tmp_path / "d" / "shards" / "R1" / "wal.log"
        data = wal.read_bytes()
        wal.write_bytes(data[: len(data) - 5])
        with open_service(tmp_path / "d") as svc:
            assert svc.stats.wal_corrupt_frames == 0
            assert svc.stats.wal_truncated_bytes == 0
            assert stored(svc, "R1") == [srow(1, 0), srow(1, 1)]


class TestVerifyStore:
    def test_verify_store_clean_and_torn_tail_ok(self, tmp_path):
        with open_service(tmp_path / "d") as svc:
            svc.insert("R1", row(1, 0))
            svc.snapshot("R1")
            svc.insert("R1", row(1, 1))
        report = verify_store(tmp_path / "d")
        assert report["ok"]
        assert report["shards"]["R1"]["wal_records"] == 1
        # torn tail: reported, still ok
        wal = tmp_path / "d" / "shards" / "R1" / "wal.log"
        wal.write_bytes(wal.read_bytes() + b"\x01\x02\x03")
        report = verify_store(tmp_path / "d")
        assert report["ok"]
        assert report["shards"]["R1"]["wal_torn_tail_bytes"] == 3

    def test_verify_store_flags_midfile_and_snapshot_corruption(
        self, tmp_path
    ):
        with open_service(tmp_path / "d") as svc:
            for j in range(3):
                svc.insert("R1", row(1, j))
            svc.insert("R2", row(2, 0))
            svc.snapshot("R2")
        wal = tmp_path / "d" / "shards" / "R1" / "wal.log"
        data = bytearray(wal.read_bytes())
        length, _ = struct.unpack_from("<II", data, 0)
        data[8 + length + 10] ^= 0x40
        wal.write_bytes(bytes(data))
        snap = tmp_path / "d" / "shards" / "R2" / "snapshot.json"
        blob = bytearray(snap.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        snap.write_bytes(bytes(blob))
        report = verify_store(tmp_path / "d")
        assert not report["ok"]
        assert report["shards"]["R1"]["wal_corrupt_regions"] == 1
        assert report["shards"]["R1"]["wal_stranded_records"] >= 1
        assert any(
            "generation 0" in f for f in report["shards"]["R2"]["findings"]
        )

    def test_verify_store_rejects_non_store(self, tmp_path):
        with pytest.raises(ReproError):
            verify_store(tmp_path)


class StallingIO(StoreIO):
    """Holds every snapshot write of the shard named ``stall`` until
    ``release`` is set."""

    def __init__(self):
        self.stall = None
        self.stalled = threading.Event()
        self.release = threading.Event()

    def snapshot_write(self, path, payload):
        if path.parent.name == self.stall:
            self.stalled.set()
            self.release.wait(30)
        super().snapshot_write(path, payload)


class TestShardIndependentIO:
    def test_stalled_snapshot_blocks_no_other_shard(self, tmp_path):
        """One shard's stuck snapshot write holds up only that shard:
        while R1's snapshot waits inside its write, R2's snapshot,
        batch insert and single insert all finish, and after the
        release both shards reopen with every row."""
        io = StallingIO()
        svc = open_service(tmp_path / "d", io)
        svc.insert("R1", row(1, 0))
        svc.insert("R2", row(2, 0))
        io.stall = "R1"
        with ThreadPoolExecutor(max_workers=4) as pool:
            held = pool.submit(svc.snapshot, "R1")
            try:
                assert io.stalled.wait(10)
                pool.submit(svc.snapshot, "R2").result(timeout=1)
                pool.submit(svc.insert_many, [("R2", row(2, 1))]).result(timeout=1)
                pool.submit(svc.insert, "R2", row(2, 2)).result(timeout=1)
                assert not held.done()
            finally:
                io.release.set()
            held.result(timeout=10)
        svc.close()
        with open_service(tmp_path / "d") as back:
            assert stored(back, "R1") == [srow(1, 0)]
            assert stored(back, "R2") == sorted(srow(2, j) for j in range(3))

    def test_concurrent_shard_writes_and_snapshots(self, tmp_path):
        """No service-wide lock orders different shards' commits and
        snapshots: with more threads than cores and a short switch
        interval, every write survives reopen and every snapshot is
        counted."""
        svc = open_service(tmp_path / "d")
        rounds = 12

        def work(i):
            for j in range(rounds):
                svc.insert(f"R{i}", row(i, j))
                svc.snapshot(f"R{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                for future in [pool.submit(work, i) for i in (1, 2, 3)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert svc.stats.snapshots_written == 3 * rounds
        svc.close()
        with open_service(tmp_path / "d") as back:
            for i in (1, 2, 3):
                assert stored(back, f"R{i}") == sorted(
                    srow(i, j) for j in range(rounds)
                )


class TestServerIsolationAndBackpressure:
    def test_eio_quarantined_shard_never_blocks_others(self, tmp_path):
        """The acceptance criterion's concurrency half, on a single
        worker (the strongest form: sick and healthy shards share the
        thread, so any blocking would hang the healthy futures)."""
        io = FaultyIO()
        svc = open_service(tmp_path / "d", io, auto_commit=False)
        io.fail("wal.fsync", errno.EIO, match="R1", times=None)
        with WeakInstanceServer(svc, workers=1) as server:
            sick = server.submit_insert("R1", row(1, 0))
            healthy = []
            for j in range(10):
                healthy.append(("R2", server.submit_insert("R2", row(2, j))))
                healthy.append(("R3", server.submit_insert("R3", row(3, j))))
            with pytest.raises(ShardQuarantinedError):
                sick.result(timeout=10)
            for _, future in healthy:
                assert future.result(timeout=10).accepted
            for name, i in (("R2", 2), ("R3", 3)):
                assert window_rows(server, name) == sorted(
                    srow(i, j) for j in range(10)
                )
            # later writes interleaved against the quarantined shard in
            # the SAME batch: gated out, the rest of the run applies
            sick2 = server.submit_insert("R1", row(1, 1))
            ok2 = server.submit_insert("R2", row(2, 99))
            with pytest.raises(ShardQuarantinedError):
                sick2.result(timeout=10)
            assert ok2.result(timeout=10).accepted
            assert server.health()["shards"]["R1"] == SHARD_QUARANTINED
            io.clear()
            server.repair("R1")
            assert server.insert("R1", row(1, 5)).accepted
        svc.close()
        with open_service(tmp_path / "d") as back:
            assert srow(2, 99) in set(stored(back, "R2"))
            assert srow(1, 5) in set(stored(back, "R1"))
            assert_observationally_equivalent(back, SCHEMA, FDS, QUERY_POOL)

    def test_server_backpressure_sheds_with_typed_error(self, tmp_path):
        svc = open_service(tmp_path / "d", auto_commit=False)
        with WeakInstanceServer(svc, workers=1, max_queue=2) as server:
            lock = svc.shard_lock("R1")
            lock.acquire()
            try:
                first = server.submit_insert("R1", row(1, 0))
                # the worker is now blocked applying `first`; fill the
                # bounded queue behind it, then overflow it
                queued = []
                deadline = 100
                while deadline:
                    try:
                        queued.append(server.submit_insert("R1", row(1, 1)))
                    except ServiceOverloadedError:
                        break
                    deadline -= 1
                else:
                    pytest.fail("bounded queue never overflowed")
                assert server.requests_shed == 1
                health = server.health()
                assert health["max_queue"] == 2
                assert health["requests_shed"] == 1
                assert server.stats_dict()["server_requests_shed"] == 1
            finally:
                lock.release()
            # shedding is not failure: everything accepted lands
            assert first.result(timeout=10).accepted
            for future in queued:
                future.result(timeout=10)
        svc.close()

    def test_unbounded_queue_never_sheds(self, tmp_path):
        svc = open_service(tmp_path / "d", auto_commit=False)
        with WeakInstanceServer(svc, workers=2) as server:
            futures = [
                server.submit_insert("R1", row(1, j)) for j in range(50)
            ]
            for future in futures:
                assert future.result(timeout=10).accepted
            assert server.requests_shed == 0
        svc.close()
