"""The durable layer's mechanics: WAL framing, snapshots, recovery
bookkeeping, and the crash latch.

The *semantic* recovery guarantees (prefix consistency, observational
equivalence at every crash point) live in
``tests/test_durable_recovery.py``; this module pins the moving parts
those guarantees are built from — record framing survives roundtrips
and rejects corruption, snapshots rotate the WAL, counters surface in
``as_dict``, a crashed instance poisons itself.
"""

import json
import os
import struct
import zlib

import pytest

from repro.exceptions import ReproError
from repro.weak.durable import (
    CRASH_POINTS,
    DurableServiceStats,
    DurableShardedService,
    DurableUnavailableError,
    _decode_records,
    _encode_record,
)
from repro.workloads.schemas import chain_schema, disjoint_star_schema

from tests.harness.faults import FaultInjector, InjectedCrash


@pytest.fixture
def chain2():
    return chain_schema(2)


def shard_rows(service, name):
    return sorted(tuple(t.values) for t in service.state()[name])


class TestRecordFraming:
    def test_roundtrip(self):
        records = [
            _encode_record("+", ("a", "b")),
            _encode_record("-", ("a", "b")),
            _encode_record("+", (1, "x", None)),
        ]
        ops, good = _decode_records(b"".join(records))
        assert ops == [
            ("+", ("a", "b")),
            ("-", ("a", "b")),
            ("+", (1, "x", None)),
        ]
        assert good == sum(len(r) for r in records)

    def test_torn_tail_stops_parse(self):
        whole = _encode_record("+", ("a", "b"))
        torn = whole + _encode_record("+", ("c", "d"))[:-3]
        ops, good = _decode_records(torn)
        assert ops == [("+", ("a", "b"))]
        assert good == len(whole)

    def test_corrupt_crc_stops_parse(self):
        first = _encode_record("+", ("a", "b"))
        second = bytearray(_encode_record("+", ("c", "d")))
        second[-1] ^= 0xFF  # flip a payload byte under an stale CRC
        ops, good = _decode_records(first + bytes(second))
        assert ops == [("+", ("a", "b"))]
        assert good == len(first)

    def test_non_serializable_value_rejected(self):
        with pytest.raises(ReproError, match="JSON-serializable"):
            _encode_record("+", (object(),))


class TestWalLifecycle:
    def test_reopen_replays_journal(self, chain2, tmp_path):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            assert svc.insert("R1", ("a1", "b1")).accepted
            assert svc.insert("R2", ("b1", "c1")).accepted
            assert svc.insert("R1", ("a2", "b2")).accepted
            assert svc.delete("R1", ("a2", "b2"))
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            assert shard_rows(back, "R1") == [("a1", "b1")]
            assert shard_rows(back, "R2") == [("b1", "c1")]
            assert back.stats.recoveries == 1
            assert back.stats.wal_records_replayed == 4
            assert back.stats.snapshot_loads == 0

    def test_snapshot_rotates_wal(self, chain2, tmp_path):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", ("a1", "b1"))
            svc.insert("R1", ("a2", "b2"))
            svc.snapshot("R1")
            assert svc.wal_path("R1").stat().st_size == 0
            assert svc.snapshot_path("R1").exists()
            svc.insert("R1", ("a3", "b3"))  # lands in the rotated WAL
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            assert shard_rows(back, "R1") == [
                ("a1", "b1"), ("a2", "b2"), ("a3", "b3"),
            ]
            assert back.stats.snapshot_loads == 1
            assert back.stats.wal_records_replayed == 1

    def test_duplicates_and_absent_deletes_not_logged(self, chain2, tmp_path):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", ("a1", "b1"))
            duplicate = svc.insert("R1", ("a1", "b1"))
            assert duplicate.accepted and duplicate.reason
            rejected = svc.insert("R1", ("a1", "b9"))  # violates A1 -> A2
            assert not rejected.accepted
            assert not svc.delete("R1", ("zz", "zz"))
            assert svc.stats.wal_records_appended == 1

    def test_auto_snapshot_at_interval(self, chain2, tmp_path):
        schema, fds = chain2
        with DurableShardedService(
            schema, fds, tmp_path / "d", snapshot_interval=3
        ) as svc:
            for i in range(7):
                svc.insert("R1", (f"a{i}", f"b{i}"))
            assert svc.stats.snapshots_written >= 2
            # the WAL only ever holds the tail since the last snapshot
            ops, _ = _decode_records(svc.wal_path("R1").read_bytes())
            assert len(ops) < 3

    def test_load_snapshots_instead_of_logging(self, chain2, tmp_path):
        from repro.workloads.states import random_satisfying_state

        schema, fds = chain2
        base = random_satisfying_state(schema, fds, 30, seed=3)
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.load(base)
            assert svc.stats.wal_records_appended == 0
            assert svc.stats.snapshots_written == len(svc.shard_names())
            total = svc.total_tuples()
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            assert back.total_tuples() == total
            assert back.stats.wal_records_replayed == 0
            assert back.stats.snapshot_loads == len(back.shard_names())

    def test_torn_tail_truncated_on_reopen(self, chain2, tmp_path):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", ("a1", "b1"))
            wal = svc.wal_path("R1")
        with open(wal, "ab") as handle:  # a torn frame, as a crash leaves it
            handle.write(_encode_record("+", ("a2", "b2"))[:-4])
        size_with_tail = wal.stat().st_size
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            assert shard_rows(back, "R1") == [("a1", "b1")]
            assert wal.stat().st_size < size_with_tail
            back.insert("R1", ("a3", "b3"))
        with DurableShardedService(schema, fds, tmp_path / "d") as again:
            assert shard_rows(again, "R1") == [("a1", "b1"), ("a3", "b3")]

    def test_manifest_guards_schema_mismatch(self, chain2, tmp_path):
        schema, fds = chain2
        DurableShardedService(schema, fds, tmp_path / "d").close()
        other_schema, other_fds = disjoint_star_schema(3)
        with pytest.raises(ReproError, match="written for schemes"):
            DurableShardedService(other_schema, other_fds, tmp_path / "d")

    def test_snapshot_file_is_one_frame(self, chain2, tmp_path):
        schema, fds = chain2
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", ("a1", "b1"))
            svc.snapshot("R1")
            data = svc.snapshot_path("R1").read_bytes()
        # [u32 length][u32 crc32][JSON object], the WAL's frame, and
        # nothing after it
        length, crc = struct.unpack_from("<II", data)
        payload = data[8:]
        assert length == len(payload) and crc == zlib.crc32(payload)
        snap = json.loads(payload)
        assert "crc" not in snap
        assert snap["scheme"] == "R1"
        assert sorted(snap["attributes"]) == ["A1", "A2"]
        assert [tuple(v) for v in snap["tuples"]] == [("a1", "b1")]


class TestCrashLatch:
    def test_poisoned_after_injected_crash(self, chain2, tmp_path):
        schema, fds = chain2
        svc = DurableShardedService(
            schema, fds, tmp_path / "d",
            fault_hook=FaultInjector("commit.begin"),
        )
        with pytest.raises(InjectedCrash):
            svc.insert("R1", ("a1", "b1"))
        assert svc.crashed
        with pytest.raises(DurableUnavailableError):
            svc.insert("R1", ("a2", "b2"))
        with pytest.raises(DurableUnavailableError):
            svc.snapshot()
        svc.close()
        # the crash-before-write lost the op: nothing was durable
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            assert shard_rows(back, "R1") == []

    def test_every_point_reachable(self, chain2, tmp_path):
        from repro.schema.evolution import parse_evolution_op
        from tests.harness.faults import FaultTrace

        schema, fds = chain2
        trace = FaultTrace()
        with DurableShardedService(
            schema, fds, tmp_path / "d", fault_hook=trace,
        ) as svc:
            svc.insert("R1", ("a1", "b1"))
            svc.snapshot("R1")
            svc.evolve(parse_evolution_op("add-attr R1 X"))
        assert set(trace.counts()) == set(CRASH_POINTS)


class TestStats:
    def test_as_dict_exposes_wal_counters(self):
        counters = DurableServiceStats().as_dict()
        for key in (
            "wal_records_appended",
            "wal_commits",
            "wal_fsyncs",
            "wal_records_replayed",
            "snapshots_written",
            "snapshot_loads",
            "recoveries",
        ):
            assert key in counters
        # the base service counters still flow through
        assert "inserts_accepted" in counters
        assert "shard_windows" in counters

    def test_counters_track_operations(self, tmp_path):
        schema, fds = chain_schema(2)
        with DurableShardedService(schema, fds, tmp_path / "d") as svc:
            svc.insert("R1", ("a1", "b1"))
            svc.insert("R2", ("b1", "c1"))
            counters = svc.stats.as_dict()
        assert counters["wal_records_appended"] == 2
        assert counters["wal_commits"] == 2
        assert counters["wal_fsyncs"] == 2
        assert counters["wal_bytes_written"] > 0
