"""The store's one integrity rule: every whole file is one CRC frame.

A snapshot and ``MANIFEST.json`` are each one ``[u32 length][u32
crc32][JSON]`` frame, the frame a WAL record uses, so one flipped bit
anywhere in them is caught — not only in a snapshot's tuples, which
was all the old per-snapshot ``crc`` field covered.  This module pins:

* stores written before the frame (format 1, the committed
  ``tests/data/format1_store`` written by the golden-store script) still
  open, verify and deduplicate, and their next snapshot is framed;
* the bit flips the old format let through (a snapshot's epoch, its
  session table, the manifest) now make the shard or the store refuse
  to serve the damaged bytes;
* a void chain (snapshot files, none readable) is never rebuilt as an
  empty shard by the evolution roll-forward;
* the one rule for values a store may hold, checked before anything
  applies.
"""

import json
import pathlib
import shutil
import struct
import zlib

import pytest

from repro.data.states import DatabaseState
from repro.exceptions import ReproError
from repro.schema.evolution import parse_evolution_op
from repro.weak.durable import SHARD_QUARANTINED, SHARD_SERVING, verify_store
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import disjoint_star_schema

from tests.harness.faults import FaultInjector, InjectedCrash

FORMAT1_STORE = pathlib.Path(__file__).parent / "data" / "format1_store"

SPLIT = "split R2 -> R2a(K2,A2a) + R2b(K2,A2b)"


def open_store(root, **options):
    # the catalog the store was created with; an evolved store's
    # manifest names the current one
    schema, fds = disjoint_star_schema(2)
    return ShardedWeakInstanceService(schema, fds, root, **options)


def rows(svc, name):
    return {tuple(t.values) for t in svc.state()[name]}


def one_frame(data):
    """The JSON object ``data`` holds when it is exactly one intact
    frame; fails the test otherwise."""
    length, crc = struct.unpack_from("<II", data)
    payload = data[8:]
    assert length == len(payload) and crc == zlib.crc32(payload)
    return json.loads(payload)


def flip(path, needle, at):
    """Flip the lowest bit of the byte ``at`` positions into the first
    occurrence of ``needle`` in ``path``."""
    data = bytearray(path.read_bytes())
    index = data.index(needle) + at
    data[index] ^= 0x01
    path.write_bytes(bytes(data))


def split_store(root, **options):
    """R2 loaded with two rows, then split into R2a + R2b (epoch 1)."""
    schema, _fds = disjoint_star_schema(2)
    with open_store(root, **options) as svc:
        svc.load(DatabaseState(schema, {
            "R2": [
                {"K2": 1, "A2a": "a", "A2b": "b"},
                {"K2": 2, "A2a": "c", "A2b": "d"},
            ],
        }))
        svc.evolve(parse_evolution_op(SPLIT))


#: the golden-store script's final state (tests/test_golden_store.py),
#: each row in its scheme's attribute order
FINAL_STATE = {
    "R1": {(1, "a", "b"), (3, "e", "f"), (4, "g", "h"), (5, "i", "j"),
           (6, "k", "l")},
    "R2a": {(11, "s"), (12, "u"), ("v", 13)},
    "R2b": {("r", "s"), ("t", "u")},
}


class TestFormat1Store:
    """The committed store was written, before the frame, by the
    golden-store script's primary root: plain JSON snapshots with a
    tuples-only ``crc`` and an unframed manifest."""

    @pytest.fixture
    def store(self, tmp_path):
        root = tmp_path / "format1"
        shutil.copytree(FORMAT1_STORE, root)
        return root

    def test_files_are_unframed_json(self, store):
        assert json.loads((store / "MANIFEST.json").read_bytes())["format"] == 1
        snap = json.loads((store / "shards" / "R1" / "snapshot.json").read_bytes())
        assert snap["format"] == 1 and "crc" in snap

    def test_opens_with_the_final_state(self, store):
        with open_store(store) as svc:
            assert svc.schema_version == 1
            assert {name: rows(svc, name) for name in FINAL_STATE} == FINAL_STATE
            assert all(
                svc.shard_status(name) == SHARD_SERVING for name in FINAL_STATE
            )
            assert svc.stats.snapshot_loads == 3

    def test_session_retry_is_deduplicated(self, store):
        # the stamped insert went to R2, whose session table the split
        # retired; in the new epoch its R2a half is already stored, so
        # the retry changes nothing and logs nothing
        with open_store(store) as svc:
            outcome, staged = svc.apply_insert(
                "R2a", {"K2": "u", "A2a": 12}, session=("client", 1)
            )
            assert outcome.accepted and outcome.reason
            assert not staged
            assert rows(svc, "R2a") == FINAL_STATE["R2a"]
            assert svc.stats.wal_records_appended == 0

    def test_verifies(self, store):
        report = verify_store(store)
        assert report["ok"], report
        assert report["epoch"] == 1

    def test_next_snapshot_and_evolution_write_frames(self, store):
        with open_store(store) as svc:
            svc.snapshot()
        for name in FINAL_STATE:
            snap = one_frame((store / "shards" / name / "snapshot.json").read_bytes())
            assert snap["scheme"] == name and snap["format"] == 2
            assert "crc" not in snap
        # the older generations stay format 1 and still read
        assert json.loads(
            (store / "shards" / "R1" / "snapshot.json.1").read_bytes()
        )["format"] == 1
        with open_store(store) as svc:
            assert {name: rows(svc, name) for name in FINAL_STATE} == FINAL_STATE
            svc.evolve(parse_evolution_op("drop-fd K1 -> A1b"))
        assert one_frame((store / "MANIFEST.json").read_bytes())["epoch"] == 2
        with open_store(store) as svc:
            assert svc.schema_version == 2
            assert {name: rows(svc, name) for name in FINAL_STATE} == FINAL_STATE
        assert verify_store(store)["ok"]


class TestOneBitFlips:
    def test_flipped_snapshot_epoch_never_serves_empty(self, tmp_path):
        root = tmp_path / "d"
        split_store(root)
        flip(root / "shards" / "R2a" / "snapshot.json", b'"epoch":1', 8)
        with open_store(root) as svc:
            status = svc.shard_status("R2a")
            assert status == SHARD_QUARANTINED or rows(svc, "R2a") == {
                ("a", 1), ("c", 2),
            }
            assert svc.stats.evolution_rollforwards == 0
            assert rows(svc, "R2b") == {("b", 1), ("d", 2)}
        assert not verify_store(root)["ok"]

    def test_flipped_session_mark_keeps_the_retry_deduplicated(self, tmp_path):
        root = tmp_path / "d"
        row = {"K1": 1, "A1a": "x", "A1b": "y"}
        with open_store(root) as svc:
            assert svc.insert("R1", row).accepted
            assert svc.delete("R1", row, session=("c", 7))
            assert svc.insert("R1", row).accepted  # re-inserted since
            # two generations with the same state and session table
            svc.snapshot("R1")
            svc.snapshot("R1")
        snap = root / "shards" / "R1" / "snapshot.json"
        flip(snap, b'"c":[7,', 5)  # the high-water mark 7 -> 6
        with open_store(root) as svc:
            assert svc.delete("R1", row, session=("c", 7))  # the original answer
            assert rows(svc, "R1") == {("x", "y", 1)}
            assert svc.stats.session_dedup_hits == 1
        assert not verify_store(root)["ok"]

    def test_flipped_manifest_is_named_corrupt(self, tmp_path):
        root = tmp_path / "d"
        split_store(root)
        manifest = root / "MANIFEST.json"
        data = manifest.read_bytes()
        # a bit of the last FD's lhs attribute: K2 -> K3
        index = data.rindex(b'"K2"') + 2
        manifest.write_bytes(data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:])
        with pytest.raises(ReproError, match="corrupt durable manifest"):
            open_store(root)
        report = verify_store(root)
        assert not report["ok"]
        assert "MANIFEST.json" in report["findings"][0]


class TestVoidChainsAreNotRolledForward:
    def test_void_target_opens_quarantined(self, tmp_path):
        root = tmp_path / "d"
        split_store(root)
        (root / "shards" / "R2a" / "snapshot.json").write_bytes(b"lost")
        with open_store(root) as svc:
            assert svc.shard_status("R2a") == SHARD_QUARANTINED
            assert svc.stats.evolution_rollforwards == 0
            assert svc.shard_status("R2b") == SHARD_SERVING
            assert rows(svc, "R2b") == {("b", 1), ("d", 2)}

    def test_void_source_keeps_its_targets_void_and_itself(self, tmp_path):
        """A crash after the manifest replace leaves the split's source
        on disk for the roll-forward; when that source's snapshots are
        all unreadable, the targets open void and the source stays for
        an operator to restore."""
        root = tmp_path / "d"
        with pytest.raises(InjectedCrash):
            split_store(root, fault_hook=FaultInjector("evolve.manifest"))
        source = root / "shards" / "R2" / "snapshot.json"
        source.write_bytes(b"lost")
        with open_store(root) as svc:
            assert svc.schema_version == 1
            assert svc.shard_status("R2a") == SHARD_QUARANTINED
            assert svc.shard_status("R2b") == SHARD_QUARANTINED
            assert svc.shard_status("R1") == SHARD_SERVING
            assert svc.stats.evolution_rollforwards == 0
            # R2a's own directory holds no snapshot: nothing to repair from
            with pytest.raises(ReproError, match="no readable snapshot"):
                svc.repair("R2a")
            assert svc.shard_status("R2a") == SHARD_QUARANTINED
        assert source.exists()


class TestStorableValues:
    """A store holds str, int, bool, None and finite float values; any
    other value raises ReproError before anything applies and leaves
    the service open."""

    def test_tuple_value_insert_is_refused(self, tmp_path):
        root = tmp_path / "d"
        with open_store(root) as svc:
            with pytest.raises(ReproError, match="JSON-serializable"):
                svc.insert("R1", {"K1": 1, "A1a": (1, 2), "A1b": "x"})
            with pytest.raises(ReproError):
                svc.insert_many([
                    ("R1", {"K1": 2, "A1a": "a", "A1b": "b"}),
                    ("R1", {"K1": 3, "A1a": (1, 2), "A1b": "b"}),
                ])
            assert not svc.crashed
            assert rows(svc, "R1") == set()
            assert svc.insert("R1", {"K1": 1, "A1a": 1.5, "A1b": True}).accepted
        with open_store(root) as svc:
            assert rows(svc, "R1") == {(1.5, True, 1)}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), frozenset({1})])
    def test_load_refuses_before_applying(self, tmp_path, bad):
        schema, _fds = disjoint_star_schema(2)
        root = tmp_path / "d"
        with open_store(root) as svc:
            with pytest.raises(ReproError, match="JSON-serializable"):
                svc.load(DatabaseState(schema, {
                    "R1": [{"K1": 1, "A1a": "a", "A1b": "b"}],
                    "R2": [{"K2": 1, "A2a": bad, "A2b": "b"}],
                }))
            assert not svc.crashed
            assert svc.total_tuples() == 0
            assert svc.stats.snapshots_written == 0
            assert svc.insert("R2", {"K2": 1, "A2a": "a", "A2b": "b"}).accepted
        with open_store(root) as svc:
            assert rows(svc, "R2") == {("a", "b", 1)}
            assert rows(svc, "R1") == set()
