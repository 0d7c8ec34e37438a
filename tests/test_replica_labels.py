"""Replica labels are unique per shard.

A target is keyed by its store's label, which defaults to the store
root's directory name.  The constructor and ``rejoin`` share one
de-duplication helper, so a store whose default label is already taken
(``…/elsewhere/r1`` rejoining beside a live replica ``r1``) joins under
a suffixed label instead of silently replacing the live replica.
"""

from repro.weak.durable import ShardStore
from repro.weak.replication import ReplicatedShardedService, labeled
from repro.workloads.schemas import disjoint_star_schema


def wal(root):
    return (root / "shards" / "R1" / "wal.log").read_bytes()


def test_rejoin_under_a_taken_label_ships_to_both(tmp_path):
    schema, fds = disjoint_star_schema(1)
    primary, r1, other = tmp_path / "d", tmp_path / "r1", tmp_path / "elsewhere" / "r1"
    with ReplicatedShardedService(schema, fds, primary, replicas=[r1]) as svc:
        svc.insert("R1", {"K1": 1, "A1a": "a", "A1b": "b"})
        report = svc.rejoin("R1", other)
        assert report["label"] == "r1-1"
        svc.insert("R1", {"K1": 2, "A1a": "c", "A1b": "d"})
        assert wal(r1) == wal(other) == wal(primary)
        assert len(wal(primary)) > 0
        replicas = svc.replication_status()["shards"]["R1"]["replicas"]
        assert sorted(replicas) == ["r1", "r1-1"]
        assert all(lag["lag_frames"] == 0 for lag in replicas.values())


def test_constructor_labels_duplicates_apart(tmp_path):
    schema, fds = disjoint_star_schema(1)
    roots = [tmp_path / "a" / "r", tmp_path / "b" / "r", tmp_path / "c" / "r"]
    with ReplicatedShardedService(schema, fds, tmp_path / "d", replicas=roots) as svc:
        replicas = svc.replication_status()["shards"]["R1"]["replicas"]
        assert sorted(replicas) == ["r", "r-1", "r-2"]


def test_labeled_keeps_a_free_label_and_copies_a_taken_one(tmp_path):
    store = ShardStore(tmp_path / "r")
    assert labeled(store, {"x"}, 0) is store
    renamed = labeled(store, {"r", "r-1"}, 1)
    assert renamed.label == "r-2"
    assert renamed.root == store.root and renamed.io is store.io
    assert store.label == "r"
