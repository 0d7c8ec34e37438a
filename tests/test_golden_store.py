"""Golden-store corpus: the exact bytes a fixed op script leaves on disk.

One script drives a service with one replica through every kind of
write the log knows — a bulk load, inserts (one FD-rejected), deletes,
a session-stamped insert and its duplicate, a snapshot, a split
evolution, and a failover plus rejoin of one shard — then hashes every
file under the primary root and the replica root.  The committed table
is the on-disk format as it stands: a refactor of the log, the
shipping or the shard lifecycle must leave it unchanged, and a change
that means to move a byte has to update the table in plain sight.
"""

import hashlib

from repro.data.states import DatabaseState
from repro.schema.evolution import parse_evolution_op
from repro.weak.replication import ReplicatedShardedService
from repro.workloads.schemas import disjoint_star_schema

#: root -> relative path -> SHA-256 of the file's bytes
GOLDEN = {
    "primary": {
        "MANIFEST.json":
            "b0f6b77e200c3e72ba392f13d658ebcf4636b7ac490c3731a5c83a79211d29c0",
        "schema.log":
            "072c7c7bd79f54379c205ea7516ef4e4184e292c515c99b08a8f0815bf678003",
        "shards/R1/snapshot.json":
            "821c0cb599f224f664e8bdee48ec67e4ca2dac4a76d8ccaf9f279f56f17e2025",
        "shards/R1/snapshot.json.1":
            "8e2de5f3a0ee667e937c1ece71a8a523367ca955ac7fbde01d6be390c56f7fde",
        "shards/R1/wal.log":
            "5ebc67c7773280e9be6fab5e74ea7027b4e3eedff8705bd1ab101e16935da4a7",
        "shards/R2a/snapshot.json":
            "cc47c5f006513674de425b559ac211263a07c0ca7cb8723b7a84948cd7e009c6",
        "shards/R2a/wal.log":
            "74bf5c61953e93443f3e675db68901d88bfef5f8cf669750027bab45b9fb1ee0",
        "shards/R2b/snapshot.json":
            "1f17936230b5b499ba9456a28806075cc56ba49fa0cc20413d57891cc8748b81",
        "shards/R2b/wal.log":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "replica": {
        "shards/R1/snapshot.json":
            "821c0cb599f224f664e8bdee48ec67e4ca2dac4a76d8ccaf9f279f56f17e2025",
        "shards/R1/snapshot.json.1":
            "d3ffa14be87f76cb001df21d5c5e96b32c546819d04d95442c677c39cc39e5b9",
        "shards/R1/wal.log":
            "5ebc67c7773280e9be6fab5e74ea7027b4e3eedff8705bd1ab101e16935da4a7",
        "shards/R2a/snapshot.json":
            "cc47c5f006513674de425b559ac211263a07c0ca7cb8723b7a84948cd7e009c6",
        "shards/R2a/wal.log":
            "74bf5c61953e93443f3e675db68901d88bfef5f8cf669750027bab45b9fb1ee0",
        "shards/R2b/snapshot.json":
            "1f17936230b5b499ba9456a28806075cc56ba49fa0cc20413d57891cc8748b81",
        "shards/R2b/wal.log":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def row(schema, name, *values):
    return dict(zip(schema[name].attributes.names, values))


def digests(root):
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_script(primary, replica):
    # R1(K1, A1a, A1b), R2(K2, A2a, A2b) with Ki -> Aix
    schema, fds = disjoint_star_schema(2)
    with ReplicatedShardedService(
        schema, fds, primary, replicas=[replica]
    ) as svc:
        svc.load(DatabaseState(schema, {
            "R1": [row(schema, "R1", 1, "a", "b"), row(schema, "R1", 2, "c", "d")],
            "R2": [row(schema, "R2", 10, "p", "q")],
        }))
        assert svc.insert("R1", row(schema, "R1", 3, "e", "f")).accepted
        assert svc.insert("R2", row(schema, "R2", 11, "r", "s")).accepted
        # K1 = 1 already maps A1a to "a"
        assert not svc.insert("R1", row(schema, "R1", 1, "z", "b")).accepted
        assert svc.delete("R1", row(schema, "R1", 2, "c", "d"))
        assert svc.delete("R2", row(schema, "R2", 10, "p", "q"))
        stamped = row(schema, "R2", 12, "t", "u")
        assert svc.insert("R2", stamped, session=("client", 1)).accepted
        assert svc.insert("R2", stamped, session=("client", 1)).accepted
        svc.snapshot()
        svc.insert("R1", row(schema, "R1", 4, "g", "h"))
        svc.evolve(parse_evolution_op("split R2 -> R2a(K2,A2a) + R2b(K2,A2b)"))
        svc.insert("R2a", {"K2": 13, "A2a": "v"})
        svc.failover("R1")
        svc.insert("R1", row(schema, "R1", 5, "i", "j"))
        svc.rejoin("R1")
        svc.insert("R1", row(schema, "R1", 6, "k", "l"))
        assert svc.stats.session_dedup_hits == 1
        assert svc.stats.inserts_rejected == 1


def test_store_bytes_match_the_golden_corpus(tmp_path):
    primary, replica = tmp_path / "primary", tmp_path / "replica"
    run_script(primary, replica)
    assert {
        "primary": digests(primary), "replica": digests(replica),
    } == GOLDEN
