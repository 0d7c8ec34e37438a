"""Kill-and-recover through a schema migration.

The durable evolution protocol has one commit point — the atomic
manifest replace.  Everything before it (scoped rebuilds, journal
replay, the schema.log append) must vanish without trace on a crash;
everything after it (epoch-stamped snapshots, retired-directory
removal) must be re-derivable on reopen from what the commit point
left behind.  The matrix below kills the process at every
``evolve.*`` injection point and asserts the store recovers
*atomically* to one of the two legal epochs — and to the *expected*
one, pinning which side of the commit point each crash site sits on.
"""

import pytest

from repro.exceptions import EvolutionRejectedError, SchemaError
from repro.data.states import DatabaseState
from repro.schema.evolution import parse_evolution_op
from repro.weak.durable import (
    MIGRATION_CRASH_POINTS,
    DurableShardedService,
    StoreIO,
    verify_store,
)
from repro.workloads.paper import example2

from tests.harness.drivers import (
    assert_evolution_recovered,
    evolution_oracle,
    reopen,
    run_evolution_until_crash,
)
from tests.harness.faults import FaultInjector

EX = example2()
SCHEMA, FDS = EX.schema, EX.fds
BASE = DatabaseState(
    SCHEMA,
    {
        "CT": [("c1", "t1"), ("c2", "t2")],
        "CS": [("c1", "s1"), ("c2", "s2")],
        "CHR": [("c1", "h1", "r1"), ("c2", "h2", "r2")],
    },
)

OP_TEXTS = (
    "add-attr CHR X = TBA",
    "drop-attr CS S",
    "split CHR -> CH(C,H) + CR(C,R)",
    "merge CT + CS -> CTS",
    "add-fd S -> C",
    "drop-fd C -> T",
)

#: the split rebuilds two target shards from one retired source — the
#: op with the most on-disk motion, so the full point matrix runs on it
SPLIT = "split CHR -> CH(C,H) + CR(C,R)"

#: which epoch a crash at each point must recover to: the manifest
#: replace is THE commit point, so everything up to and including the
#: WAL record leaves the old epoch intact, and everything after it
#: rolls forward to the new one
EXPECTED_EPOCH = {
    "evolve.begin": 0,
    "evolve.mid-rebuild": 0,
    "evolve.journal-replay": 0,
    "evolve.pre-wal": 0,
    "evolve.post-wal": 0,
    "evolve.manifest": 1,
    "evolve.done": 1,
}


def _ids(points):
    return [p.replace(".", "-") for p in points]


def _crash_and_recover(tmp_path, op_text, point):
    op = parse_evolution_op(op_text)
    completed, crashed = run_evolution_until_crash(
        SCHEMA, FDS, tmp_path / "d", BASE, op, FaultInjector(point)
    )
    assert crashed and not completed, f"injector never fired at {point}"
    report = verify_store(tmp_path / "d")
    assert report["ok"], f"store damaged at {point}: {report['findings']}"
    old_sets, new_sets = evolution_oracle(SCHEMA, FDS, BASE, op)
    recovered = reopen(SCHEMA, FDS, tmp_path / "d")
    try:
        assert_evolution_recovered(recovered, old_sets, new_sets)
        return recovered.schema_version, recovered.stats.evolution_rollforwards
    finally:
        recovered.close()


def test_matrix_covers_every_migration_point():
    assert set(EXPECTED_EPOCH) == set(MIGRATION_CRASH_POINTS)


@pytest.mark.parametrize(
    "point", MIGRATION_CRASH_POINTS, ids=_ids(MIGRATION_CRASH_POINTS)
)
def test_split_crash_recovers_to_expected_epoch(tmp_path, point):
    epoch, rollforwards = _crash_and_recover(tmp_path, SPLIT, point)
    assert epoch == EXPECTED_EPOCH[point]
    if point == "evolve.manifest":
        # committed but not finalized: recovery re-derives both split
        # targets from the retained retired source
        assert rollforwards >= 1


@pytest.mark.parametrize("op_text", OP_TEXTS)
@pytest.mark.parametrize(
    "point",
    ("evolve.pre-wal", "evolve.manifest"),
    ids=_ids(("evolve.pre-wal", "evolve.manifest")),
)
def test_every_op_atomic_at_the_commit_boundary(tmp_path, op_text, point):
    """One pre-commit and one post-commit crash for every op in the
    catalog — the commit-point semantics are op-independent."""
    epoch, _ = _crash_and_recover(tmp_path, op_text, point)
    assert epoch == EXPECTED_EPOCH[point]


@pytest.mark.parametrize("op_text", OP_TEXTS)
def test_crash_free_evolve_survives_restart(tmp_path, op_text):
    op = parse_evolution_op(op_text)
    completed, crashed = run_evolution_until_crash(
        SCHEMA, FDS, tmp_path / "d", BASE, op, None
    )
    assert completed and not crashed
    old_sets, new_sets = evolution_oracle(SCHEMA, FDS, BASE, op)
    back = reopen(SCHEMA, FDS, tmp_path / "d")
    try:
        assert back.schema_version == 1
        assert back.stats.evolution_rollforwards == 0
        assert_evolution_recovered(back, old_sets, new_sets)
    finally:
        back.close()
    assert verify_store(tmp_path / "d")["ok"]


def test_mid_migration_writes_survive_restart(tmp_path):
    def during(service):
        assert service.insert("CHR", ("c3", "h3", "r3")).accepted
        assert service.insert("CT", ("c3", "t3")).accepted

    with DurableShardedService(SCHEMA, FDS, tmp_path / "d") as svc:
        svc.load(BASE)
        result = svc.evolve(parse_evolution_op(SPLIT), during=during)
        assert result.journal_replays >= 2
    back = reopen(SCHEMA, FDS, tmp_path / "d")
    try:
        sets = {
            scheme.name: frozenset(tuple(t.values) for t in relation)
            for scheme, relation in back.state()
        }
        assert ("c3", "h3") in sets["CH"]
        assert ("c3", "r3") in sets["CR"]
        assert ("c3", "t3") in sets["CT"]
    finally:
        back.close()


def _sets(service):
    return {
        scheme.name: frozenset(tuple(t.values) for t in relation)
        for scheme, relation in service.state()
    }


def test_mid_migration_merge_writes_survive_restart(tmp_path):
    """Both halves of a merged row written mid-migration are acked
    durable; the live merge and the reopened store must both hold the
    joined row, and agree."""

    def during(service):
        assert service.insert("CT", ("c3", "t3")).accepted
        assert service.insert("CS", ("c3", "s3")).accepted

    with DurableShardedService(SCHEMA, FDS, tmp_path / "d") as svc:
        svc.load(BASE)
        svc.evolve(parse_evolution_op("merge CT + CS -> CTS"), during=during)
        live = _sets(svc)
    assert ("c3", "s3", "t3") in live["CTS"]
    back = reopen(SCHEMA, FDS, tmp_path / "d")
    try:
        assert back.schema_version == 1
        assert _sets(back) == live
    finally:
        back.close()


def test_retired_and_unknown_names_never_raise_key_error(tmp_path):
    """A write to a scheme an evolution then retires is committed by
    the evolution itself; the front end's follow-up per-shard commit
    and snapshot check must skip the retired name, and every lookup of
    an unknown or retired shard raises the schema's own error."""
    with DurableShardedService(SCHEMA, FDS, tmp_path / "d") as svc:
        svc.load(BASE)
        _outcome, staged = svc.apply_insert("CHR", ("c3", "h3", "r3"))
        assert staged
        svc.evolve(parse_evolution_op(SPLIT))
        assert ("c3", "h3") in _sets(svc)["CH"]
        svc.commit_shards(["CHR"])
        svc.maybe_snapshot(["CHR"])
        for name in ("CHR", "NOPE"):
            with pytest.raises(SchemaError):
                svc.snapshot(name)
            with pytest.raises(SchemaError):
                svc.shard_lock(name)


@pytest.mark.parametrize("point", [None, "evolve.manifest"], ids=["live", "evolve-manifest"])
def test_split_retires_the_source_on_replica_stores_too(tmp_path, point):
    """The retired scheme's directory leaves every store, the
    replica's included: after the split — completed live, or crashed
    at the commit point and recovered by reopen — no store holds
    ``CHR``, and the replica verifies clean against the primary."""
    root, replica = tmp_path / "d", tmp_path / "r"
    hook = None if point is None else FaultInjector(point)
    run_evolution_until_crash(
        SCHEMA, FDS, root, BASE, parse_evolution_op(SPLIT), hook,
        replicas=[replica],
    )
    current = ["CH", "CR", "CS", "CT"]
    if point is None:
        assert sorted(p.name for p in (replica / "shards").iterdir()) == current
    back = reopen(SCHEMA, FDS, root, replicas=[replica])
    try:
        assert back.schema_version == 1
        for store in (root, replica):
            assert sorted(p.name for p in (store / "shards").iterdir()) == current
        report = verify_store(root, replicas=[replica])
        assert report["ok"]
        assert sorted(report["replicas"][str(replica)]["shards"]) == current
    finally:
        back.close()


def test_verify_store_lists_retired_directories_until_reopen(tmp_path):
    """A crash right after the commit point leaves the retired
    source's directory on every store; ``verify_store`` names it as
    crash residue (not damage) until a reopen sweeps it."""
    root, replica = tmp_path / "d", tmp_path / "r"
    run_evolution_until_crash(
        SCHEMA, FDS, root, BASE, parse_evolution_op(SPLIT),
        FaultInjector("evolve.manifest"), replicas=[replica],
    )
    report = verify_store(root, replicas=[replica])
    assert report["ok"]
    assert report["retired_dirs"] == ["CHR"]
    assert report["replicas"][str(replica)]["retired_dirs"] == ["CHR"]
    reopen(SCHEMA, FDS, root, replicas=[replica]).close()
    report = verify_store(root, replicas=[replica])
    assert report["ok"]
    assert report["retired_dirs"] == []
    assert report["replicas"][str(replica)]["retired_dirs"] == []


class _RecordingIO(StoreIO):
    """The real filesystem, with every manifest-relevant call logged."""

    def __init__(self):
        self.calls = []

    def snapshot_write(self, path, payload):
        super().snapshot_write(path, payload)
        self.calls.append(("written+fsynced", path.name))

    def replace(self, src, dst):
        super().replace(src, dst)
        self.calls.append(("replace", src.name, dst.name))

    def dir_fsync(self, directory):
        super().dir_fsync(directory)
        self.calls.append(("dir_fsync", directory))


def _assert_manifest_durable(calls, root):
    """The tmp manifest's bytes were fsynced before the rename, and the
    directory holding the rename was fsynced after it."""
    replace = calls.index(("replace", "MANIFEST.json.tmp", "MANIFEST.json"))
    assert ("written+fsynced", "MANIFEST.json.tmp") in calls[:replace]
    assert ("dir_fsync", root) in calls[replace + 1:]


def test_manifest_is_fsynced_at_first_open_and_at_evolve(tmp_path):
    io = _RecordingIO()
    root = tmp_path / "d"
    with DurableShardedService(SCHEMA, FDS, root, io=io) as svc:
        _assert_manifest_durable(io.calls, root)
        svc.load(BASE)
        io.calls.clear()
        svc.evolve(parse_evolution_op(SPLIT))
        _assert_manifest_durable(io.calls, root)


def test_rejected_evolution_leaves_the_store_at_the_old_epoch(tmp_path):
    with DurableShardedService(SCHEMA, FDS, tmp_path / "d") as svc:
        svc.load(BASE)
        with pytest.raises(EvolutionRejectedError):
            svc.evolve(parse_evolution_op("add-fd S,H -> R"))
        assert svc.schema_version == 0
    report = verify_store(tmp_path / "d")
    assert report["ok"]
    assert report.get("schema_log", {}).get("records", 0) == 0
    back = reopen(SCHEMA, FDS, tmp_path / "d")
    try:
        assert back.schema_version == 0
        assert back.insert("CT", ("c9", "t9")).accepted
    finally:
        back.close()


def test_chained_evolutions_reopen_at_the_latest_epoch(tmp_path):
    with DurableShardedService(SCHEMA, FDS, tmp_path / "d") as svc:
        svc.load(BASE)
        svc.evolve(parse_evolution_op(SPLIT))
        svc.evolve(parse_evolution_op("add-attr CH X = tba"))
    back = reopen(SCHEMA, FDS, tmp_path / "d")
    try:
        assert back.schema_version == 2
        assert set(back.shard_names()) == {"CT", "CS", "CH", "CR"}
        report = verify_store(tmp_path / "d")
        assert report["ok"]
        assert report.get("schema_log", {}).get("records") == 2
    finally:
        back.close()
