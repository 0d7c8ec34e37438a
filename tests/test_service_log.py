"""The shard's log as a strategy of the one sharded service.

``ShardedWeakInstanceService(schema, fds)`` keeps no log; given a
``root`` every shard writes its own WAL and snapshots.  These tests pin
what changes between the two and what must not: the store-less service
touches no file, has nothing to commit, refuses the operations that
need a log with a typed error, and survives a failed evolution without
the crash latch — while answering every read exactly like the service
with a store.
"""

import os

import pytest

from repro.exceptions import ReproError
from repro.schema.evolution import parse_evolution_op
from repro.weak.server import WeakInstanceServer
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import chain_schema
from tests.harness.faults import FaultInjector, FaultTrace, InjectedCrash

#: the evolve.* crash points a store-less evolution passes: the commit
#: point (schema.log + manifest) and the finalize exist only with a store
IN_MEMORY_EVOLVE_POINTS = (
    "evolve.begin",
    "evolve.mid-rebuild",
    "evolve.journal-replay",
)
EVOLUTION = "add-attr R1 X"
WINDOWS = ("A1 A2", "A2 A3", "A1 A3", "A1 A4", "A3 A4")
QUERIES = ("select(A2='b', [A1 A2 A3])", "join([A1 A2], [A2 A3])")


@pytest.fixture
def chain3():
    return chain_schema(3)


def run_script(svc):
    """One op script: inserts, a rejected insert, a batch, deletes and
    an evolution; returns the insert outcomes' verdicts."""
    verdicts = [
        svc.insert("R1", ("a", "b")).accepted,
        svc.insert("R2", ("b", "c")).accepted,
        svc.insert("R3", ("c", "d")).accepted,
        svc.insert("R1", ("a", "z")).accepted,  # A1 -> A2: rejected
    ]
    verdicts += [
        o.accepted
        for o in svc.insert_many(
            [("R1", ("e", "b")), ("R2", ("f", "g")), ("R3", ("g", "h")),
             ("R2", ("b", "x"))]  # A2 -> A3: rejected
        )
    ]
    assert svc.delete("R3", ("g", "h"))
    assert not svc.delete("R3", ("g", "h"))
    svc.evolve(parse_evolution_op(EVOLUTION))
    verdicts.append(svc.insert("R2", ("h", "i")).accepted)
    return verdicts


def answers(svc):
    return (
        {a: sorted(tuple(t.values) for t in svc.window(a)) for a in WINDOWS},
        {q: sorted(tuple(t.values) for t in svc.query(q)) for q in QUERIES},
    )


class TestWithoutAStore:
    def test_creates_no_file(self, tmp_path, monkeypatch, chain3):
        monkeypatch.chdir(tmp_path)
        with ShardedWeakInstanceService(*chain3) as svc:
            run_script(svc)
            svc.commit()
        assert svc.root is None
        assert os.listdir(tmp_path) == []

    def test_commits_are_no_ops(self, chain3):
        svc = ShardedWeakInstanceService(*chain3, auto_commit=False)
        outcome, staged = svc.apply_insert("R1", ("a", "b"))
        assert outcome.accepted and not staged
        outcomes, staged = svc.apply_insert_many([("R2", ("b", "c"))])
        assert outcomes[0].accepted and not staged
        assert svc.apply_delete("R1", ("a", "b")) == (True, False)
        svc.commit()
        svc.commit_shards(["R1", "R2"])
        svc.maybe_snapshot()
        counters = svc.stats.as_dict()
        for key in ("wal_records_appended", "wal_commits", "wal_fsyncs",
                    "snapshots_written"):
            assert counters[key] == 0
        assert svc.health()["status"] == "serving"

    @pytest.mark.parametrize(
        "call",
        [
            lambda svc: svc.snapshot(),
            lambda svc: svc.snapshot("R1"),
            lambda svc: svc.repair("R1"),
            lambda svc: svc.failover("R1"),
            lambda svc: svc.rejoin("R1", "elsewhere"),
        ],
        ids=["snapshot", "snapshot-one", "repair", "failover", "rejoin"],
    )
    def test_log_operations_raise_the_typed_error(self, chain3, call):
        svc = ShardedWeakInstanceService(*chain3)
        with pytest.raises(ReproError, match="requires a durable service"):
            call(svc)

    def test_sessioned_writes_raise_the_typed_error(self, chain3):
        svc = ShardedWeakInstanceService(*chain3)
        with pytest.raises(ReproError, match="require a durable service"):
            svc.insert("R1", ("a", "b"), session=("s", 1))
        with pytest.raises(ReproError, match="require a durable service"):
            svc.apply_delete("R1", ("a", "b"), session=("s", 1))
        assert svc.total_tuples() == 0
        with WeakInstanceServer(svc, workers=1) as server:
            with pytest.raises(ReproError, match="require a durable service"):
                server.insert("R1", ("a", "b"), session=("s", 1))
            with pytest.raises(ReproError, match="requires a durable service"):
                server.snapshot()
            with pytest.raises(ReproError, match="requires a durable service"):
                server.repair("R1")
            assert server.insert("R1", ("a", "b")).accepted

    def test_replicas_need_a_root(self, tmp_path, chain3):
        with pytest.raises(ReproError, match="pass a root"):
            ShardedWeakInstanceService(*chain3, replicas=[tmp_path / "r1"])


class TestFailedEvolution:
    def test_store_less_evolution_passes_only_the_in_memory_points(self, chain3):
        trace = FaultTrace()
        svc = ShardedWeakInstanceService(*chain3, fault_hook=trace)
        svc.insert("R1", ("a", "b"))
        svc.evolve(parse_evolution_op(EVOLUTION))
        assert set(trace.events) == set(IN_MEMORY_EVOLVE_POINTS)

    @pytest.mark.parametrize("point", IN_MEMORY_EVOLVE_POINTS)
    def test_store_less_crash_leaves_the_old_epoch_serving(self, chain3, point):
        injector = FaultInjector(point)
        svc = ShardedWeakInstanceService(*chain3, fault_hook=injector)
        svc.insert("R1", ("a", "b"))
        svc.insert("R2", ("b", "c"))
        before = answers(svc)
        with pytest.raises(InjectedCrash):
            svc.evolve(parse_evolution_op(EVOLUTION))
        assert not svc.crashed
        assert svc.schema_version == 0
        assert svc.health()["status"] == "serving"
        assert answers(svc) == before
        assert svc.insert("R3", ("c", "d")).accepted
        svc.fault_hook = None
        assert svc.evolve(parse_evolution_op(EVOLUTION)).epoch_to == 1

    @pytest.mark.parametrize("point", IN_MEMORY_EVOLVE_POINTS)
    def test_durable_crash_latches_and_a_reopen_recovers(
        self, tmp_path, chain3, point
    ):
        schema, fds = chain3
        root = tmp_path / "d"
        svc = ShardedWeakInstanceService(
            schema, fds, root, fault_hook=FaultInjector(point)
        )
        svc.insert("R1", ("a", "b"))
        svc.insert("R2", ("b", "c"))
        before = answers(svc)
        with pytest.raises(InjectedCrash):
            svc.evolve(parse_evolution_op(EVOLUTION))
        assert svc.crashed
        assert svc.health()["status"] == "crashed"
        svc.close()
        with ShardedWeakInstanceService(schema, fds, root) as back:
            assert back.schema_version == 0
            assert answers(back) == before


def test_answers_agree_with_and_without_a_store(tmp_path, chain3):
    schema, fds = chain3
    plain = ShardedWeakInstanceService(schema, fds)
    with ShardedWeakInstanceService(schema, fds, tmp_path / "d") as logged:
        assert run_script(plain) == run_script(logged)
        assert answers(plain) == answers(logged)
        assert plain.state() == logged.state()
    with ShardedWeakInstanceService(schema, fds, tmp_path / "d") as back:
        assert back.schema_version == plain.schema_version
        assert answers(back) == answers(plain)
