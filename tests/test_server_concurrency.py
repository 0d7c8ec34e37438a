"""The multi-client front end: correctness under concurrency.

Fast tests pin the server's contracts single-threadedly and with small
thread counts (equivalence to the direct service, read-your-writes,
durable acknowledgement ordering, crash propagation, per-shard WAL
order).  The ``slow``-marked stress test runs the full multi-writer /
multi-reader regime from :mod:`tests.harness.drivers`: one writer per
scheme (Theorem 3's disjoint-writer regime), concurrent readers
asserting prefix-consistent (torn-free) reads and monotone version
stamps, then a restart proving the acknowledged history survived.
"""

import random
import shutil
import sys
import threading

import pytest

from repro.data.states import DatabaseState
from repro.query import QueryEngine, evaluate_naive
from repro.weak.durable import DurableShardedService, DurableUnavailableError
from repro.weak.server import ServerStoppedError, WeakInstanceServer
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import chain_schema, disjoint_star_schema
from repro.workloads.states import mixed_stream_workload

from tests.harness.drivers import run_multi_writer_stress, wal_ops
from tests.harness.faults import FaultInjector, InjectedCrash


def make_plan(schema, n_ops):
    """One op list per scheme: fresh inserts with a sentinel-row
    toggle every tenth op, so every op changes state (and therefore
    logs exactly one WAL record, making order observable)."""
    plan = {}
    columns = {}
    for scheme in schema:
        name = scheme.name
        columns[name] = scheme.columns
        width = len(scheme.columns)
        sentinel = tuple(f"{name}-s{j}" for j in range(width))
        ops = [("insert", sentinel)]
        for k in range(n_ops):
            ops.append(
                ("insert", tuple(f"{name}-r{k}-{j}" for j in range(width)))
            )
            if k % 10 == 9:
                ops.append(("delete", sentinel))
                ops.append(("insert", sentinel))
        plan[name] = ops
    return plan, columns


def expected_final(plan):
    final = {}
    for name, ops in plan.items():
        rows = set()
        for kind, row in ops:
            rows.add(row) if kind == "insert" else rows.discard(row)
        final[name] = frozenset(rows)
    return final


def served_state(server, columns=None):
    """Rows per shard; with ``columns`` given, values are extracted in
    declared-column order (matching the rows in a plan) rather than the
    canonical sorted-attribute order of ``Tuple.values``."""
    return {
        scheme.name: frozenset(
            tuple(t.value(c) for c in columns[scheme.name])
            if columns
            else tuple(t.values)
            for t in relation
        )
        for scheme, relation in server.state()
    }


class TestServerEquivalence:
    def test_matches_direct_service(self):
        """A stream served through the worker pool answers exactly
        like the same stream applied directly."""
        schema, fds = disjoint_star_schema(3)
        base, ops = mixed_stream_workload(
            schema, fds, n_base=10, n_inserts=25, n_deletes=6,
            n_queries=8, seed=11, domain_size=50,
        )
        direct = ShardedWeakInstanceService(schema, fds)
        direct.load(base)
        served = ShardedWeakInstanceService(schema, fds)
        served.load(base)
        with WeakInstanceServer(served, workers=3) as server:
            for op in ops:
                if op.kind == "insert":
                    a = server.insert(op.scheme, op.values)
                    b = direct.insert(op.scheme, op.values)
                    assert (a.accepted, a.reason) == (b.accepted, b.reason)
                elif op.kind == "delete":
                    assert server.delete(op.scheme, op.values) == direct.delete(
                        op.scheme, op.values
                    )
                else:
                    got = {
                        tuple(t.value(x) for x in op.attributes)
                        for t in server.window(op.attributes)
                    }
                    want = {
                        tuple(t.value(x) for x in op.attributes)
                        for t in direct.window(op.attributes)
                    }
                    assert got == want
            assert served_state(server) == {
                scheme.name: frozenset(tuple(t.values) for t in relation)
                for scheme, relation in direct.state()
            }

    def test_submit_after_stop_raises(self):
        schema, fds = disjoint_star_schema(2)
        server = WeakInstanceServer(ShardedWeakInstanceService(schema, fds))
        with pytest.raises(ServerStoppedError):
            server.insert("R1", ("k", "a", "b"))

    def test_readers_share_a_small_prepared_cache(self):
        """Four readers through one engine whose caches hold 4 entries,
        over more shapes than that, with a thread switch forced every
        microsecond: entries are evicted under each other's feet, and
        every answer still equals the oracle on the unchanged state."""
        schema, fds = chain_schema(4)
        rows = {f"R{i}": [(f"v{i}-{c}", f"v{i + 1}-{c}") for c in range(6)]
                for i in range(1, 5)}
        state = DatabaseState(schema, rows)
        service = ShardedWeakInstanceService.from_state(state, fds)
        service._engine = QueryEngine(service, plan_cache_size=4, result_cache_size=4)
        texts = [
            f"select(A{i}='v{i}-{c}', [A{i} A{j}])"
            for i, j in ((1, 3), (2, 4), (3, 5), (1, 5))
            for c in range(3)
        ] + ["[A2 A3]", "join([A1 A2], [A2 A3])", "project(A1, [A1 A4])"]
        texts += [f"select(A2 != 'v2-{c}', [A1 A2])" for c in range(3)]
        expected = {text: evaluate_naive(text, state, fds) for text in texts}
        errors, mismatches = [], []

        def reader(seed):
            order = texts * 8
            random.Random(seed).shuffle(order)
            try:
                for text in order:
                    if server.query(text) != expected[text]:
                        mismatches.append(text)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WeakInstanceServer(service, workers=2) as server:
                threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not mismatches, mismatches
        assert len(service._engine._plan_cache) <= 4


class TestDurableServing:
    def test_acked_writes_survive_restart(self, tmp_path):
        schema, fds = disjoint_star_schema(2)
        service = DurableShardedService(
            schema, fds, tmp_path / "d", auto_commit=False
        )
        with WeakInstanceServer(service, workers=2) as server:
            for k in range(30):
                out = server.insert("R1", (f"k{k}", f"a{k}", f"b{k}"))
                assert out.accepted
            assert server.delete("R1", ("k0", "a0", "b0"))
            final = served_state(server)
        service.close()
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            recovered = {
                scheme.name: frozenset(tuple(t.values) for t in relation)
                for scheme, relation in back.state()
            }
            assert recovered == final
            assert len(recovered["R1"]) == 29

    def test_pipelined_submits_keep_shard_wal_in_order(self, tmp_path):
        """Per-shard write ordering: many futures submitted without
        waiting must hit the WAL in submission order (the routing
        serializes each scheme through one worker)."""
        schema, fds = disjoint_star_schema(2)
        plan, _ = make_plan(schema, 40)
        service = DurableShardedService(
            schema, fds, tmp_path / "d", auto_commit=False
        )
        with WeakInstanceServer(service, workers=2, batch_limit=7) as server:
            futures = []
            for name, ops in plan.items():
                for kind, row in ops:
                    submit = (
                        server.submit_insert
                        if kind == "insert"
                        else server.submit_delete
                    )
                    futures.append(submit(name, row))
            for future in futures:
                future.result(timeout=60)
            for name, ops in plan.items():
                expected = [
                    (
                        "+" if kind == "insert" else "-",
                        service._shard(name)
                        .checker.coerce_tuple(name, row)
                        .values,
                    )
                    for kind, row in ops
                ]
                assert wal_ops(service, name) == expected
        service.close()

    def test_crash_fails_inflight_and_later_writes(self, tmp_path):
        schema, fds = disjoint_star_schema(2)
        service = DurableShardedService(
            schema, fds, tmp_path / "d", auto_commit=False,
            fault_hook=FaultInjector("commit.pre-fsync", 4),
        )
        failures = 0
        acked = []
        with WeakInstanceServer(service, workers=2) as server:
            for k in range(12):
                try:
                    server.insert("R1", (f"k{k}", f"a{k}", f"b{k}"))
                    acked.append(k)
                except (InjectedCrash, DurableUnavailableError):
                    failures += 1
            assert service.crashed
            assert failures > 0
            # reads keep serving the in-memory state (degraded mode)
            assert len(server.window(("K1", "A1a", "A1b"))) >= len(acked)
        service.close()
        # every acknowledged write survived the crash
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            rows = {tuple(t.values) for t in back.state()["R1"]}
            for k in acked:
                assert any(f"k{k}" in row for row in rows)


class TestStopAndDurabilityTimeouts:
    def test_stop_completes_inflight_writes(self, tmp_path):
        """``stop()`` is a drain, not an abort: every write already
        submitted when it is called still resolves, and the accepted
        ones are durable — acknowledged work is never dropped on the
        floor by shutdown."""
        schema, fds = disjoint_star_schema(2)
        service = DurableShardedService(
            schema, fds, tmp_path / "d", auto_commit=False
        )
        server = WeakInstanceServer(service, workers=2)
        server.start()
        futures = [
            server.submit_insert(name, (f"k{k}", f"a{k}", f"b{k}"))
            for k in range(40)
            for name in ("R1", "R2")
        ]
        # no waiting: stop() races the workers mid-batch
        server.stop()
        for future in futures:
            assert future.done(), "stop() returned with an in-flight write"
            assert future.result(timeout=0).accepted
        with pytest.raises(ServerStoppedError):
            server.insert("R1", ("kx", "ax", "bx"))
        service.close()
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            recovered = {
                scheme.name: len(relation) for scheme, relation in back.state()
            }
            assert recovered == {"R1": 40, "R2": 40}

    def test_staged_writes_wait_for_commit(self, tmp_path):
        """With ``auto_commit=False`` a write is staged, not durable:
        ``apply_*`` report ``staged`` only for an operation that
        changed something (a session duplicate repeats its original's
        answer), a crash-copy of the store taken before ``commit()``
        lacks the rows, and one taken after holds them."""
        schema, fds = disjoint_star_schema(2)
        with DurableShardedService(
            schema, fds, tmp_path / "d", auto_commit=False
        ) as service:
            outcome, staged = service.apply_insert("R1", ("k0", "a0", "b0"))
            assert outcome.accepted and staged is True
            # duplicate insert, FD-violating insert, absent delete
            outcome, staged = service.apply_insert("R1", ("k0", "a0", "b0"))
            assert outcome.accepted and staged is False
            outcome, staged = service.apply_insert("R1", ("k0", "a1", "b0"))
            assert not outcome.accepted and staged is False
            assert service.apply_delete("R2", ("k9", "a9", "b9")) == (False, False)
            # a session duplicate makes its caller commit the shard too
            row = ("k1", "a1", "b1")
            for _attempt in range(2):
                outcome, staged = service.apply_insert(
                    "R2", row, session=("s", 1)
                )
                assert outcome.accepted and staged is True
            # a direct insert stages and returns without committing
            assert service.insert("R2", ("k2", "a2", "b2")).accepted
            shutil.copytree(tmp_path / "d", tmp_path / "before")
            service.commit()
            shutil.copytree(tmp_path / "d", tmp_path / "after")
        expected = {"R1": 1, "R2": 2}
        for copy, rows in (("before", {"R1": 0, "R2": 0}), ("after", expected)):
            with DurableShardedService(schema, fds, tmp_path / copy) as back:
                assert {
                    scheme.name: len(relation) for scheme, relation in back.state()
                } == rows, copy


class TestMultiWriterStress:
    def test_stress_smoke(self):
        """The fast lane of the stress driver: plain service, small
        plan — runs in every suite invocation."""
        schema, fds = disjoint_star_schema(2)
        plan, columns = make_plan(schema, 25)
        service = ShardedWeakInstanceService(schema, fds)
        with WeakInstanceServer(service, workers=2) as server:
            report = run_multi_writer_stress(server, plan, columns, readers=1)
            assert report.errors == []
            assert report.reads_checked > 0
            assert served_state(server, columns) == expected_final(plan)

    @pytest.mark.slow
    def test_stress_durable_multi_writer_multi_reader(self, tmp_path):
        """The full regime: N disjoint writers + M readers over a
        durable server — no torn reads, monotone version stamps,
        per-shard WAL order equal to submission order, and the final
        state surviving a restart."""
        schema, fds = disjoint_star_schema(4)
        plan, columns = make_plan(schema, 120)
        service = DurableShardedService(
            schema, fds, tmp_path / "d", auto_commit=False
        )
        with WeakInstanceServer(service, workers=4, batch_limit=16) as server:
            report = run_multi_writer_stress(server, plan, columns, readers=3)
            assert report.errors == []
            assert report.writes_acked == sum(len(ops) for ops in plan.values())
            assert report.reads_checked > 0
            assert served_state(server, columns) == expected_final(plan)
            for name, ops in plan.items():
                expected = [
                    (
                        "+" if kind == "insert" else "-",
                        service._shard(name)
                        .checker.coerce_tuple(name, row)
                        .values,
                    )
                    for kind, row in ops
                ]
                assert wal_ops(service, name) == expected
        service.close()
        with DurableShardedService(schema, fds, tmp_path / "d") as back:
            recovered = {
                scheme.name: frozenset(
                    tuple(t.value(c) for c in columns[scheme.name])
                    for t in relation
                )
                for scheme, relation in back.state()
            }
            assert recovered == expected_final(plan)
