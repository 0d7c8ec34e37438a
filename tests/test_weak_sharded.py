"""The independence-aware sharded service against its oracles.

:class:`~repro.weak.sharded.ShardedWeakInstanceService` must be
observably identical to the global chase-method
:class:`~repro.weak.service.WeakInstanceService` *and* to re-deriving
every answer from scratch — after any interleaving of inserts (valid,
invalid, duplicate), deletes, and queries — while confining updates to
one shard.  The randomized stream suite mirrors
``tests/test_weak_service.py``; the planner tests pin the soundness
guard (scheme-embedded targets are served locally only when no other
scheme's closure can reach them).
"""

from dataclasses import fields

import pytest

from repro.core.independence import analyze
from repro.data.states import DatabaseState
from repro.deps.fdset import FDSet
from repro.exceptions import (
    InconsistentStateError,
    NotIndependentError,
    SchemaError,
)
from repro.query import evaluate_naive, parse_query
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema
from repro.weak.representative import window
from repro.weak.service import ServiceStats, WeakInstanceService
from repro.weak.sharded import ShardedServiceStats, ShardedWeakInstanceService
from repro.workloads.schemas import (
    chain_schema,
    disjoint_star_schema,
    star_schema,
    triangle_schema,
)
from repro.workloads.states import (
    delete_heavy_stream_workload,
    insert_heavy_stream_workload,
    mixed_stream_workload,
    random_satisfying_state,
)


def scratch_window(state, fds, attrset):
    """The rebuild-per-query oracle."""
    return window(state, fds, attrset)


def _drive_against_oracles(schema, fds, base, ops):
    """Run one stream through the sharded service, the global chase
    service, and the from-scratch oracle; every verdict and every
    answer must agree pairwise."""
    sharded = ShardedWeakInstanceService(schema, fds)
    global_ = WeakInstanceService(schema, fds, method="chase")
    sharded.load(base)
    global_.load(base)
    queried = 0
    for op in ops:
        if op.kind == "insert":
            a = sharded.insert(op.scheme, op.values)
            b = global_.insert(op.scheme, op.values)
            assert a.accepted == b.accepted, op
        elif op.kind == "delete":
            assert sharded.delete(op.scheme, op.values) == global_.delete(
                op.scheme, op.values
            )
        else:
            got = sharded.window(op.attributes)
            assert got == global_.window(op.attributes), op.attributes
            assert got == scratch_window(sharded.state(), fds, op.attributes)
            queried += 1
    assert sharded.state() == global_.state()
    return sharded, queried


class TestRandomizedStreams:
    """The headline oracle suite: sharded vs global chase vs scratch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_chain_stream(self, seed):
        schema, F = chain_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=25, n_inserts=25, n_deletes=6, n_queries=25,
            seed=seed, domain_size=40,
        )
        sharded, queried = _drive_against_oracles(schema, F, base, ops)
        assert queried == 25
        sharded.representative().check_index_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_star_stream(self, seed):
        schema, F = star_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=20, n_inserts=20, n_deletes=5, n_queries=20,
            seed=seed + 200, domain_size=30,
        )
        _drive_against_oracles(schema, F, base, ops)

    @pytest.mark.parametrize("seed", range(4))
    def test_disjoint_star_stream(self, seed):
        """The fully shardable regime — and still oracle-identical on
        the cross-scheme sliding windows of the default query pool."""
        schema, F = disjoint_star_schema(3, satellites=2)
        base, ops = mixed_stream_workload(
            schema, F, n_base=15, n_inserts=20, n_deletes=4, n_queries=20,
            seed=seed, domain_size=60,
        )
        _drive_against_oracles(schema, F, base, ops)

    @pytest.mark.parametrize("seed", range(3))
    def test_insert_heavy_stream(self, seed):
        schema, F = disjoint_star_schema(4, satellites=2)
        base, ops = insert_heavy_stream_workload(
            schema, F, n_base=20, n_inserts=60, n_queries=15, n_deletes=5,
            seed=seed, domain_size=50, invalid_ratio=0.3,
        )
        sharded, queried = _drive_against_oracles(schema, F, base, ops)
        assert queried == 15
        # the pool is scheme-embedded and the schemes are disjoint:
        # every query must stay on the shard fast path
        assert sharded.stats.joined_windows == 0
        assert sharded.stats.shard_windows == 15
        assert sharded.stats.inserts_rejected > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_delete_heavy_stream(self, seed):
        schema, F = chain_schema(4)
        base, ops = delete_heavy_stream_workload(
            schema, F, n_base=20, n_deletes=12, n_queries=12,
            seed=seed, domain_size=200,
        )
        _drive_against_oracles(schema, F, base, ops)


class TestRejection:
    def test_non_independent_schema_is_rejected_with_diagnostic(self):
        schema, F = triangle_schema(2)
        with pytest.raises(NotIndependentError) as exc:
            ShardedWeakInstanceService(schema, F)
        # the analysis report (with its counterexample) rides along
        assert "independent" in str(exc.value)
        report = exc.value.report
        assert not report.independent
        assert report.counterexample is not None

    def test_example2_rejected_via_lemma3(self):
        schema = DatabaseSchema.parse("CT(C,T); CHR(C,H,R); CS(C,S)")
        F = FDSet.parse("C -> T; C H -> R; S H -> R")
        with pytest.raises(NotIndependentError) as exc:
            ShardedWeakInstanceService(schema, F)
        assert exc.value.report.counterexample.construction == "lemma3"

    def test_precomputed_report_skips_reanalysis(self):
        schema, F = chain_schema(3)
        report = analyze(schema, F)
        service = ShardedWeakInstanceService(schema, F, report=report)
        assert service.report is report
        assert service.maintenance_cover("R1")


class TestPlanner:
    def test_cross_scheme_derivation_goes_global(self):
        """X ⊆ Ri alone does not license a local answer: in this
        independent schema the AB-window contains a fact joined
        *through* C, which only a lookup join across shards finds."""
        schema = DatabaseSchema.parse("AB(A,B); CA(C,A); CB(C,B)")
        F = FDSet.parse("C -> A; C -> B")
        service = ShardedWeakInstanceService(schema, F)
        service.load(
            DatabaseState(
                schema, {"AB": [(1, 2)], "CA": [(9, 5)], "CB": [(9, 6)]}
            )
        )
        facts = service.window("A B")
        values = {tuple(t.value(a) for a in facts.attributes) for t in facts}
        assert values == {(1, 2), (5, 6)}  # (5, 6) is the derived fact
        assert service.stats.joined_windows == 1
        assert service.stats.shard_windows == 0
        assert facts == scratch_window(service.state(), F, "A B")

    def test_unreachable_embedded_target_stays_local(self):
        """Chain FDs point forward, so nothing can derive A1: the R1
        window is served from the R1 shard alone."""
        schema, F = chain_schema(3)
        base = random_satisfying_state(schema, F, 10, seed=1, domain_size=100)
        service = ShardedWeakInstanceService.from_state(base, F)
        facts = service.window("A1 A2")
        assert service.stats.shard_windows == 1
        assert service.stats.joined_windows == 0
        assert facts == scratch_window(service.state(), F, "A1 A2")
        # R2's own attributes are reachable from R1 via A2 → A3, but
        # every such R1 row looks A3 up in R2: pruning leaves R2 alone
        assert service.window("A2 A3") == scratch_window(
            service.state(), F, "A2 A3"
        )
        assert service.stats.shard_windows == 2
        assert service.stats.joined_windows == 0

    def test_multi_scheme_direct_target_merges_shards(self):
        """A target embedded in several schemes (all of them direct)
        unions the shard projections with dedup."""
        schema = DatabaseSchema.parse("KA(K,A); KAB(K,A,B)")
        F = FDSet()  # no FDs: closures equal the schemes
        service = ShardedWeakInstanceService(schema, F)
        service.load(
            DatabaseState(
                schema,
                {"KA": [(1, 2), (3, 4)], "KAB": [(1, 2, 9), (5, 6, 9)]},
            )
        )
        facts = service.window("K A")
        values = {(t.value("K"), t.value("A")) for t in facts}
        assert values == {(1, 2), (3, 4), (5, 6)}
        assert service.stats.shard_windows == 1
        assert facts == scratch_window(service.state(), F, "K A")
        # merged answers are cached against the shard version vector
        again = service.window("K A")
        assert again is facts
        assert service.stats.window_cache_hits >= 1
        # an insert into one contributing shard invalidates the merge
        assert service.insert("KA", (7, 8)).accepted
        refreshed = service.window("K A")
        assert refreshed is not facts
        assert refreshed == scratch_window(service.state(), F, "K A")

    def test_merged_path_keeps_hits_below_queries(self, monkeypatch):
        """Regression: shard consultations inside one merged window are
        not served queries — hits must never exceed window_queries (the
        derived misses counter would go negative)."""
        schema = DatabaseSchema.parse("KA(K,A); KAB(K,A,B)")
        monkeypatch.setattr(ShardedWeakInstanceService, "WINDOW_CACHE_LIMIT", 1)
        service = ShardedWeakInstanceService(schema, FDSet())
        service.load(DatabaseState(schema, {"KA": [(1, 2)], "KAB": [(1, 2, 3)]}))
        for _ in range(4):
            # evict the merged "K A" entry each round, so every query
            # re-consults both shards' (warm) caches
            service.window("K A")
            service.window("A B")
        stats = service.stats
        assert stats.window_cache_hits <= stats.window_queries
        assert stats.window_cache_misses >= 0

    def test_unknown_attribute_raises(self):
        schema, F = chain_schema(3)
        service = ShardedWeakInstanceService(schema, F)
        with pytest.raises(SchemaError):
            service.window("A1 ZZ")

    def test_empty_target_answered_locally(self):
        schema, F = disjoint_star_schema(2)
        base = random_satisfying_state(schema, F, 5, seed=2, domain_size=50)
        service = ShardedWeakInstanceService.from_state(base, F)
        facts = service.window(())
        assert len(facts) == 1  # the empty projection of a non-empty state
        assert facts == scratch_window(service.state(), F, ())


class TestShardLocality:
    def test_insert_touches_exactly_one_shard(self):
        schema, F = disjoint_star_schema(3, satellites=2)
        base = random_satisfying_state(schema, F, 10, seed=3, domain_size=10**6)
        service = ShardedWeakInstanceService.from_state(base, F)
        r1 = schema.schemes[0].attributes
        warm = service.window(r1)
        hits = service.stats.window_cache_hits
        out = service.insert("R2", (10**6 + 1, 0, 0))
        assert out.accepted and out.method == "local"
        # R1's cached window survives a foreign-shard insert...
        assert service.window(r1) is warm
        assert service.stats.window_cache_hits == hits + 1
        # ...and nothing was chased
        assert service.stats.incremental_chases == 0

    def test_rejected_insert_touches_nothing(self):
        schema, F = star_schema(3)
        service = ShardedWeakInstanceService(schema, F)
        assert service.insert("R1", ("k", "x")).accepted
        before = service.state()
        outcome = service.insert("R1", ("k", "y"))  # violates K -> A1
        assert not outcome.accepted
        assert outcome.violated_fd is not None
        assert service.state() == before

    def test_duplicate_insert_is_noop(self):
        schema, F = star_schema(2)
        service = ShardedWeakInstanceService(schema, F)
        assert service.insert("R1", ("k", "x")).accepted
        outcome = service.insert("R1", ("k", "x"))
        assert outcome.accepted and "duplicate" in outcome.reason
        assert service.stats.duplicate_inserts == 1
        assert service.total_tuples() == 1

    def test_shard_traffic_does_no_chase_work(self):
        """A shard is its relation: inserts (one rejected), deletes, a
        batch, local windows and filtered scans never build, drive or
        retract a tableau — every chase counter stays 0."""
        schema, F = disjoint_star_schema(2, satellites=2)
        base = random_satisfying_state(schema, F, 20, seed=4, domain_size=50)
        service = ShardedWeakInstanceService.from_state(base, F)
        r1 = schema.schemes[0].attributes
        key, sat = r1.names[0], r1.names[1]
        service.window(r1)
        assert service.insert("R1", (900, 1, 2)).accepted
        assert not service.insert("R1", (900, 9, 2)).accepted  # K1 -> A1a
        victim = base["R2"].tuples[0]
        assert service.delete("R2", victim)
        outcomes = service.insert_many(
            [("R1", (901, 1, 2)), ("R2", (902, 3, 4)), ("R1", (901, 7, 2))]
        )
        assert [o.accepted for o in outcomes] == [True, True, False]
        service.window(r1)
        service.window(AttributeSet([key, sat]))
        got = service.query(f"select({sat}=1, [{key} {sat}])")
        assert got == evaluate_naive(
            parse_query(f"select({sat}=1, [{key} {sat}])"), service.state(), F
        )
        assert service.stats.query_shard_scans >= 1
        assert service.stats.shard_windows == 3
        for counter in (
            "rebuilds", "incremental_chases", "bulk_loads", "scoped_rechases"
        ):
            assert getattr(service.stats, counter) == 0, counter

    def test_insert_then_delete_same_tuple_through_one_sync(self):
        """A +t/-t pair between two cross-shard windows leaves the
        answer as it was."""
        schema, F = chain_schema(3)
        base = random_satisfying_state(schema, F, 8, seed=5, domain_size=500)
        service = ShardedWeakInstanceService.from_state(base, F)
        before = service.window(schema.universe)
        assert service.insert("R1", (901, 902)).accepted
        assert service.delete("R1", (901, 902))
        after = service.window(schema.universe)
        assert after == before
        assert after == scratch_window(service.state(), F, schema.universe)


class TestLoad:
    def test_load_rejects_violating_state_atomically(self):
        schema, F = star_schema(2)
        service = ShardedWeakInstanceService(schema, F)
        ok = DatabaseState(schema, {"R1": [("k", "x")]})
        service.load(ok)
        bad = DatabaseState(
            schema,
            {"R2": [("k", "b")], "R1": [("k2", "y"), ("k2", "z")]},
        )
        with pytest.raises(InconsistentStateError):
            service.load(bad)
        # nothing from the failed load survives — not even the valid
        # R2 tuple committed before R1's rejection unwound it
        assert service.total_tuples() == 1
        assert service.state() == ok

    def test_load_conflicting_with_stored_tuple_is_atomic(self):
        schema, F = star_schema(2)
        service = ShardedWeakInstanceService(schema, F)
        service.load(DatabaseState(schema, {"R1": [("k", "x")]}))
        with pytest.raises(InconsistentStateError):
            service.load(DatabaseState(schema, {"R1": [("k", "y")]}))
        assert service.total_tuples() == 1

    def test_incremental_load_then_queries(self):
        schema, F = chain_schema(3)
        full = random_satisfying_state(schema, F, 12, seed=7, domain_size=300)
        half_a = DatabaseState(
            schema, {s.name: list(full[s.name].tuples[::2]) for s in schema}
        )
        half_b = DatabaseState(
            schema, {s.name: list(full[s.name].tuples[1::2]) for s in schema}
        )
        split = ShardedWeakInstanceService(schema, F)
        split.load(half_a)
        split.window(schema.universe)  # interleaved query caches a result
        split.load(half_b)
        whole = ShardedWeakInstanceService.from_state(full, F)
        assert split.state() == whole.state()
        for attrs in ("A1 A2", "A2 A3", schema.universe):
            assert split.window(attrs) == whole.window(attrs)


class TestSchemeRestriction:
    """The independence report's service-consumable per-scheme form."""

    def test_restriction_is_independent_and_covers_match(self):
        schema, F = chain_schema(3)
        report = analyze(schema, F)
        covers = report.maintenance_covers()
        assert set(covers) == set(schema.names)
        for name in schema.names:
            sub = report.scheme_restriction(name)
            assert sub.independent
            assert sub.schema.names == (name,)
            assert sub.maintenance_cover(name) == covers[name]

    def test_restriction_feeds_local_checker(self):
        from repro.core.maintenance import MaintenanceChecker

        schema, F = star_schema(2)
        report = analyze(schema, F)
        sub = report.scheme_restriction("R1")
        checker = MaintenanceChecker(
            sub.schema, sub.fds, method="local", report=sub
        )
        assert checker.insert("R1", ("k", "x")).accepted
        assert not checker.insert("R1", ("k", "y")).accepted

    def test_covers_require_independence(self):
        from repro.exceptions import DependencyError

        schema, F = triangle_schema(2)
        report = analyze(schema, F)
        with pytest.raises(DependencyError):
            report.maintenance_covers()


class TestStatsContract:
    """Satellite: ``as_dict`` must enumerate dataclass fields, so no
    counter — present or future — can be dropped from the CLI ``stats``
    op."""

    def test_service_stats_fields_equal_keys(self):
        stats = ServiceStats()
        expected = {f.name for f in fields(ServiceStats)}
        assert set(stats.as_dict()) == expected | {"window_cache_misses"}

    def test_sharded_stats_fields_equal_keys(self):
        stats = ShardedServiceStats()
        expected = {f.name for f in fields(ShardedServiceStats)}
        assert set(stats.as_dict()) == expected | {"window_cache_misses"}
        # and the sharded fields genuinely extend the base ones
        assert expected > {f.name for f in fields(ServiceStats)}

    def test_sharded_counters_flow_into_as_dict(self):
        schema, F = disjoint_star_schema(2)
        base = random_satisfying_state(schema, F, 5, seed=9, domain_size=100)
        service = ShardedWeakInstanceService.from_state(base, F)
        service.window(schema.schemes[0].attributes)
        d = service.stats.as_dict()
        assert d["shard_windows"] == 1
        assert "joined_windows" in d and "composer_syncs" in d
