"""Online schema evolution: the op catalog, the incremental
independence re-check, and zero-downtime migration on the live
sharded service.

The oracle for every migration test is a **from-scratch rebuild**: a
fresh in-memory service over the evolved catalog, loaded with the
op's own (deterministic) migration of the base data — the online path
(scoped rebuilds, mid-migration journals, epoch swap) must be
observationally indistinguishable from tearing the world down and
rebuilding it.
"""

import threading

import pytest

from repro.core.independence import (
    analyze,
    analyze_cache_clear,
    analyze_cache_stats,
    reanalyze,
)
from repro.data.states import DatabaseState
from repro.exceptions import (
    DependencyError,
    EvolutionRejectedError,
    ParseError,
    SchemaError,
)
from repro.schema.evolution import (
    AddAttribute,
    AddFD,
    DropAttribute,
    DropFD,
    MergeSchemes,
    SplitScheme,
    evolution_op_from_json,
    parse_evolution_op,
)
from repro.weak.server import WeakInstanceServer
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.paper import example2
from repro.workloads.schemas import (
    chain_schema,
    disjoint_star_schema,
    random_schema,
)
from repro.workloads.states import random_satisfying_state

OP_TEXTS = (
    "add-attr CHR X = TBA",
    "drop-attr CS S",
    "split CHR -> CH(C,H) + CR(C,R)",
    "merge CT + CS -> CTS",
    "add-fd S -> C",
    "drop-fd C -> T",
)


def shard_sets(service):
    return {
        scheme.name: frozenset(tuple(t.values) for t in relation)
        for scheme, relation in service.state()
    }


def rows(relation):
    return sorted(tuple(t.values) for t in relation.tuples)


def base_service(with_state=True):
    ex = example2()
    svc = ShardedWeakInstanceService(ex.schema, ex.fds)
    if with_state:
        svc.load(
            DatabaseState(
                ex.schema,
                {
                    "CT": [("c1", "t1"), ("c2", "t2")],
                    "CS": [("c1", "s1"), ("c2", "s2")],
                    "CHR": [("c1", "h1", "r1"), ("c2", "h2", "r2")],
                },
            )
        )
    return svc


def fresh_rebuild(service_before, op):
    """The restart-the-world oracle: evolved catalog + the op's own
    migration of the captured base rows, loaded into a fresh
    service."""
    old_schema, old_fds = service_before.schema, service_before.fds
    new_schema, new_fds = op.apply(old_schema, old_fds)
    state = service_before.state()
    sources = {
        name: [
            dict(zip(old_schema[name].attributes.names, t.values))
            for t in state[name]
        ]
        for name in op.structural_schemes(old_schema)
    }
    migrated = op.migrate_relations(old_schema, sources)
    relations = {}
    for scheme in new_schema:
        if scheme.name in migrated:
            attrs = scheme.attributes.names
            relations[scheme.name] = [
                tuple(row[a] for a in attrs) for row in migrated[scheme.name]
            ]
        elif scheme.name in old_schema.names:
            relations[scheme.name] = [
                tuple(t.values) for t in state[scheme.name]
            ]
    oracle = ShardedWeakInstanceService(new_schema, new_fds)
    oracle.load(DatabaseState(new_schema, relations))
    return oracle


def assert_matches_oracle(service, oracle):
    assert set(service.shard_names()) == set(oracle.shard_names())
    assert shard_sets(service) == shard_sets(oracle)
    for scheme in oracle.schema:
        attrs = scheme.attributes.names
        assert rows(service.window(attrs)) == rows(oracle.window(attrs)), attrs


class TestOpCatalog:
    @pytest.mark.parametrize("text", OP_TEXTS, ids=lambda t: t.split()[0])
    def test_parse_and_json_round_trip(self, text):
        op = parse_evolution_op(text)
        clone = evolution_op_from_json(op.to_json())
        assert clone == op
        assert clone.describe() == op.describe()

    def test_parse_rejects_garbage(self):
        for bad in ("", "frobnicate CHR", "split CHR", "add-attr CHR"):
            with pytest.raises(ParseError):
                parse_evolution_op(bad)

    def test_apply_validates_against_old_catalog(self):
        ex = example2()
        with pytest.raises(SchemaError):
            AddAttribute("NOPE", "X", "").apply(ex.schema, ex.fds)
        with pytest.raises(SchemaError):
            MergeSchemes(("CT", "CS"), "CHR").apply(ex.schema, ex.fds)
        # dropping R strands the embedded FD CH -> R
        with pytest.raises(DependencyError):
            DropAttribute("CHR", "R").apply(ex.schema, ex.fds)

    def test_migrations_are_pure_and_deterministic(self):
        ex = example2()
        op = SplitScheme("CHR", (("CH", ("C", "H")), ("CR", ("C", "R"))))
        source = {
            "CHR": [
                {"C": "c1", "H": "h1", "R": "r1"},
                {"C": "c2", "H": "h2", "R": "r2"},
            ]
        }
        first = op.migrate_relations(ex.schema, source)
        second = op.migrate_relations(ex.schema, source)
        assert first == second
        assert sorted(
            (r["C"], r["H"]) for r in first["CH"]
        ) == [("c1", "h1"), ("c2", "h2")]
        assert sorted(
            (r["C"], r["R"]) for r in first["CR"]
        ) == [("c1", "r1"), ("c2", "r2")]


def nested_loop_merge(members, relations):
    """The reference merge: a nested-loop natural join, member by
    member, deduplicated — the semantics the hash join must keep,
    output order included."""
    joined = [{}]
    for name in members:
        rows = relations.get(name, [])
        shared = set(rows[0]) & set(joined[0]) if rows and joined else set()
        joined = [
            {**acc, **row}
            for acc in joined
            for row in rows
            if all(acc[a] == row[a] for a in shared)
        ]
    seen = {}
    for row in joined:
        seen.setdefault(tuple(sorted(row.items())), row)
    return list(seen.values())


class TestMergeJoin:
    @pytest.mark.parametrize(
        "members",
        [
            {"A": "X Y", "B": "Z W"},
            {"A": "K X", "B": "K Y"},
            {"A": "K L X", "B": "K L Y"},
            {"A": "K X", "B": "K L", "C": "L Y"},
        ],
        ids=["0-shared", "1-shared", "2-shared", "3-members"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_hash_join_equals_nested_loop(self, members, seed):
        import random

        rng = random.Random(seed)
        relations = {
            name: [
                {a: rng.randrange(4) for a in attrs.split()}
                for _ in range(rng.randrange(12))
            ]
            for name, attrs in members.items()
        }
        op = MergeSchemes(tuple(members), "M")
        got = op.migrate_relations(None, relations)["M"]
        assert got == nested_loop_merge(tuple(members), relations)

    def test_empty_member_empties_the_merge(self):
        relations = {"A": [{"K": 1, "X": 2}], "B": []}
        op = MergeSchemes(("A", "B"), "M")
        assert op.migrate_relations(None, relations) == {"M": []}
        assert op.migrate_relations(None, {"A": [], "B": [{"K": 1}]}) == {
            "M": []
        }


class TestIncrementalRecheck:
    @pytest.mark.parametrize("text", OP_TEXTS, ids=lambda t: t.split()[0])
    def test_delta_agrees_with_full_analysis(self, text):
        ex = example2()
        previous = analyze(ex.schema, ex.fds)
        op = parse_evolution_op(text)
        new_schema, new_fds = op.apply(ex.schema, ex.fds)
        delta = reanalyze(
            previous,
            new_schema,
            new_fds,
            op.changed_attributes(ex.schema, ex.fds),
            op.structural_schemes(ex.schema),
            build_counterexample=False,
        )
        analyze_cache_clear()
        full = analyze(new_schema, new_fds, build_counterexample=False)
        assert delta.report.independent == full.independent
        if full.independent:
            assert delta.report.cover_assignment == full.cover_assignment

    @pytest.mark.parametrize("seed", range(8))
    def test_delta_agrees_on_random_schemas(self, seed):
        schema, fds = random_schema(seed, n_attrs=7, n_schemes=4, n_fds=4)
        previous = analyze(schema, fds, build_counterexample=False)
        if not previous.independent:
            pytest.skip("delta path needs an independent starting catalog")
        scheme = schema.schemes[seed % len(schema.schemes)]
        op = AddAttribute(scheme.name, "Z9", "")
        new_schema, new_fds = op.apply(schema, fds)
        delta = reanalyze(
            previous,
            new_schema,
            new_fds,
            op.changed_attributes(schema, fds),
            op.structural_schemes(schema),
            build_counterexample=False,
        )
        analyze_cache_clear()
        full = analyze(new_schema, new_fds, build_counterexample=False)
        assert delta.report.independent == full.independent

    @pytest.mark.parametrize(
        "text",
        (
            "add-attr R3 X",
            "add-fd A3a -> A3b",
            "split R3 -> R3a(K3,A3a) + R3b(K3,A3b)",
            "merge R2 + R3 -> R23",
            "drop-fd K3 -> A3b",
        ),
        ids=lambda t: t.split()[0],
    )
    def test_delta_agrees_across_disjoint_components(self, text):
        """The incremental condition-(1) test reuses every component
        the edit cannot reach; the merged report must still be
        indistinguishable from a full analysis of the new catalog."""
        schema, fds = disjoint_star_schema(6)
        previous = analyze(schema, fds)
        op = parse_evolution_op(text)
        new_schema, new_fds = op.apply(schema, fds)
        delta = reanalyze(
            previous,
            new_schema,
            new_fds,
            op.changed_attributes(schema, fds),
            op.structural_schemes(schema),
        )
        analyze_cache_clear()
        full = analyze(new_schema, new_fds)
        assert delta.report.independent == full.independent
        assert delta.report.cover_assignment == full.cover_assignment
        # the edit stayed inside its own component
        touched = {s for s in ("R2", "R3", "R3a", "R3b", "R23") if s in new_schema.names}
        assert set(delta.rechecked) <= touched

    def test_recheck_confined_to_closure_reachable_schemes(self):
        """The acceptance counter: on a disjoint multi-tenant catalog
        an edit inside one component re-checks only that component's
        schemes — the others' closures never reach the changed
        attributes."""
        schema, fds = disjoint_star_schema(8)
        svc = ShardedWeakInstanceService(schema, fds)
        assert svc.stats.independence_recheck_schemes == 0
        result = svc.evolve(parse_evolution_op("add-attr R3 X"))
        assert set(result.rechecked) == {"R3"}
        assert set(result.reused) == {f"R{i}" for i in range(1, 9)} - {"R3"}
        assert svc.stats.independence_recheck_schemes == 1

    def test_analyze_is_memoized(self):
        analyze_cache_clear()
        schema, fds = chain_schema(4)
        analyze(schema, fds)
        misses = analyze_cache_stats()["misses"]
        first = analyze(schema, fds)
        second = analyze(schema, fds)
        stats = analyze_cache_stats()
        assert first is second
        assert stats["misses"] == misses
        assert stats["hits"] >= 2
        analyze_cache_clear()
        assert analyze_cache_stats() == {"hits": 0, "misses": 0}

    @pytest.mark.parametrize("seed", range(10))
    def test_scheme_restriction_agrees_with_fresh_analysis(self, seed):
        """Property: the report's single-scheme restriction is exactly
        what analyzing that scheme's restriction from scratch says."""
        schema, fds = random_schema(seed, n_attrs=8, n_schemes=4, n_fds=4)
        report = analyze(schema, fds, build_counterexample=False)
        if not report.independent:
            pytest.skip("restrictions exist only for independent schemas")
        for scheme in schema:
            restricted = report.scheme_restriction(scheme.name)
            fresh = analyze(restricted.schema, restricted.fds)
            assert fresh.independent
            assert restricted.independent
            assert fresh.maintenance_cover(
                scheme.name
            ) == restricted.maintenance_cover(scheme.name)


class TestOnlineMigration:
    @pytest.mark.parametrize("text", OP_TEXTS, ids=lambda t: t.split()[0])
    def test_every_op_matches_from_scratch_rebuild(self, text):
        svc = base_service()
        op = parse_evolution_op(text)
        oracle = fresh_rebuild(svc, op)
        result = svc.evolve(op)
        assert result.epoch_to == svc.schema_version == 1
        assert_matches_oracle(svc, oracle)

    def test_unaffected_shards_are_kept_not_rebuilt(self):
        svc = base_service()
        result = svc.evolve(parse_evolution_op("add-attr CHR X"))
        assert set(result.rebuilt) == {"CHR"}
        assert set(result.kept) == {"CT", "CS"}

    def test_mid_migration_inserts_replay_onto_the_new_epoch(self):
        svc = base_service()
        op = parse_evolution_op("split CHR -> CH(C,H) + CR(C,R)")

        def during(service):
            service.insert("CHR", ("c3", "h3", "r3"))
            service.insert("CT", ("c3", "t3"))

        result = svc.evolve(op, during=during)
        # the CHR insert lands as one journal entry per migrated target
        assert result.journal_replays >= 2
        assert rows(svc.window("C,H")) == [
            ("c1", "h1"), ("c2", "h2"), ("c3", "h3"),
        ]
        assert rows(svc.window("C,R")) == [
            ("c1", "r1"), ("c2", "r2"), ("c3", "r3"),
        ]
        assert ("c3", "t3") in {
            tuple(t.values) for t in svc.state()["CT"]
        }

    def test_mid_migration_deletes_fall_back_to_recapture(self):
        # a delete on a transformed source cannot be replayed
        # tuple-for-tuple on the split targets, so the migration
        # re-captures the source wholesale; only the final state is
        # contractual, not the replay counter
        svc = base_service()
        op = parse_evolution_op("split CHR -> CH(C,H) + CR(C,R)")

        def during(service):
            service.insert("CHR", ("c3", "h3", "r3"))
            service.delete("CHR", ("c1", "h1", "r1"))

        svc.evolve(op, during=during)
        assert rows(svc.window("C,H")) == [("c2", "h2"), ("c3", "h3")]
        assert rows(svc.window("C,R")) == [("c2", "r2"), ("c3", "r3")]

    @pytest.mark.parametrize(
        "writes",
        [
            (("CT", ("c3", "t3")), ("CS", ("c3", "s3"))),
            (("CS", ("c3", "s3")), ("CT", ("c3", "t3"))),
            (("CS", ("c1", "s9")),),
        ],
        ids=["CT-then-CS", "CS-then-CT", "one-member"],
    )
    def test_mid_migration_merge_inserts_join_across_members(self, writes):
        """A row written to one merge member mid-migration joins with
        the *other* members' rows — replaying it alone against empty
        members would drop it, so the migration re-captures the join
        and lands on what a rebuild of the final state gives."""
        svc = base_service()
        expected = base_service()
        for name, row in writes:
            assert expected.insert(name, row).accepted
        op = parse_evolution_op("merge CT + CS -> CTS")
        oracle = fresh_rebuild(expected, op)

        def during(service):
            for name, row in writes:
                assert service.insert(name, row).accepted

        svc.evolve(op, during=during)
        assert_matches_oracle(svc, oracle)
        merged = rows(svc.window("C,S,T"))
        if len(writes) == 2:
            assert ("c3", "s3", "t3") in merged
        else:
            assert ("c1", "s9", "t1") in merged

    def test_same_name_rebuild_keeps_the_shard_record(self):
        """A cover-changing evolution rebuilds CT's checker and tableau
        but keeps its record: the lock a front end holds across the
        swap is the lock the new epoch uses."""
        svc = base_service()
        lock = svc.shard_lock("CT")
        result = svc.evolve(parse_evolution_op("drop-fd C -> T"))
        assert "CT" in result.rebuilt
        assert svc.shard_lock("CT") is lock
        with pytest.raises(SchemaError):
            svc.shard_lock("NOPE")

    def test_rejected_evolution_leaves_old_epoch_serving(self):
        svc = base_service()
        before = shard_sets(svc)
        with pytest.raises(EvolutionRejectedError) as err:
            svc.evolve(parse_evolution_op("add-fd S,H -> R"))
        assert err.value.report is not None
        assert not err.value.report.independent
        assert svc.schema_version == 0
        assert shard_sets(svc) == before
        assert svc.insert("CT", ("c9", "t9")).accepted

    def test_chained_evolutions_bump_epochs(self):
        svc = base_service()
        svc.evolve(parse_evolution_op("add-attr CHR X = tba"))
        svc.evolve(parse_evolution_op("drop-attr CHR X"))
        assert svc.schema_version == 2
        assert set(svc.migration_status()["retained_epochs"]) == {0, 1}

    def test_version_pinned_reads_see_the_old_epoch(self):
        svc = base_service()
        old_chr = rows(svc.window("C,H,R"))
        svc.evolve(parse_evolution_op("split CHR -> CH(C,H) + CR(C,R)"))
        svc.insert("CH", ("c9", "h9"))
        # the live epoch answers over the new catalog …
        assert ("c9", "h9") in set(rows(svc.window("C,H")))
        # … while a pinned read still answers over the retired one
        assert rows(svc.window("C,H,R", version=0)) == old_chr
        pinned = svc.query("project(C R, [C H R])", version=0)
        assert rows(pinned) == [("c1", "r1"), ("c2", "r2")]

    def test_query_caches_are_epoch_keyed(self):
        svc = base_service()
        q = "project(C T, [C T])"
        svc.query(q)
        first = svc.explain(q)
        assert first.plan_cache_hit and first.result_cache_hit
        svc.evolve(parse_evolution_op("add-attr CT X"))
        after = svc.explain(q)
        assert not after.plan_cache_hit and not after.result_cache_hit
        assert rows(after.result) == [("c1", "t1"), ("c2", "t2")]


class TestServerEvolution:
    def test_evolve_on_live_server_reroutes_and_serves(self):
        svc = base_service()
        with WeakInstanceServer(svc, workers=2) as server:
            server.insert("CT", ("c3", "t3"))

            def during(service):
                service.insert("CHR", ("c3", "h3", "r3"))

            result = server.evolve(
                parse_evolution_op("split CHR -> CH(C,H) + CR(C,R)"),
                during=during,
            )
            assert result.epoch_to == server.schema_version == 1
            assert server.insert("CH", ("c4", "h4")).accepted
            assert rows(server.window("C,H")) == [
                ("c1", "h1"), ("c2", "h2"), ("c3", "h3"), ("c4", "h4"),
            ]
            with pytest.raises(SchemaError):
                server.insert("CHR", ("c5", "h5", "r5"))
            health = server.health()
            assert health["epoch"] == 1
            assert set(health["shards"]) == {"CT", "CS", "CH", "CR"}

    def test_evolve_with_concurrent_writers(self):
        schema, fds = disjoint_star_schema(4)
        svc = ShardedWeakInstanceService(schema, fds)
        svc.load(random_satisfying_state(schema, fds, 20, seed=3))
        stop = threading.Event()
        accepted = []

        def writer():
            i = 0
            while not stop.is_set():
                out = server.insert("R1", (f"k{i}", f"a{i}", f"b{i}"))
                if out.accepted:
                    accepted.append((f"k{i}", f"a{i}", f"b{i}"))
                i += 1

        with WeakInstanceServer(svc, workers=2) as server:
            thread = threading.Thread(target=writer)
            thread.start()
            try:
                result = server.evolve(parse_evolution_op("add-attr R2 X"))
            finally:
                stop.set()
                thread.join()
            assert result.epoch_to == 1
            # t.values is in canonical (sorted) attribute order, so
            # key the comparison by attribute name instead
            r1 = {
                tuple(t.value(a) for a in ("K1", "A1a", "A1b"))
                for t in server.state()["R1"]
            }
            assert set(accepted) <= r1
