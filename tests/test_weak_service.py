"""The live weak-instance query service against the from-scratch oracle.

:class:`~repro.weak.service.WeakInstanceService` must be observably
identical to re-deriving every answer from scratch with
:func:`repro.weak.representative.window` on the current state — after
any interleaving of inserts (valid, invalid, duplicate), deletes, and
queries, with both validation methods.  The randomized stream suite
mirrors the oracle pattern of ``tests/test_chase_indexed.py``.
"""

import pytest

from repro.chase.engine import IncrementalFDChaser, chase_fds
from repro.chase.tableau import ChaseTableau
from repro.data.states import DatabaseState
from repro.exceptions import InconsistentStateError
from repro.schema.database import DatabaseSchema
from repro.weak import representative as representative_module
from repro.weak.representative import derivable, representative_instance, window
from repro.weak.service import LiveTableau, WeakInstanceService
from repro.workloads.schemas import chain_schema, star_schema
from repro.workloads.states import (
    delete_heavy_stream_workload,
    mixed_stream_workload,
    random_satisfying_state,
)


def scratch_window(state, fds, attrset):
    """The rebuild-per-query oracle."""
    return window(state, fds, attrset)


class TestIncrementalFDChaser:
    def test_first_run_equals_chase_fds(self):
        schema, F = chain_schema(4)
        state = random_satisfying_state(schema, F, 20, seed=1)
        tab_a = ChaseTableau.from_state(state)
        a = IncrementalFDChaser(tab_a, F).run()
        tab_b = ChaseTableau.from_state(state)
        b = chase_fds(tab_b, F)
        assert a.consistent and b.consistent
        assert a.fd_merges == b.fd_merges
        assert tab_a.resolved_rows() == tab_b.resolved_rows()

    def test_appended_row_chases_incrementally(self):
        from repro.chase.tableau import RowOrigin
        from repro.deps.fdset import FDSet

        schema = DatabaseSchema.parse("CT(C,T); CHR(C,H,R)")
        state = DatabaseState(
            schema,
            {"CT": [("CS101", "Smith")], "CHR": [("CS101", "Mon", "313")]},
        )
        tab = ChaseTableau.from_state(state)
        chaser = IncrementalFDChaser(tab, FDSet.parse("C -> T"))
        assert chaser.run().consistent
        # append one row and re-run: the padded T-variable must be
        # grounded through the dirty worklist alone
        scheme = schema["CHR"]
        t = state["CHR"].coerce_tuple(("CS101", "Tue", "327"))
        tab.add_padded(scheme.attributes, t, RowOrigin("state", "CHR"))
        assert chaser.run().consistent
        facts = tab.total_projection("T H R")
        values = {tuple(x.value(a) for a in facts.attributes) for x in facts}
        # natural order of T H R is H, R, T
        assert ("Tue", "327", "Smith") in values
        tab.check_index_invariants()

    @pytest.mark.parametrize("seed", range(5))
    def test_incremental_equals_from_scratch_after_appends(self, seed):
        """Split a satisfying state into a base and a stream of appended
        tuples: every intermediate state is a subset of the full one,
        hence satisfying, and after the last append the incremental
        tableau must answer exactly like a from-scratch chase."""
        from repro.chase.tableau import RowOrigin

        schema, F = chain_schema(5)
        full = random_satisfying_state(schema, F, 20, seed=seed, domain_size=60)
        base_tuples = {s.name: list(full[s.name].tuples[::2]) for s in schema}
        appends = [
            (s.name, t) for s in schema for t in full[s.name].tuples[1::2]
        ]
        tab = ChaseTableau.from_state(DatabaseState(schema, base_tuples))
        chaser = IncrementalFDChaser(tab, F)
        assert chaser.run().consistent
        for name, t in appends:
            tab.add_padded(schema[name].attributes, t, RowOrigin("state", name))
            assert chaser.run().consistent
        fresh = ChaseTableau.from_state(full)
        assert chase_fds(fresh, F).consistent
        for scheme in schema:
            assert tab.total_projection(schema.universe) == fresh.total_projection(
                schema.universe
            )
            assert tab.total_projection(scheme.attributes) == fresh.total_projection(
                scheme.attributes
            )
        tab.check_index_invariants()

    def test_poisoned_tableau_refuses_reuse(self):
        from repro.deps.fdset import FDSet

        schema = DatabaseSchema.parse("CT(C,T)")
        state = DatabaseState(schema, {"CT": [("c", "x"), ("c", "y")]})
        tab = ChaseTableau.from_state(state)
        chaser = IncrementalFDChaser(tab, FDSet.parse("C -> T"))
        assert not chaser.run().consistent
        assert chaser.poisoned
        with pytest.raises(InconsistentStateError):
            chaser.run()


class TestServiceBasics:
    def test_one_shot_equivalence(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        assert service.window("C T") == scratch_window(intro.state, intro.fds, "C T")
        assert service.derivable({"T": "Smith", "H": "Mon-10", "R": "313"}) == derivable(
            intro.state, intro.fds, {"T": "Smith", "H": "Mon-10", "R": "313"}
        )

    def test_load_rejects_bad_state(self, ex1):
        service = WeakInstanceService(ex1.schema, ex1.fds, method="chase")
        with pytest.raises(InconsistentStateError):
            service.load(ex1.state)
        assert service.total_tuples() == 0

    def test_insert_then_window_sees_new_fact(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        before = service.window("T H R")
        assert service.insert("CHR", ("CS101", "Tue-9", "327")).accepted
        after = service.window("T H R")
        assert len(after) == len(before) + 1
        assert service.derivable({"T": "Smith", "H": "Tue-9", "R": "327"})

    def test_incremental_insert_does_not_rebuild(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        service.window("T H R")
        rebuilds = service.stats.rebuilds
        for i in range(5):
            assert service.insert("CHR", ("CS101", f"H{i}", f"R{i}")).accepted
            service.window("T H R")
        assert service.stats.rebuilds == rebuilds
        assert service.stats.incremental_chases >= 5

    def test_rejected_insert_leaves_answers_unchanged(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        before = service.window("C T")
        outcome = service.insert("CT", ("CS101", "Jones"))
        assert not outcome.accepted
        assert service.window("C T") == before
        assert service.total_tuples() == intro.state.total_tuples()

    def test_delete_retracts_derived_fact(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        assert service.derivable({"T": "Smith", "R": "313"})
        assert service.delete("CT", ("CS101", "Smith"))
        assert not service.derivable({"T": "Smith", "R": "313"})
        # and the oracle agrees
        assert service.window("T H R") == scratch_window(
            service.state(), intro.fds, "T H R"
        )

    def test_duplicate_insert_is_noop(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        tab = service.representative()
        rows_before = len(tab)
        outcome = service.insert("CT", ("CS101", "Smith"))
        assert outcome.accepted and "duplicate" in outcome.reason
        assert len(service.representative()) == rows_before
        assert service.total_tuples() == intro.state.total_tuples()

    def test_window_cache_hits(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        a = service.window("T H R")
        b = service.window("T H R")
        assert a is b
        assert service.stats.window_cache_hits == 1
        # an update invalidates exactly the stale entries
        service.insert("CHR", ("CS101", "Wed-11", "100"))
        c = service.window("T H R")
        assert c is not b and len(c) == len(b) + 1

    def test_incremental_load_validates_combination(self, intro):
        """Loading onto a non-empty chase service must chase the
        combined state: an increment that is fine alone but conflicts
        with stored tuples raises and changes nothing."""
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        before = service.window("C T")
        bad = DatabaseState(intro.schema, {"CT": [("CS101", "Jones")]})
        with pytest.raises(InconsistentStateError):
            service.load(bad)
        assert service.total_tuples() == intro.state.total_tuples()
        assert service.window("C T") == before

    def test_load_batching_is_irrelevant(self, intro):
        """One-shot load and split loads of the same tuples must accept
        identically and serve identical windows."""
        half_a = DatabaseState(intro.schema, {"CT": intro.state["CT"].tuples})
        half_b = DatabaseState(intro.schema, {"CHR": intro.state["CHR"].tuples})
        split = WeakInstanceService(intro.schema, intro.fds, method="chase")
        split.load(half_a)
        split.load(half_b)
        whole = WeakInstanceService.from_state(intro.state, intro.fds)
        assert split.state() == whole.state()
        for attrs in ("C T", "T H R", "C S"):
            assert split.window(attrs) == whole.window(attrs)

    def test_local_method_on_independent_schema(self, ex2):
        service = WeakInstanceService(ex2.schema, ex2.fds, method="local")
        assert service.insert("CT", ("CS101", "Smith")).accepted
        assert service.insert("CHR", ("CS101", "Mon10", "313")).accepted
        assert not service.insert("CT", ("CS101", "Jones")).accepted
        assert service.derivable({"T": "Smith", "R": "313"})
        assert service.window("T H R") == scratch_window(
            service.state(), ex2.fds, "T H R"
        )

    def test_batch_apis(self, ex2):
        service = WeakInstanceService(ex2.schema, ex2.fds, method="local")
        outcomes = service.insert_many(
            [
                ("CT", ("CS101", "Smith")),
                ("CHR", ("CS101", "Mon10", "313")),
                ("CT", ("CS101", "Jones")),  # violates C -> T
                ("CT", ("CS101", "Smith")),  # duplicate
            ]
        )
        assert [o.accepted for o in outcomes] == [True, True, False, True]
        windows = service.window_many(["C T", "T H R"])
        assert windows[0] == scratch_window(service.state(), ex2.fds, "C T")
        assert windows[1] == scratch_window(service.state(), ex2.fds, "T H R")
        assert service.derivable_many(
            [{"T": "Smith", "R": "313"}, {"T": "Jones", "R": "313"}]
        ) == [True, False]

    def test_representative_matches_one_shot(self, intro):
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        live = service.representative()
        scratch = representative_instance(intro.state, intro.fds)
        assert live.resolved_rows() == scratch.resolved_rows()


class TestOneShotHelpers:
    """The one-shot helpers chase ``I(p)`` once with the merge log off
    (the tableau never serves a retraction) and answer exactly like the
    live service."""

    @pytest.fixture
    def chased(self, monkeypatch):
        """Every tableau the helpers chase, in call order."""
        tableaux = []
        real = representative_module.chase_state

        def spy(state, fds, *args, **kwargs):
            result = real(state, fds, *args, **kwargs)
            tableaux.append(result.tableau)
            return result

        monkeypatch.setattr(representative_module, "chase_state", spy)
        return tableaux

    @pytest.mark.parametrize("make_schema", [chain_schema, star_schema])
    # the small states take the row-at-a-time chase, the large ones
    # (over 128 rows) the bulk kernel
    @pytest.mark.parametrize("n_base,domain", [(15, 40), (60, 400)])
    @pytest.mark.parametrize("seed", range(3))
    def test_helpers_keep_merge_log_off_and_match_service(
        self, chased, make_schema, n_base, domain, seed
    ):
        schema, F = make_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=n_base, n_inserts=0, n_deletes=0,
            n_queries=10, seed=seed, domain_size=domain,
        )
        service = WeakInstanceService.from_state(base, F)
        tab = representative_instance(base, F)
        assert tab.resolved_rows() == service.representative().resolved_rows()
        targets = [op.attributes for op in ops] + [schema.universe]
        for target in targets:
            want = service.window(target)
            assert window(base, F, target) == want
            for t in list(want)[:3]:
                assert derivable(base, F, t.as_dict())
        assert len(chased) == 1 + len(targets) + sum(
            min(3, len(service.window(target))) for target in targets
        )
        assert not any(t.merge_log_enabled for t in chased)


def _apply_stream(service, base, ops, fds, collect):
    """Drive one stream through the service, checking every query (and
    every insert verdict) against the from-scratch oracle."""
    service.load(base)
    for op in ops:
        if op.kind == "insert":
            before = service.state()
            outcome = service.insert(op.scheme, op.values)
            if outcome.accepted:
                collect["accepted"] += 1
            else:
                collect["rejected"] += 1
                assert service.state() == before, "rejected insert mutated state"
        elif op.kind == "delete":
            service.delete(op.scheme, op.values)
            collect["deleted"] += 1
        else:
            got = service.window(op.attributes)
            want = scratch_window(service.state(), fds, op.attributes)
            assert got == want, (
                f"window({op.attributes}) diverged from the from-scratch oracle"
            )
            collect["queried"] += 1


class TestRandomizedStreams:
    """The headline oracle suite: mixed insert/delete/query streams."""

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_stream_local(self, seed):
        schema, F = chain_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=25, n_inserts=25, n_deletes=6, n_queries=25,
            seed=seed, domain_size=40,
        )
        service = WeakInstanceService(schema, F, method="local")
        collect = {"accepted": 0, "rejected": 0, "deleted": 0, "queried": 0}
        _apply_stream(service, base, ops, F, collect)
        assert collect["queried"] == 25
        service.representative().check_index_invariants()

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_stream_chase(self, seed):
        schema, F = chain_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=25, n_inserts=25, n_deletes=6, n_queries=25,
            seed=seed + 100, domain_size=40,
        )
        service = WeakInstanceService(schema, F, method="chase")
        collect = {"accepted": 0, "rejected": 0, "deleted": 0, "queried": 0}
        _apply_stream(service, base, ops, F, collect)
        assert collect["queried"] == 25
        service.representative().check_index_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_star_stream_local(self, seed):
        schema, F = star_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=20, n_inserts=20, n_deletes=5, n_queries=20,
            seed=seed, domain_size=30,
        )
        service = WeakInstanceService(schema, F, method="local")
        collect = {"accepted": 0, "rejected": 0, "deleted": 0, "queried": 0}
        _apply_stream(service, base, ops, F, collect)
        assert collect["queried"] == 20

    def test_methods_agree_on_one_stream(self):
        """Local and chase validation must accept/reject identically on
        an independent schema (Theorem 3), and serve equal windows."""
        schema, F = chain_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=20, n_inserts=30, n_deletes=5, n_queries=15,
            seed=77, domain_size=30,
        )
        local = WeakInstanceService(schema, F, method="local")
        chase = WeakInstanceService(schema, F, method="chase")
        local.load(base)
        chase.load(base)
        for op in ops:
            if op.kind == "insert":
                a = local.insert(op.scheme, op.values)
                b = chase.insert(op.scheme, op.values)
                assert a.accepted == b.accepted, op
            elif op.kind == "delete":
                assert local.delete(op.scheme, op.values) == chase.delete(
                    op.scheme, op.values
                )
            else:
                assert local.window(op.attributes) == chase.window(op.attributes)
        assert local.state() == chase.state()

    def test_exercises_both_insert_paths(self):
        """Sanity: the streams above genuinely hit accepts and rejects."""
        schema, F = chain_schema(4)
        base, ops = mixed_stream_workload(
            schema, F, n_base=25, n_inserts=40, n_deletes=0, n_queries=5,
            seed=5, domain_size=15, invalid_ratio=0.4,
        )
        service = WeakInstanceService(schema, F, method="local")
        collect = {"accepted": 0, "rejected": 0, "deleted": 0, "queried": 0}
        _apply_stream(service, base, ops, F, collect)
        assert collect["accepted"] > 0 and collect["rejected"] > 0


def _assert_equiv_after_delete(service, fds, attrsets):
    """Observational equivalence against the from-scratch oracle:
    windows, derivability of every oracle fact, and the total
    projection over the universe."""
    state = service.state()
    universe = service.schema.universe
    got_universe = service.window(universe)
    want_universe = scratch_window(state, fds, universe)
    assert got_universe == want_universe, "total projection diverged after delete"
    for attrs in attrsets:
        got = service.window(attrs)
        want = scratch_window(state, fds, attrs)
        assert got == want, f"window({attrs}) diverged after delete"
        for t in want:
            fact = {a: t.value(a) for a in want.attributes}
            assert service.derivable(fact), f"oracle fact {fact} not derivable"


class TestScopedDeletes:
    """Delete-heavy streams: the scoped-rechase tableau must stay
    observationally equivalent to a from-scratch chase after every
    delete — and must genuinely not rebuild."""

    @pytest.mark.parametrize("seed", range(6))
    def test_chain_delete_stream_matches_scratch(self, seed):
        schema, F = chain_schema(4)
        base, ops = delete_heavy_stream_workload(
            schema, F, n_base=20, n_deletes=12, n_queries=12,
            seed=seed, domain_size=200,
        )
        service = WeakInstanceService(schema, F, method="local")
        service.load(base)
        probes = [schema.universe.names[:3], schema.schemes[0].attributes.names]
        for op in ops:
            if op.kind == "delete":
                assert service.delete(op.scheme, op.values)
                _assert_equiv_after_delete(service, F, probes)
            elif op.kind == "query":
                got = service.window(op.attributes)
                assert got == scratch_window(service.state(), F, op.attributes)
        service.representative().check_index_invariants()
        assert service.stats.scoped_rechases > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_star_delete_stream_matches_scratch_chase_method(self, seed):
        schema, F = star_schema(4)
        base, ops = delete_heavy_stream_workload(
            schema, F, n_base=15, n_deletes=10, n_queries=10,
            seed=seed + 50, domain_size=150,
        )
        service = WeakInstanceService(schema, F, method="chase")
        service.load(base)
        probes = [schema.universe.names[:2]]
        for op in ops:
            if op.kind == "delete":
                assert service.delete(op.scheme, op.values)
                _assert_equiv_after_delete(service, F, probes)
            elif op.kind == "query":
                assert service.window(op.attributes) == scratch_window(
                    service.state(), F, op.attributes
                )
        service.representative().check_index_invariants()

    def test_scoped_delete_does_not_rebuild(self):
        schema, F = chain_schema(5)
        base = random_satisfying_state(schema, F, 30, seed=9, domain_size=2000)
        service = WeakInstanceService.from_state(base, F)
        service.window(schema.universe)
        rebuilds_before = service.stats.rebuilds
        deleted = 0
        for scheme, relation in base:
            for t in list(relation)[:2]:
                if service.delete(scheme.name, t):
                    deleted += 1
                service.window(schema.universe)
        assert deleted > 0
        assert service.stats.rebuilds == rebuilds_before, (
            "scoped deletes must not trigger rebuilds"
        )
        assert service.stats.scoped_rechases == deleted
        assert service.stats.delete_fallbacks == 0
        assert service.stats.affected_rows_max >= 0

    def test_adversarial_fraction_forces_fallback(self, monkeypatch):
        """A rebuild fraction of 0 makes any delete with a non-empty
        footprint fall back — the quadratic-delete guard."""
        monkeypatch.setattr(LiveTableau, "DELETE_REBUILD_FRACTION", 0.0)
        schema, F = chain_schema(4)
        base = random_satisfying_state(schema, F, 15, seed=4, domain_size=500)
        service = WeakInstanceService.from_state(base, F)
        service.window(schema.universe)
        fell_back = 0
        for scheme, relation in base:
            for t in list(relation)[:1]:
                service.delete(scheme.name, t)
                if not service.live:
                    fell_back += 1
                service.window(schema.universe)
        assert fell_back > 0
        assert service.stats.delete_fallbacks == fell_back
        # and answers are still right (oracle)
        assert service.window("A1 A2") == scratch_window(
            service.state(), F, "A1 A2"
        )

    def test_long_delete_stream_compacts_dead_slots(self):
        """Regression: retracted slots must not accrete without bound —
        once they outgrow the live rows the service trades one rebuild
        for a compact tableau (answers stay oracle-identical)."""
        schema, F = chain_schema(3)
        base = random_satisfying_state(schema, F, 8, seed=13, domain_size=400)
        service = WeakInstanceService.from_state(base, F)
        scheme = schema.schemes[1]
        t = next(iter(base[scheme.name]))
        for _ in range(150):
            assert service.delete(scheme.name, t)
            assert service.insert(scheme.name, t).accepted
        assert service.stats.compaction_rebuilds > 0
        tab = service.representative()
        assert len(tab) <= tab.live_row_count() + 65 + 1
        assert service.window(schema.universe) == scratch_window(
            service.state(), F, schema.universe
        )

    def test_delete_on_stale_tableau_defers_to_rebuild(self):
        schema, F = chain_schema(3)
        base = random_satisfying_state(schema, F, 10, seed=6, domain_size=100)
        service = WeakInstanceService(schema, F, method="local")
        service.load(base)  # local load defers the chase: tableau stale
        t = next(iter(base[schema.schemes[0].name]))
        assert service.delete(schema.schemes[0].name, t)
        assert service.stats.scoped_rechases == 0
        assert service.window("A1 A2") == scratch_window(
            service.state(), F, "A1 A2"
        )


class TestWindowCacheLifecycle:
    def test_superseded_versions_are_pruned(self, intro):
        """A long insert+query stream must not accumulate dead cache
        entries: the cache only ever holds current-version windows."""
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        targets = ["C T", "T H R", "C S", "C H R"]
        for i in range(6):
            for a in targets:
                service.window(a)
            service.insert("CHR", ("CS101", f"H{i}", f"R{i}"))
        for a in targets[:2]:
            service.window(a)
        # dead versions pruned: at most one version's worth of entries
        assert len(service._live._window_cache) <= len(targets)

    def test_lru_bound_evicts_oldest(self, intro, monkeypatch):
        monkeypatch.setattr(LiveTableau, "WINDOW_CACHE_LIMIT", 2)
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        service.window("C T")
        service.window("C S")
        service.window("T H R")  # evicts "C T"
        assert service.stats.window_cache_evictions == 1
        assert len(service._live._window_cache) == 2
        service.window("C T")  # recompute, evicting again
        assert service.stats.window_cache_evictions == 2

    def test_scoped_delete_retains_unaffected_windows(self):
        """A delete whose footprint is disjoint from a cached window
        keeps the entry alive (selective invalidation), and retained
        answers still match the oracle."""
        schema, F = chain_schema(4)
        tuples = {
            f"R{i}": [(100 + i, 100 + i + 1), (200 + i, 200 + i + 1)]
            for i in range(1, 5)
        }
        base = DatabaseState(schema, tuples)
        service = WeakInstanceService.from_state(base, F)
        warm = service.window("A1 A2")
        dropped = service.window("A4 A5")
        hits_before = service.stats.window_cache_hits
        # deleting R4's 200-chain tuple only retracts A5 groundings
        # (the chain FDs point forward), and the row was never total on
        # A1 A2 — that window must survive; A4 A5 must not
        assert service.delete("R4", (204, 205))
        assert service.stats.scoped_rechases == 1
        assert service.stats.windows_retained >= 1
        again = service.window("A1 A2")
        assert service.stats.window_cache_hits == hits_before + 1
        assert again is warm
        assert again == scratch_window(service.state(), F, "A1 A2")
        refreshed = service.window("A4 A5")
        assert refreshed is not dropped
        assert refreshed == scratch_window(service.state(), F, "A4 A5")

    def test_empty_attrset_window_survives_scoped_delete(self):
        """Regression: a cached empty-attrset window must not crash the
        next scoped delete (it is {()} exactly while a row exists)."""
        schema, F = chain_schema(3)
        base = random_satisfying_state(schema, F, 8, seed=11, domain_size=300)
        service = WeakInstanceService.from_state(base, F)
        empty = service.window(())
        assert len(empty) == 1  # the empty projection of a non-empty state
        scheme = schema.schemes[0]
        t = next(iter(base[scheme.name]))
        assert service.delete(scheme.name, t)  # must not raise
        assert service.window(()) == scratch_window(service.state(), F, ())

    def test_scoped_delete_drops_windows_the_row_answered(self):
        schema, F = chain_schema(3)
        tuples = {f"R{i}": [(10 + i, 10 + i + 1)] for i in range(1, 4)}
        base = DatabaseState(schema, tuples)
        service = WeakInstanceService.from_state(base, F)
        before = service.window("A1 A2")
        assert len(before) == 1
        assert service.delete("R1", (11, 12))
        after = service.window("A1 A2")
        assert len(after) == 0
        assert after == scratch_window(service.state(), F, "A1 A2")


class TestEnsureLiveContract:
    def test_poisoned_checker_state_raises(self, intro):
        """The `_ensure_live` InconsistentStateError branch: a checker
        stub that hands back a violating state must surface the
        contradiction instead of serving wrong windows."""
        service = WeakInstanceService.from_state(intro.state, intro.fds)
        bad_state = DatabaseState(
            intro.schema,
            {"CT": [("CS101", "Smith"), ("CS101", "Jones")]},
        )

        class BadChecker:
            """Stub exposing just what _ensure_live consumes."""

            def state(self):
                return bad_state

        service.checker = BadChecker()
        service._live.invalidate()  # force the rebuild path
        with pytest.raises(InconsistentStateError) as exc:
            service.window("C T")
        assert "stopped satisfying" in str(exc.value)


class TestVersionStampsAcrossRebuilds:
    """A rebuild constructs a fresh ``ChaseTableau`` whose counters
    restart; the carried version base must keep the stamps monotone so
    no version-keyed cache can ever mistake a post-rebuild tableau for
    the one it replaced."""

    def _service(self):
        schema, F = chain_schema(4)
        state = random_satisfying_state(schema, F, 25, seed=7)
        return WeakInstanceService.from_state(state, F), schema, F

    def test_rebuild_version_strictly_increases(self):
        service, schema, _ = self._service()
        tab1 = service.representative()
        v1 = tab1.version
        service._live.invalidate()  # next query rebuilds
        tab2 = service.representative()
        assert tab2 is not tab1
        assert tab2.version > v1, (
            "a rebuilt tableau must never reuse or precede a stamp the "
            "superseded tableau handed out"
        )
        # and across a second rebuild, still monotone
        v2 = tab2.version
        service._live.invalidate()
        assert service.representative().version > v2

    def test_rebuilt_tableau_birth_stamp_clears_the_old_one(self):
        """Even at birth (before any merge) the successor's stamp is
        strictly greater — the coincidence window the base closes is a
        fresh tableau reproducing ``(rows, merges)`` of the stamp a
        cache recorded pre-rebuild."""
        service, schema, F = self._service()
        live = service._live
        tab1 = service.representative()
        v1 = tab1.version
        live.invalidate()
        tab2, _ = live.tableau_from(service.checker.state())
        assert tab2.version > v1

    def test_post_rebuild_cache_never_serves_stale_entry(self):
        """End to end: cache a window, rebuild behind the service's
        back with *different* facts (same shape, so the raw counters
        collide), and ask again — the answer must be the new state's."""
        schema, F = chain_schema(3)
        state_a = random_satisfying_state(schema, F, 20, seed=11)
        service = WeakInstanceService.from_state(state_a, F)
        target = schema.schemes[0].attributes.names
        before = service.window(target)
        assert service._live._window_cache  # the entry is cached
        # swap the backing state wholesale (same tuple count, different
        # values), then invalidate: the rebuild produces a tableau of
        # identical shape whose raw counters would collide with v1
        state_b = random_satisfying_state(schema, F, 20, seed=12)
        from repro.core.maintenance import MaintenanceChecker

        checker = MaintenanceChecker(schema, F, method="chase")
        checker.load(state_b, assume_valid=True)
        service.checker = checker
        service._live.invalidate()
        after = service.window(target)
        assert after == scratch_window(state_b, F, target)
        if frozenset(before.tuples) != frozenset(after.tuples):
            assert before != after
