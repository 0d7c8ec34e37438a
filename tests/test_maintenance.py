"""The maintenance checker: local fast path vs. chase fallback."""

import pytest

from repro.chase.satisfaction import is_globally_satisfying
from repro.core.maintenance import MaintenanceChecker
from repro.data.states import DatabaseState
from repro.data.tuples import Tuple
from repro.exceptions import InconsistentStateError, NotIndependentError
from repro.workloads.schemas import chain_schema
from repro.workloads.states import insert_workload, random_satisfying_state


class TestLocalMethod:
    def test_requires_independence(self, ex1):
        with pytest.raises(NotIndependentError):
            MaintenanceChecker(ex1.schema, ex1.fds, method="local")

    def test_accepts_valid_inserts(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        assert checker.insert("CT", ("CS101", "Smith")).accepted
        assert checker.insert("CT", ("CS102", "Jones")).accepted
        assert checker.insert("CHR", ("CS101", "Mon10", "313")).accepted

    def test_rejects_fd_violation(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CT", ("CS101", "Smith"))
        outcome = checker.insert("CT", ("CS101", "Jones"))
        assert not outcome.accepted
        assert outcome.violated_fd is not None
        assert outcome.method == "local"

    def test_rejected_insert_leaves_state_unchanged(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CT", ("CS101", "Smith"))
        checker.insert("CT", ("CS101", "Jones"))
        assert checker.total_tuples() == 1

    def test_duplicate_tuple_is_fine(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        assert checker.insert("CT", ("CS101", "Smith")).accepted
        assert checker.insert("CT", ("CS101", "Smith")).accepted

    def test_derived_fd_is_enforced(self, ex2):
        # CH -> R comes from the embedded cover, not verbatim user FDs
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CHR", ("CS101", "Mon10", "313"))
        outcome = checker.insert("CHR", ("CS101", "Mon10", "327"))
        assert not outcome.accepted

    def test_delete_then_reinsert(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CT", ("CS101", "Smith"))
        assert checker.delete("CT", ("CS101", "Smith"))
        assert checker.insert("CT", ("CS101", "Jones")).accepted

    def test_delete_missing_returns_false(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        assert not checker.delete("CT", ("CS101", "Smith"))

    def test_check_insert_does_not_modify(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.check_insert("CT", ("CS101", "Smith"))
        assert checker.total_tuples() == 0


class TestSetSemantics:
    """Inserts are idempotent: ``total_tuples()`` must always agree
    with the set-semantics ``state()`` snapshot (regression: duplicate
    inserts used to append to the tuple list and bump the FD-index
    multiplicities, so the counts diverged)."""

    def test_duplicate_insert_is_noop(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        assert checker.insert("CT", ("CS101", "Smith")).accepted
        dup = checker.insert("CT", ("CS101", "Smith"))
        assert dup.accepted and "duplicate" in dup.reason
        assert checker.total_tuples() == 1
        assert checker.total_tuples() == checker.state().total_tuples()

    def test_insert_dup_then_delete_removes_the_tuple(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CT", ("CS101", "Smith"))
        checker.insert("CT", ("CS101", "Smith"))
        assert checker.delete("CT", ("CS101", "Smith"))
        assert checker.total_tuples() == 0
        assert not checker.contains("CT", ("CS101", "Smith"))
        # the FD index must not retain a ghost multiplicity: a
        # conflicting teacher for CS101 is now acceptable
        assert checker.insert("CT", ("CS101", "Jones")).accepted

    def test_counts_agree_under_chase_method(self, ex1):
        checker = MaintenanceChecker(ex1.schema, ex1.fds, method="chase")
        assert checker.insert("CD", ("CS402", "CS")).accepted
        dup = checker.insert("CD", ("CS402", "CS"))
        assert dup.accepted and "duplicate" in dup.reason
        assert checker.total_tuples() == 1 == checker.state().total_tuples()

    def test_contains(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        assert not checker.contains("CT", ("CS101", "Smith"))
        checker.insert("CT", ("CS101", "Smith"))
        assert checker.contains("CT", ("CS101", "Smith"))

    def test_delete_compares_a_bounded_number_of_tuples(self, monkeypatch):
        """Deleting the newest row of a 10k-row relation is a hash
        lookup, not a scan of the rows before it."""
        schema, fds = chain_schema(1)
        checker = MaintenanceChecker(schema, fds, method="local")
        for i in range(10_000):
            assert checker.insert("R1", (i, i)).accepted
        calls = []
        real_eq = Tuple.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return real_eq(self, other)

        monkeypatch.setattr(Tuple, "__eq__", counting_eq)
        assert checker.delete("R1", (9_999, 9_999))
        assert len(calls) <= 4
        assert checker.total_tuples() == 9_999

    def test_rows_keep_insertion_order_across_delete_and_reinsert(self):
        schema, fds = chain_schema(1)
        checker = MaintenanceChecker(schema, fds, method="local")
        for i in (3, 1, 2):
            checker.insert("R1", (i, i))
        assert checker.delete("R1", (1, 1))
        checker.insert("R1", (1, 1))
        assert [t.values for t in checker.rows("R1")] == [(3, 3), (2, 2), (1, 1)]
        assert list(checker.state()["R1"].tuples) == list(checker.rows("R1"))


class TestAtomicLoad:
    """``load`` validates into staging and commits all-or-nothing
    (regression: the local method used to insert tuple-by-tuple and
    raise mid-way, leaving the checker partially loaded)."""

    def _violating_state(self, ex2):
        from repro.data.states import DatabaseState

        return DatabaseState(
            ex2.schema,
            {"CT": [("CS101", "Smith"), ("CS101", "Jones")]},
        )

    def test_local_load_violating_state_loads_nothing(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        with pytest.raises(InconsistentStateError):
            checker.load(self._violating_state(ex2))
        assert checker.total_tuples() == 0
        # and the indexes were not polluted by the staged half
        assert checker.insert("CT", ("CS101", "Jones")).accepted

    def test_local_load_on_nonempty_checker_is_atomic(self, ex2):
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CHR", ("CS101", "Mon10", "313"))
        with pytest.raises(InconsistentStateError):
            checker.load(self._violating_state(ex2))
        assert checker.total_tuples() == 1
        assert checker.contains("CHR", ("CS101", "Mon10", "313"))

    def test_local_load_conflict_with_existing_tuple(self, ex2):
        from repro.data.states import DatabaseState

        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        checker.insert("CT", ("CS101", "Smith"))
        bad = DatabaseState(ex2.schema, {"CT": [("CS101", "Jones")]})
        with pytest.raises(InconsistentStateError):
            checker.load(bad)
        assert checker.total_tuples() == 1

    def test_successful_load_commits_everything(self, ex2):
        from repro.data.states import DatabaseState

        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        state = DatabaseState(
            ex2.schema,
            {"CT": [("CS101", "Smith")], "CHR": [("CS101", "Mon10", "313")]},
        )
        checker.load(state)
        assert checker.total_tuples() == 2
        # loading the same state again is a no-op (set semantics)
        checker.load(state)
        assert checker.total_tuples() == 2

    def test_chase_load_validates_combined_state(self, ex1):
        """Loading on a non-empty chase checker must validate the
        combination, not the increment alone."""
        from repro.data.states import DatabaseState

        checker = MaintenanceChecker(ex1.schema, ex1.fds, method="chase")
        checker.insert("CD", ("CS402", "CS"))
        checker.insert("CT", ("CS402", "Jones"))
        # this state is satisfying on its own but poisons the combination
        bad = DatabaseState(ex1.schema, {"TD": [("Jones", "EE")]})
        with pytest.raises(InconsistentStateError):
            checker.load(bad)
        assert checker.total_tuples() == 2


class TestChaseMethod:
    def test_chase_method_on_non_independent_schema(self, ex1):
        checker = MaintenanceChecker(ex1.schema, ex1.fds, method="chase")
        assert checker.insert("CD", ("CS402", "CS")).accepted
        assert checker.insert("CT", ("CS402", "Jones")).accepted
        # the Example-1 poison tuple: each relation stays locally fine,
        # but globally the state becomes unsatisfying — chase sees it.
        outcome = checker.insert("TD", ("Jones", "EE"))
        assert not outcome.accepted
        assert outcome.method == "chase"

    def test_local_method_would_miss_it(self, ex1, ex2):
        # the very same sequence on the (independent) ex2 schema shows
        # local checks suffice there; on ex1 only the chase catches the
        # cross-relation contradiction, which is the whole point.
        chase_checker = MaintenanceChecker(ex1.schema, ex1.fds, method="chase")
        for scheme, row in [("CD", ("CS402", "CS")), ("CT", ("CS402", "Jones"))]:
            chase_checker.insert(scheme, row)
        state = chase_checker.state().with_tuple("TD", ("Jones", "EE"))
        # every relation of the poisoned state is locally satisfying
        from repro.chase.satisfaction import is_locally_satisfying

        assert is_locally_satisfying(state, ex1.fds)
        assert not is_globally_satisfying(state, ex1.fds)

    def test_load_rejects_bad_state(self, ex1):
        checker = MaintenanceChecker(ex1.schema, ex1.fds, method="chase")
        with pytest.raises(InconsistentStateError):
            checker.load(ex1.state)


class TestAgainstChaseOracle:
    def test_local_decisions_match_global_semantics(self, ex2):
        """Every local accept/reject must agree with the chase on the
        full state — Theorem 3 in action."""
        checker = MaintenanceChecker(ex2.schema, ex2.fds, method="local")
        ops = insert_workload(ex2.schema, ex2.fds, n_ops=60, seed=7)
        for op in ops:
            before = checker.state()
            outcome = checker.check_insert(op.scheme, op.values)
            candidate = before.with_tuple(op.scheme, op.values)
            truth = is_globally_satisfying(candidate, ex2.fds)
            assert outcome.accepted == truth, op
            if outcome.accepted:
                checker.insert(op.scheme, op.values)

    def test_workload_on_chain(self):
        schema, F = chain_schema(4)
        checker = MaintenanceChecker(schema, F, method="local")
        base = random_satisfying_state(schema, F, 30, seed=3)
        checker.load(base)
        ops = insert_workload(schema, F, n_ops=40, seed=11)
        accepted = rejected = 0
        for op in ops:
            before = checker.state()
            outcome = checker.insert(op.scheme, op.values)
            truth = is_globally_satisfying(
                before.with_tuple(op.scheme, op.values), F
            )
            assert outcome.accepted == truth
            accepted += outcome.accepted
            rejected += not outcome.accepted
        assert accepted > 0  # the workload exercises both paths


class TestFDIndexAccounting:
    """Property tests of the per-FD hash index: add/remove/conflicts
    round-trips against a reference multiset, and the strict
    debug-flag contract (a remove of a never-inserted tuple is an
    accounting bug, not a no-op)."""

    @staticmethod
    def _index_and_scheme():
        from repro.core.maintenance import _FDIndex
        from repro.deps.fd import FD
        from repro.schema.relation import RelationScheme

        def make(values):
            return Tuple(("A", "B", "C"), values)

        return _FDIndex(FD(("A",), ("B",))), make

    @staticmethod
    def _reference_conflicts(stored, t):
        """Ground truth: any stored tuple with the same lhs key but a
        different rhs value (the pre-shortcut full-scan semantics)."""
        return any(
            s.value("A") == t.value("A") and s.value("B") != t.value("B")
            for s in stored
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_round_trips_match_reference(self, seed):
        import random

        index, make = self._index_and_scheme()
        rng = random.Random(seed)
        stored = []  # reference multiset (list: duplicates count)
        for _ in range(300):
            t = make((rng.randrange(6), rng.randrange(4), rng.randrange(3)))
            roll = rng.random()
            if roll < 0.5:
                # keep the index consistent, like every caller: only
                # conflict-free tuples are added
                if not index.conflicts(t):
                    assert not self._reference_conflicts(stored, t)
                    index.add(t)
                    stored.append(t)
                else:
                    assert self._reference_conflicts(stored, t)
            elif roll < 0.8 and stored:
                victim = stored.pop(rng.randrange(len(stored)))
                index.remove(victim)
            else:
                assert index.conflicts(t) == self._reference_conflicts(
                    stored, t
                ), f"conflicts() diverged on {t}"
        # drain completely: an emptied index conflicts with nothing
        for t in list(stored):
            index.remove(t)
        stored.clear()
        probe = make((0, 1, 2))
        assert not index.conflicts(probe)
        assert not index._map  # no empty-entry residue

    def test_duplicate_multiplicity_survives_one_removal(self):
        index, make = self._index_and_scheme()
        t = make((1, 2, 3))
        index.add(t)
        index.add(t)
        index.remove(t)
        # still present once: a conflicting tuple is still refused
        bad = make((1, 9, 3))
        assert index.conflicts(bad)
        index.remove(t)
        assert not index.conflicts(bad)

    def test_strict_flag_raises_on_phantom_remove(self):
        from repro.core.maintenance import _FDIndex
        from repro.deps.fd import FD
        from repro.exceptions import InstanceError

        index = _FDIndex(FD(("A",), ("B",)), strict=True)
        t = Tuple(("A", "B"), (1, 2))
        with pytest.raises(InstanceError):
            index.remove(t)  # never inserted
        index.add(t)
        index.remove(t)  # fine: accounted
        with pytest.raises(InstanceError):
            index.remove(t)  # double remove
        # same key, different rhs: also never stored
        index.add(t)
        with pytest.raises(InstanceError):
            index.remove(Tuple(("A", "B"), (1, 9)))

    def test_one_entry_per_key_survives_clone_and_strict_drain(self):
        """Each key holds one ``(rhs, count)`` pair; a clone drains
        independently, and strict mode still refuses a remove past
        the count."""
        from repro.core.maintenance import _FDIndex
        from repro.deps.fd import FD
        from repro.exceptions import InstanceError

        index = _FDIndex(FD(("A",), ("B",)), strict=True)
        t = Tuple(("A", "B", "C"), (1, 2, 3))
        u = Tuple(("A", "B", "C"), (1, 2, 4))
        index.add(t)
        index.add(u)
        assert index._map == {(1,): ((2,), 2)}
        clone = index.clone()
        clone.remove(t)
        clone.remove(u)
        assert not clone._map
        assert index._map == {(1,): ((2,), 2)}
        with pytest.raises(InstanceError):
            clone.remove(t)  # the clone never stored it again

    def test_module_flag_sets_the_default(self, monkeypatch):
        import repro.core.maintenance as maintenance
        from repro.core.maintenance import _FDIndex
        from repro.deps.fd import FD
        from repro.exceptions import InstanceError

        monkeypatch.setattr(maintenance, "STRICT_INDEX_ACCOUNTING", True)
        index = _FDIndex(FD(("A",), ("B",)))
        with pytest.raises(InstanceError):
            index.remove(Tuple(("A", "B"), (1, 2)))
        # and clones inherit strictness
        with pytest.raises(InstanceError):
            index.clone().remove(Tuple(("A", "B"), (3, 4)))

    def test_checker_stream_is_strict_clean(self, monkeypatch):
        """The checker's insert/delete discipline never trips strict
        accounting — the flag exists to catch regressions in it."""
        import random

        import repro.core.maintenance as maintenance

        monkeypatch.setattr(maintenance, "STRICT_INDEX_ACCOUNTING", True)
        schema, F = chain_schema(3)
        checker = MaintenanceChecker(schema, F, method="local")
        checker.load(random_satisfying_state(schema, F, 10, seed=2))
        rng = random.Random(0)
        stored = [
            (s.name, t) for s, rel in checker.state() for t in rel
        ]
        for op in insert_workload(schema, F, n_ops=30, seed=4):
            outcome = checker.insert(op.scheme, op.values)
            if outcome.accepted and not outcome.reason:
                stored.append((op.scheme, outcome.tuple))
            if stored and rng.random() < 0.4:
                name, t = stored.pop(rng.randrange(len(stored)))
                assert checker.delete(name, t)
                checker.delete(name, t)  # absent: guarded, still safe
