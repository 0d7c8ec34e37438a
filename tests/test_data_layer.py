"""Values, tuples, relation instances, and database states."""

import pytest

from repro.data.relations import RelationInstance, natural_join_all
from repro.data.states import DatabaseState
from repro.data.tuples import Tuple
from repro.data.values import Null, NullFactory, is_constant, is_null
from repro.deps.fd import fd
from repro.exceptions import InstanceError, SchemaError
from repro.schema.attributes import attrs
from repro.schema.database import DatabaseSchema


class TestValues:
    def test_null_equality_by_label(self):
        assert Null(3) == Null(3)
        assert Null(3) != Null(4)

    def test_null_factory_fresh(self):
        f = NullFactory()
        a, b = f.fresh(), f.fresh()
        assert a != b

    def test_predicates(self):
        assert is_null(Null(0))
        assert is_constant(42)
        assert not is_constant(Null(0))


class TestTuple:
    def test_from_mapping(self):
        t = Tuple("A B", {"A": 1, "B": 2})
        assert t.value("A") == 1
        assert t["B"] == 2

    def test_from_sequence_natural_order(self):
        t = Tuple("A B", (1, 2))
        assert t.value("A") == 1

    def test_missing_value_rejected(self):
        with pytest.raises(InstanceError):
            Tuple("A B", {"A": 1})

    def test_foreign_value_rejected(self):
        with pytest.raises(InstanceError):
            Tuple("A", {"A": 1, "B": 2})

    def test_projection(self):
        t = Tuple("A B C", {"A": 1, "B": 2, "C": 3})
        assert t.project("A C").as_dict() == {"A": 1, "C": 3}
        assert t["A C"].attributes == attrs("A C")

    def test_projection_outside_rejected(self):
        with pytest.raises(InstanceError):
            Tuple("A", {"A": 1}).project("B")

    def test_agrees_with(self):
        t = Tuple("A B", {"A": 1, "B": 2})
        u = Tuple("A B", {"A": 1, "B": 3})
        assert t.agrees_with(u, "A")
        assert not t.agrees_with(u, "A B")

    def test_join(self):
        t = Tuple("A B", {"A": 1, "B": 2})
        u = Tuple("B C", {"B": 2, "C": 3})
        assert t.joinable_with(u)
        assert t.joined(u).as_dict() == {"A": 1, "B": 2, "C": 3}

    def test_join_disagreement_raises(self):
        t = Tuple("A B", {"A": 1, "B": 2})
        u = Tuple("B C", {"B": 9, "C": 3})
        with pytest.raises(InstanceError):
            t.joined(u)


class TestRelationInstance:
    def test_declared_column_order(self):
        r = RelationInstance("T D", [("Jones", "EE")])
        t = next(iter(r))
        assert t.value("T") == "Jones"
        assert t.value("D") == "EE"

    def test_dedup(self):
        r = RelationInstance("A", [(1,), (1,), (2,)])
        assert len(r) == 2

    def test_natural_order_value_tuples_match_mapped_rows(self):
        """Positional value tuples in the attribute set's natural order
        take a fast path; the relation, its tuples and its columns are
        the ones mapping rows give."""
        a = attrs("B A C")  # natural order: A B C
        rows = [(1, 2, 3), (4, 5, 6), (1, 2, 3)]
        fast = RelationInstance(a, rows)
        slow = RelationInstance(a, [dict(zip(a.names, row)) for row in rows])
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.columns == slow.columns == ("A", "B", "C")
        assert fast.tuples == slow.tuples
        assert [hash(t) for t in fast] == [hash(t) for t in slow]
        assert [t.value("A") for t in fast] == [1, 4]
        # declared-order columns still read positional rows their way
        declared = RelationInstance("B A C", [(2, 1, 3)])
        assert declared.tuples == (fast.tuples[0],)
        with pytest.raises(InstanceError):
            RelationInstance(a, [(1, 2)])

    def test_project(self):
        r = RelationInstance("A B", [(1, 2), (1, 3)])
        assert len(r.project("A")) == 1

    def test_select_eq(self):
        r = RelationInstance("A B", [(1, 2), (2, 2)])
        assert len(r.select_eq(A=1)) == 1

    def test_natural_join(self):
        r = RelationInstance("A B", [(1, 2), (4, 5)])
        s = RelationInstance("B C", [(2, 3)])
        j = r * s
        assert j.attributes == attrs("A B C")
        assert len(j) == 1

    def test_cross_product_when_disjoint(self):
        r = RelationInstance("A", [(1,), (2,)])
        s = RelationInstance("B", [(7,), (8,)])
        assert len(r * s) == 4

    def test_join_all_empty_rejected(self):
        with pytest.raises(InstanceError):
            natural_join_all([])

    def test_satisfies_fd(self):
        r = RelationInstance("A B", [(1, 2), (1, 2), (3, 4)])
        assert r.satisfies_fd(fd("A -> B"))
        bad = RelationInstance("A B", [(1, 2), (1, 3)])
        assert not bad.satisfies_fd(fd("A -> B"))
        assert bad.violating_pair(fd("A -> B")) is not None

    def test_fd_not_embedded_raises(self):
        r = RelationInstance("A B", [(1, 2)])
        with pytest.raises(InstanceError):
            r.satisfies_fd(fd("A -> C"))

    def test_with_without_tuple(self):
        r = RelationInstance("A B", [(1, 2)])
        grown = r.with_tuple((3, 4))
        assert len(grown) == 2
        assert len(grown.without_tuple((1, 2))) == 1


class TestDatabaseState:
    def test_construction_defaults_empty(self):
        schema = DatabaseSchema.parse("R(A,B); S(B,C)")
        state = DatabaseState(schema)
        assert state.total_tuples() == 0
        assert state.is_empty()

    def test_unknown_scheme_rejected(self):
        schema = DatabaseSchema.parse("R(A,B)")
        with pytest.raises(SchemaError):
            DatabaseState(schema, {"X": [(1, 2)]})

    def test_wrong_arity_rejected(self):
        schema = DatabaseSchema.parse("R(A,B)")
        with pytest.raises(InstanceError):
            DatabaseState(schema, {"R": [(1, 2, 3)]})

    def test_from_universal_and_join_consistency(self):
        schema = DatabaseSchema.parse("R(A,B); S(B,C)")
        universal = RelationInstance("A B C", [(1, 2, 3), (4, 5, 6)])
        state = DatabaseState.from_universal(schema, universal)
        assert state.is_join_consistent()
        assert state.join().project("A B C") == universal

    def test_dangling_tuples(self):
        schema = DatabaseSchema.parse("R(A,B); S(B,C)")
        state = DatabaseState(schema, {"R": [(1, 2)], "S": [(9, 3)]})
        assert not state.is_join_consistent()
        dangling = state.dangling_tuples()
        assert len(dangling["R"]) == 1 and len(dangling["S"]) == 1

    def test_with_tuple_is_persistent(self):
        schema = DatabaseSchema.parse("R(A,B)")
        s0 = DatabaseState(schema)
        s1 = s0.with_tuple("R", (1, 2))
        assert s0.total_tuples() == 0
        assert s1.total_tuples() == 1

    def test_empty_state_join_consistent(self):
        schema = DatabaseSchema.parse("R(A,B); S(B,C)")
        assert DatabaseState(schema).is_join_consistent()

    def test_partially_empty_state_not_join_consistent(self):
        schema = DatabaseSchema.parse("R(A,B); S(B,C)")
        state = DatabaseState(schema, {"R": [(1, 2)]})
        assert not state.is_join_consistent()

    def test_getitem_variants(self):
        schema = DatabaseSchema.parse("R(A,B)")
        state = DatabaseState(schema, {"R": [(1, 2)]})
        assert state["R"] == state[0] == state[schema["R"]]

    def test_pretty_renders_declared_order(self):
        schema = DatabaseSchema.parse("TD(T,D)")
        state = DatabaseState(schema, {"TD": [("Jones", "EE")]})
        assert "Jones | EE" in state.pretty()
