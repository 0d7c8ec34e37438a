"""The relational algebra on value rows, checked against Tuple-level
reference algorithms.

:class:`RelationInstance` keeps its distinct rows as value tuples in
natural attribute order and runs ``project``, ``natural_join`` and
selection on column positions; :class:`Tuple` objects are built only
when the relation is iterated.  The reference functions below compute
the same operations the straightforward way — every row a ``Tuple``,
every join output ``t.joined(u)``, every projection ``t.project(X)`` —
and the randomized cases compare results, row order (first
appearance), equality, hashing, membership and the FD checks.
"""

import random
from typing import Any, Dict, List, Mapping

import pytest

from repro.data.relations import RelationInstance
from repro.deps.fd import FD
from repro.data.states import DatabaseState
from repro.data.tuples import Tuple
from repro.exceptions import InstanceError
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema

# natural order: A1 A2 A10 B C
NAMES = ("A10", "B", "A1", "C", "A2")
SEEDS = range(60)


# -- reference algorithms, one Tuple per row -------------------------------------


def ref_rows(attrset: AttributeSet, rows, columns) -> List[Tuple]:
    """The distinct rows as Tuples, in first-appearance order."""
    out: List[Tuple] = []
    seen = set()
    for row in rows:
        if isinstance(row, Tuple):
            t = row
        elif isinstance(row, Mapping):
            t = Tuple(attrset, row)
        else:
            t = Tuple(attrset, dict(zip(columns, tuple(row))))
        if t.attributes != attrset:
            raise InstanceError("tuple does not fit")
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def dedup(tuples) -> List[Tuple]:
    return list(dict.fromkeys(tuples))


def ref_project(tuples: List[Tuple], target: AttributeSet) -> List[Tuple]:
    return dedup(t.project(target) for t in tuples)


def ref_join(left: List[Tuple], la, right: List[Tuple], ra) -> List[Tuple]:
    common = la & ra
    if not common:
        return dedup(t.joined(u) for t in left for u in right)
    index: Dict[tuple, List[Tuple]] = {}
    for u in right:
        index.setdefault(tuple(u.value(a) for a in common), []).append(u)
    return dedup(
        t.joined(u)
        for t in left
        for u in index.get(tuple(t.value(a) for a in common), ())
    )


def ref_satisfies_fd(tuples: List[Tuple], f: FD) -> bool:
    seen: Dict[tuple, tuple] = {}
    rhs = f.effective_rhs.names
    for t in tuples:
        key = tuple(t.value(a) for a in f.lhs.names)
        val = tuple(t.value(a) for a in rhs)
        if seen.setdefault(key, val) != val:
            return False
    return True


def ref_violating_pair(tuples: List[Tuple], f: FD):
    seen: Dict[tuple, Tuple] = {}
    for t in tuples:
        prior = seen.setdefault(tuple(t.value(a) for a in f.lhs.names), t)
        if not t.agrees_with(prior, f.effective_rhs):
            return (prior, t)
    return None


def ref_select_eq(tuples: List[Tuple], bindings: Dict[str, Any]) -> List[Tuple]:
    return [t for t in tuples if all(t.value(a) == v for a, v in bindings.items())]


# -- generated relations -------------------------------------------------------------


def random_attrs(rng: random.Random, pool=NAMES, low=1, high=3) -> List[str]:
    return rng.sample(pool, rng.randint(low, min(high, len(pool))))


def random_rows(rng: random.Random, attrset: AttributeSet, columns, count: int):
    """``count`` rows (with repeats) in a random mix of forms: value
    tuples in natural order, positional lists in ``columns`` order,
    mappings, and Tuples over an equal but distinct attribute set."""
    twin = AttributeSet(list(reversed(attrset.names)))
    assert twin == attrset and twin is not attrset
    values = [
        {a: rng.randrange(3) for a in attrset.names}
        for _ in range(max(1, count // 2))
    ]
    rows = []
    for _ in range(count):
        v = rng.choice(values)
        form = rng.randrange(4)
        if form == 0 and columns == attrset.names:
            rows.append(tuple(v[a] for a in attrset.names))
        elif form <= 1:
            rows.append([v[a] for a in columns])
        elif form == 2:
            rows.append(dict(v))
        else:
            rows.append(Tuple(twin, v))
    return rows


def build(rng: random.Random, names=None, count=None):
    """A relation and its reference rows."""
    names = random_attrs(rng) if names is None else names
    attrset = AttributeSet(names)
    columns = tuple(names)  # declared order: usually not natural
    count = rng.randrange(0, 9) if count is None else count
    rows = random_rows(rng, attrset, columns, count)
    rel = RelationInstance(names, rows)
    assert rel.columns == columns
    return rel, ref_rows(attrset, rows, columns)


def assert_same(rel: RelationInstance, ref: List[Tuple], attrset) -> None:
    assert rel.attributes == attrset
    assert list(rel) == ref  # same rows, same order
    assert len(rel) == len(ref) and bool(rel) == bool(ref)
    assert rel == RelationInstance(attrset, ref)
    assert hash(rel) == hash(RelationInstance(attrset, ref))


# -- kernel vs reference ---------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_construction_matches_reference(seed):
    rng = random.Random(seed)
    rel, ref = build(rng)
    assert_same(rel, ref, rel.attributes)


@pytest.mark.parametrize("seed", SEEDS)
def test_project_matches_reference(seed):
    rng = random.Random(seed)
    rel, ref = build(rng, random_attrs(rng, low=2, high=4))
    for size in range(len(rel.attributes) + 1):
        target = AttributeSet(rng.sample(rel.attributes.names, size))
        assert_same(rel.project(target), ref_project(ref, target), target)
    outside = AttributeSet([*rel.attributes.names[:1], "Z"])
    with pytest.raises(InstanceError):
        rel.project(outside)


@pytest.mark.parametrize("seed", SEEDS)
def test_join_matches_reference(seed):
    rng = random.Random(seed)
    r, rref = build(rng)
    s, sref = build(rng)
    joined = r.natural_join(s)
    want = ref_join(rref, r.attributes, sref, s.attributes)
    assert_same(joined, want, r.attributes | s.attributes)
    # and with the sides swapped
    assert_same(
        s.natural_join(r),
        ref_join(sref, s.attributes, rref, r.attributes),
        r.attributes | s.attributes,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_join_keeps_left_order_whichever_side_is_larger(seed):
    rng = random.Random(seed)
    small, sref = build(rng, ["A1", "B"], count=rng.randrange(2, 6))
    large, lref = build(rng, ["C", "B"], count=rng.randrange(8, 20))
    for left, lr, right, rr in ((small, sref, large, lref), (large, lref, small, sref)):
        assert_same(
            left.natural_join(right),
            ref_join(lr, left.attributes, rr, right.attributes),
            AttributeSet("A1 B C"),
        )


def test_join_emits_left_order_with_partners_in_right_order():
    left = RelationInstance("K L", [(1, "x"), (0, "y")])
    right = RelationInstance("K R", [(0, "a"), (1, "b"), (0, "c")])
    assert [t.values for t in left * right] == [
        (1, "x", "b"), (0, "y", "a"), (0, "y", "c"),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_product_without_common_attributes(seed):
    rng = random.Random(seed)
    r, rref = build(rng, ["A2", "A1"])
    s, sref = build(rng, ["C", "B"])
    want = ref_join(rref, r.attributes, sref, s.attributes)
    assert len(want) == len(r) * len(s)
    assert_same(r * s, want, AttributeSet("A1 A2 B C"))


@pytest.mark.parametrize("seed", SEEDS)
def test_self_join_is_the_relation(seed):
    rng = random.Random(seed)
    rel, ref = build(rng)
    assert_same(rel.natural_join(rel), ref, rel.attributes)


@pytest.mark.parametrize("seed", range(12))
def test_join_with_an_empty_side(seed):
    rng = random.Random(seed)
    r, rref = build(rng, count=rng.randrange(1, 6))
    empty = RelationInstance(random_attrs(rng), [])
    for left, lref, right, rref2 in ((r, rref, empty, []), (empty, [], r, rref)):
        out = left.natural_join(right)
        assert not out
        assert_same(
            out,
            ref_join(lref, left.attributes, rref2, right.attributes),
            r.attributes | empty.attributes,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_select_matches_reference(seed):
    rng = random.Random(seed)
    rel, ref = build(rng)
    names = rel.attributes.names
    bound = rng.sample(names, rng.randint(1, len(names)))
    bindings = {a: rng.randrange(3) for a in bound}
    want = ref_select_eq(ref, bindings)
    assert_same(rel.select_eq(**bindings), want, rel.attributes)
    picked = rel.select(lambda t: all(t.value(a) == v for a, v in bindings.items()))
    assert_same(picked, want, rel.attributes)
    with pytest.raises(InstanceError):  # empty or not
        rel.select_eq(Z=1)


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_checks_match_reference(seed):
    rng = random.Random(seed)
    rel, ref = build(rng, random_attrs(rng, low=2, high=4))
    names = rel.attributes.names
    for _ in range(6):
        lhs = rng.sample(names, rng.randint(1, len(names) - 1))
        rhs = rng.sample(names, rng.randint(1, len(names)))  # may overlap lhs
        f = FD(lhs, rhs)
        assert rel.satisfies_fd(f) is ref_satisfies_fd(ref, f)
        pair = rel.violating_pair(f)
        want = ref_violating_pair(ref, f)
        assert pair == want
        assert (pair is None) is rel.satisfies_fd(f)
        if pair is not None:
            # the witnesses are the relation's own materialized tuples
            assert all(any(p is t for t in rel) for p in pair)
    # an FD reaching outside the relation raises, even with no rows
    outside = FD(names[:1], ["Z"])
    for r in (rel, RelationInstance(rel.attributes, [])):
        with pytest.raises(InstanceError):
            r.satisfies_fd(outside)
        with pytest.raises(InstanceError):
            r.violating_pair(outside)


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_hash_and_membership_match_reference(seed):
    rng = random.Random(seed)
    r, rref = build(rng, ["A1", "B"])
    s, sref = build(rng, ["B", "A1"])
    same = r.attributes == s.attributes and set(rref) == set(sref)
    assert (r == s) is same
    if same:
        assert hash(r) == hash(s)
    for t in rref + sref:
        assert (t in r) is (t in rref)
    probe = Tuple(AttributeSet("A1 B"), {"A1": 9, "B": 9})
    assert probe not in r
    # a tuple over other attributes, or not a tuple, is never a member
    assert Tuple("A1", (0,)) not in r
    for t in rref:
        assert Tuple("A1 C", t.values) not in r
    assert (0, 0) not in r


def test_value_tuple_and_mapping_relations_are_equal():
    attrset = AttributeSet("B A C")  # natural order A B C
    values = [(1, 2, 3), (4, 5, 6), (1, 2, 3)]
    from_values = RelationInstance(attrset, values)
    from_tuples = RelationInstance(attrset, [Tuple(attrset, v) for v in values])
    from_maps = RelationInstance(attrset, [dict(zip("ABC", v)) for v in values])
    assert from_values == from_tuples == from_maps
    assert hash(from_values) == hash(from_tuples) == hash(from_maps)
    assert list(from_values) == list(from_tuples) == list(from_maps)


def test_given_tuples_are_kept_not_rebuilt():
    attrset = AttributeSet("A B")
    given = [Tuple(attrset, (i, i + 1)) for i in range(4)]
    # duplicates, one of them an equal but distinct object: the first
    # appearance is the one kept
    rel = RelationInstance(attrset, given + [given[1], Tuple(attrset, (0, 1))])
    assert len(rel) == 4
    assert all(a is b for a, b in zip(rel, given))
    # projecting onto every attribute keeps them too
    assert all(a is b for a, b in zip(rel.project("A B"), given))


def test_foreign_tuples_and_bad_arity_rejected():
    with pytest.raises(InstanceError):
        RelationInstance("A B", [Tuple("A C", (1, 2))])
    with pytest.raises(InstanceError):
        RelationInstance(AttributeSet("A B"), [(1, 2, 3)])
    with pytest.raises(InstanceError):
        RelationInstance("B A", [[1]])


def test_database_state_equality_and_hash():
    schema = DatabaseSchema.parse("R(B,A); S(A,C)")
    rows = {"R": [(2, 1), (4, 3)], "S": [(1, 5)]}
    by_values = DatabaseState(schema, rows)
    r_attrs = schema["R"].attributes
    by_tuples = DatabaseState(schema, {
        "R": [Tuple(r_attrs, {"B": b, "A": a}) for b, a in rows["R"]],
        "S": [{"A": 1, "C": 5}],
    })
    assert by_values == by_tuples
    assert hash(by_values) == hash(by_tuples)
    other = by_values.with_tuple("S", (3, 6))
    assert other != by_values
    assert other.without_tuple("S", (3, 6)) == by_values
    assert hash(other.without_tuple("S", (3, 6))) == hash(by_values)
