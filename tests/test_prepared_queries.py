"""Prepared reads: one plan per query shape, constants bound per read.

The engine keys its plan cache by a query's shape — the text with each
comparison value replaced by a slot — and binds a read's constants into
the cached plan.  These tests pin that the prepared path answers
exactly what the unprepared pipeline (parse → validate → normalize →
plan, run on the concrete tree) and the from-scratch oracle answer:

* a Hypothesis property over random shapes on a chain and a star, with
  constants that stress the shape front end (quoted values holding
  ``= , ( ) & [ ]``, spaces and ``''``; digit strings bare and quoted;
  ``-5``), each shape run with two constant vectors so the second binds
  into the cached entry;
* malformed texts raise the same :class:`QueryError` message whether or
  not a valid text of their shape was cached first;
* the constant-free normalization: a repeated equality stays a binding
  plus a residual, and spellings that differ in conjunct order share
  one plan while binding their own constants.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.data.states import DatabaseState
from repro.exceptions import QueryError
from repro.query import evaluate_naive, normalize, parse_query, scan, validate
from repro.query.parser import shape_of
from repro.query.planner import JoinPlan, LeafPlan, ProjectPlan, plan
from repro.schema.evolution import parse_evolution_op
from repro.weak.service import WeakInstanceService
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import chain_schema, star_schema

#: value tokens as a query writes them, and the values they stand for
TOKENS = {
    "1": 1,
    "'1'": "1",
    "12": 12,
    "'12'": "12",
    "-5": -5,
    "'-5'": "-5",
    "v": "v",
    "'x y'": "x y",
    "'p=q, r'": "p=q, r",
    "'(e) & [f]'": "(e) & [f]",
    "'o''k'": "o'k",
    "''''": "'",
    "'a=b'": "a=b",
}
VALUES = list(TOKENS.values())
OPS = ("=", "=", "=", "!=", "<", ">=")

SCHEMAS = {"chain": chain_schema(4), "star": star_schema(3)}


def make_state(schema, seed: int) -> DatabaseState:
    """Each scheme's first column determines its second (the schemas'
    only FDs), over values drawn from ``VALUES``."""
    rng = random.Random(seed)
    relations = {}
    for scheme in schema:
        image = {v: rng.choice(VALUES) for v in VALUES}
        keys = rng.sample(VALUES, rng.randrange(2, 7))
        relations[scheme.name] = [(k, image[k]) for k in keys]
    return DatabaseState(schema, relations)


def unprepared(service, text):
    """The pipeline run on the concrete tree, with no cache: parse,
    validate, normalize, plan, and execute the plan's leaves through
    the service's scan hook."""
    q = parse_query(text)
    validate(q, service.schema.universe)
    physical = plan(normalize(q), service._query_route)

    def run(node):
        if isinstance(node, LeafPlan):
            rel = service._query_scan(
                node.target, node.bindings, node.route, node.shards
            )
            return rel if node.residual is None else rel.select(node.residual.matches)
        if isinstance(node, ProjectPlan):
            return run(node.child).project(node.attrs)
        assert isinstance(node, JoinPlan)
        return run(node.left).natural_join(run(node.right))

    return run(physical.root)


@st.composite
def leaves(draw, universe):
    attrs = draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=3, unique=True)
    )
    target = f"[{' '.join(attrs)}]"
    n = draw(st.integers(0, 3))
    if not n:
        return target, attrs
    parts = [
        f"{draw(st.sampled_from(attrs))}{draw(st.sampled_from(OPS))}{{}}"
        for _ in range(n)
    ]
    return f"select({' & '.join(parts)}, {target})", attrs


@st.composite
def shapes(draw, universe):
    """A query text with ``{}`` where each value goes."""
    text, attrs = draw(leaves(universe))
    kind = draw(st.sampled_from(("leaf", "project", "join")))
    if kind == "project":
        keep = draw(st.lists(st.sampled_from(attrs), min_size=1, unique=True))
        return f"project({' '.join(keep)}, {text})"
    if kind == "join":
        other, _ = draw(leaves(universe))
        return f"join({text}, {other})"
    return text


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    universe = list(SCHEMAS[name][0].universe.names)
    shape = draw(shapes(universe))
    slots = shape.count("{}")
    fills = [
        draw(st.lists(st.sampled_from(sorted(TOKENS)), min_size=slots, max_size=slots))
        for _ in range(2)
    ]
    texts = []
    for fill in fills:
        text = shape
        for token in fill:
            text = text.replace("{}", token, 1)
        texts.append(text)
    return name, texts, draw(st.integers(0, 10**6))


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_prepared_path_matches_the_unprepared_path_and_the_oracle(case):
    name, texts, seed = case
    schema, fds = SCHEMAS[name]
    state = make_state(schema, seed)
    for service in (
        ShardedWeakInstanceService.from_state(state, fds),
        WeakInstanceService.from_state(state, fds),
    ):
        for text in texts + texts[:1]:
            want = evaluate_naive(text, state, fds)
            assert unprepared(service, text) == want, text
            assert service.query(text) == want, text
        # every text after the first bound into the first one's entry
        assert service.stats.query_plan_cache_hits >= len(texts)


def test_shape_of_decodes_values_like_the_parser():
    text = "select(A1='p=q, r' & A2 != '(e) & [f]' & A1>=-5 & A2<'o''k', [A1 A2])"
    shape, constants = shape_of(text)
    assert shape == "select(A1=? & A2 !=? & A1>=? & A2<?, [A1 A2])"
    assert constants == ("p=q, r", "(e) & [f]", -5, "o'k")
    template, parsed = parse_query(text, slots=True)
    assert parsed == constants
    assert shape_of("select(A1=12 & A2='12', [A1 A2])")[1] == (12, "12")


# ---------------------------------------------------------------------------
# malformed text, with and without a cached text of its shape

MALFORMED = [
    "select(A1=, [A1 A2])",
    "select(A1='x, [A1 A2])",
    "select(A1==x, [A1 A2])",
    "select(A1=x, [A1 A2]) y",
    "select(A1='x'', [A1 A2])",
    "select(A1=x, [A1 A2]",
    "select(A1=x, [A1 NOPE])",
    "select(A3=x, [A1 A2])",
]


def _error(service, text) -> str:
    with pytest.raises(QueryError) as excinfo:
        service.query(text)
    return str(excinfo.value)


@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_text_raises_the_same_error_cached_or_not(bad):
    schema, fds = chain_schema(2)
    state = make_state(schema, 1)
    fresh = ShardedWeakInstanceService.from_state(state, fds)
    warmed = ShardedWeakInstanceService.from_state(state, fds)
    for text in (
        "select(A1='x', [A1 A2])",
        "select(A1=x, [A1 A2])",
        "select(A3=x, [A1 A2 A3])",
    ):
        warmed.query(text)
    assert _error(warmed, bad) == _error(fresh, bad)
    # a failed text caches nothing: it raises again the same way
    assert _error(warmed, bad) == _error(fresh, bad)


# ---------------------------------------------------------------------------
# normalization without constants


def test_repeated_equality_is_a_binding_plus_a_residual():
    schema, fds = chain_schema(2)
    state = DatabaseState(schema, {"R1": [("x", "y"), ("z", "y")], "R2": []})
    service = ShardedWeakInstanceService.from_state(state, fds)
    same = "select(A1=x & A1=x, [A1 A2])"
    report = service.explain(same)
    leaf = report.leaves[0]
    assert leaf.bindings == (("A1", "x"),)
    assert leaf.residual is not None and leaf.residual.render() == "A1=x"
    assert report.result == evaluate_naive(same, state, fds)
    assert len(report.result) == 1
    # the same shape with two different constants filters to empty
    other = service.query("select(A1=x & A1=z, [A1 A2])")
    assert len(other) == 0 == len(evaluate_naive("select(A1=x & A1=z, [A1 A2])", state, fds))
    assert service.stats.query_plan_cache_hits == 1


def test_spellings_share_a_plan_and_bind_their_own_constants():
    schema, fds = chain_schema(3)
    state = DatabaseState(
        schema,
        {"R1": [("a", "b"), ("c", "d")], "R2": [("b", "e"), ("d", "f")], "R3": []},
    )
    service = ShardedWeakInstanceService.from_state(state, fds)
    first = "select(A1=a & A3=e, [A1 A2 A3])"
    swapped = "select(A3=f & A1=c, [A1 A2 A3])"
    assert [tuple(t.values) for t in service.query(first)] == [("a", "b", "e")]
    assert [tuple(t.values) for t in service.query(swapped)] == [("c", "d", "f")]
    # one plan: the swapped spelling hit the first one's template
    assert service.stats.query_plan_cache_hits == 1
    report = service.explain(swapped)
    assert "pushed: A1='c'" in report.render()
    assert "?" not in report.render()


def test_builder_values_bind_as_given():
    """A builder query keeps its own constants even where ``render``
    would read a value back as another type."""
    schema, fds = chain_schema(1)
    state = DatabaseState(schema, {"R1": [(1.5, "float"), ("1.5", "text")]})
    service = ShardedWeakInstanceService.from_state(state, fds)
    got = service.query(scan("A1 A2").select(A1=1.5))
    assert [tuple(t.values) for t in got] == [(1.5, "float")]
    got = service.query("select(A1='1.5', [A1 A2])")
    assert [tuple(t.values) for t in got] == [("1.5", "text")]


def test_a_query_bound_before_an_evolution_runs_under_the_new_epoch():
    """The server binds a read before it takes the shard locks; an
    evolution in between re-prepares the shape under the new epoch and
    keeps the read's own constants."""
    schema, fds = chain_schema(2)
    state = DatabaseState(schema, {"R1": [(1.5, "b"), ("1.5", "c")], "R2": []})
    service = ShardedWeakInstanceService.from_state(state, fds)
    engine = service._query_engine()
    bound = engine.bind(scan("A1 A2").select(A1=1.5))
    service.evolve(parse_evolution_op("add-attr R2 X"))
    got = engine.run(bound)
    assert [tuple(t.values) for t in got] == [(1.5, "b")]
    assert service.schema_version == 1
