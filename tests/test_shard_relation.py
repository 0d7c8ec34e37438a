"""A shard is its relation.

Condition (1) puts every FD of a shard's cover ``Hi`` inside its
scheme ``Ri``, so a validated relation is its own chase fixpoint and
the sharded service serves scheme-local windows and pushed-down
filters straight from the stored rows.  The property below drives
generated independent schemas through every operation that touches a
shard's rows — insert, delete, batch insert, load, a wholesale shard
reload and one evolution — and after each step compares every
local-plan window with the from-scratch weak-instance window and every
routed query with the naive evaluator, which exercises the value
index's upkeep across delete, reload and adopt.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.independence import analyze
from repro.data.states import DatabaseState
from repro.exceptions import EvolutionRejectedError, InconsistentStateError
from repro.query import evaluate_naive, parse_query
from repro.schema.attributes import AttributeSet
from repro.schema.evolution import AddAttribute
from repro.weak.representative import window
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import (
    chain_schema,
    disjoint_star_schema,
    random_schema,
    star_schema,
)
from repro.workloads.states import random_satisfying_state


def _independent_random_schemas(count):
    found = []
    seed = 0
    while len(found) < count:
        schema, fds = random_schema(seed)
        if analyze(schema, fds, build_counterexample=False).independent:
            found.append((schema, fds))
        seed += 1
    return found


SCHEMAS = [
    chain_schema(3),
    star_schema(3),
    disjoint_star_schema(2, satellites=2),
    *_independent_random_schemas(3),
]

#: value domain: small, so inserts collide on keys (rejections) and
#: filters hit multi-row buckets
DOMAIN = 4


def _targets(schema):
    """Every scheme, and every one- and two-attribute subset of it."""
    targets = set()
    for scheme in schema:
        names = scheme.attributes.names
        targets.add(scheme.attributes)
        for i, a in enumerate(names):
            targets.add(AttributeSet([a]))
            for b in names[i + 1:]:
                targets.add(AttributeSet([a, b]))
    return sorted(targets, key=lambda t: t.names)


def _queries(schema, rng):
    """Full scans, filtered scans (one and two bindings) and a
    projection, over each scheme."""
    texts = []
    for scheme in schema:
        names = scheme.attributes.names
        scan = f"[{' '.join(names)}]"
        texts.append(scan)
        texts.append(f"select({names[0]}={rng.randrange(DOMAIN)}, {scan})")
        texts.append(
            f"select({names[0]}={rng.randrange(DOMAIN)} & "
            f"{names[-1]}={rng.randrange(DOMAIN)}, {scan})"
        )
        texts.append(f"project({names[-1]}, {scan})")
    return texts


def _row(scheme, rng):
    return {a: rng.randrange(DOMAIN) for a in scheme.attributes}


def _check(service, rng):
    state = service.state()
    fds = service.fds
    for target in _targets(service.schema):
        if not service._plan(target).local:
            continue
        assert service.window(target) == window(state, fds, target), target
    for text in _queries(service.schema, rng):
        got = service.query(text)
        assert got == evaluate_naive(parse_query(text), state, fds), text


OPS = ("insert", "delete", "insert_many", "load", "reload", "evolve")


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    which=st.integers(min_value=0, max_value=len(SCHEMAS) - 1),
    seed=st.integers(min_value=0, max_value=10**6),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=14),
)
def test_local_windows_and_queries_match_the_oracles(which, seed, ops):
    schema, fds = SCHEMAS[which]
    rng = random.Random(seed)
    base = random_satisfying_state(schema, fds, 6, seed=seed, domain_size=DOMAIN)
    service = ShardedWeakInstanceService.from_state(base, fds)
    _check(service, rng)
    evolved = False
    for op in ops:
        schemes = list(service.schema)
        scheme = rng.choice(schemes)
        if op == "insert":
            service.insert(scheme.name, _row(scheme, rng))
        elif op == "delete":
            rows = service.state()[scheme.name].tuples
            if rows:
                assert service.delete(scheme.name, rng.choice(rows))
        elif op == "insert_many":
            service.insert_many(
                [(s.name, _row(s, rng)) for s in rng.choices(schemes, k=4)]
            )
        elif op == "load":
            extra = DatabaseState(
                service.schema,
                {s.name: [_row(s, rng) for _ in range(2)] for s in schemes},
            )
            try:
                service.load(extra)
            except InconsistentStateError:
                pass  # atomic: a violating batch changes nothing
        elif op == "reload":
            # any subset of a satisfying relation satisfies its cover
            rows = list(service.state()[scheme.name].tuples)
            keep = [t for t in rows if rng.random() < 0.6]
            service.reload_shard(scheme.name, keep)
        elif not evolved:
            evolved = True
            try:
                service.evolve(AddAttribute(scheme.name, "Znew", 0))
            except EvolutionRejectedError:
                pass
        _check(service, rng)


def test_stored_tuples_share_the_scheme_attribute_set():
    schema, fds = disjoint_star_schema(2, satellites=2)
    base = random_satisfying_state(schema, fds, 10, seed=1, domain_size=50)
    service = ShardedWeakInstanceService.from_state(base, fds)
    service.insert("R1", (100, 1, 2))
    service.insert("R2", {"K2": 101, "A2a": 3, "A2b": 4})
    service.insert_many([("R1", (102, 5, 6))])
    service.reload_shard("R2", list(service.state()["R2"].tuples))
    for shard in service._shards.values():
        rows = shard.checker.rows(shard.name)
        assert rows
        for t in rows:
            assert t.attributes is shard.scheme.attributes
