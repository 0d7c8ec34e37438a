"""Cross-shard windows served by compiled FD-lookup plans.

The sharded service answers every window from a plan over the shards
(:mod:`repro.weak.plans`): a union over the start schemes of their
stored tuples extended through cover-FD lookups.  The property below
drives generated independent schemas — random ones, a chain, a star,
the reverse-FD chain (whose attributes have two suppliers each, so its
starts run lookups to a fixpoint) and the AB/CA/CB guard schema —
through insert and delete streams, and after each step compares every
one- to three-attribute window, filtered and unfiltered, with the
from-scratch weak-instance window, and a few routed queries with the
naive evaluator.  The remaining tests pin what the plans are for: the
pruned shapes on a chain, backward value-bucket probes for filters,
no chase work, and cached results that only the plan's own shards can
invalidate.
"""

import itertools
import random
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.independence import analyze
from repro.data.tuples import Tuple
from repro.deps.fdset import FDSet
from repro.query import evaluate_naive, parse_query
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema
from repro.weak import sharded as sharded_module
from repro.weak.representative import window
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import (
    chain_schema,
    random_schema,
    reverse_fd_chain,
    star_schema,
)
from repro.workloads.states import random_satisfying_state


def _independent_random_schemas(count, **shape):
    found = []
    seed = 0
    while len(found) < count:
        schema, fds = random_schema(seed, **shape)
        if analyze(schema, fds, build_counterexample=False).independent:
            found.append((schema, fds))
        seed += 1
    return found


GUARD = (
    DatabaseSchema.parse("AB(A,B); CA(C,A); CB(C,B)"),
    FDSet.parse("C -> A; C -> B"),
)

SCHEMAS = [
    chain_schema(4),
    star_schema(3),
    reverse_fd_chain(3),
    GUARD,
    *_independent_random_schemas(4),
    *_independent_random_schemas(
        3, n_attrs=7, n_schemes=4, scheme_size=3, n_fds=5
    ),
]

#: small, so inserts collide on keys (rejections) and lookups hit
DOMAIN = 4


def _targets(schema):
    names = schema.universe.names
    return [
        AttributeSet(combo)
        for k in (1, 2, 3)
        for combo in itertools.combinations(names, k)
    ]


def _check(service, rng):
    state = service.state()
    fds = service.fds
    for target in _targets(service.schema):
        want = window(state, fds, target)
        assert service.window(target) == want, target
        attr = rng.choice(target.names)
        values = sorted({t.value(attr) for t in want}) + [DOMAIN]
        value = rng.choice(values)
        got = service._query_scan(target, ((attr, value),), "shards", ())
        assert got == want.select_eq(**{attr: value}), (target, attr, value)
    for scheme in service.schema:
        a, b = scheme.attributes.names[:2]
        for text in (
            f"select({a}={rng.randrange(DOMAIN)}, [{a} {b}])",
            f"join([{a} {b}], [{b}])",
        ):
            q = parse_query(text)
            assert service.query(q) == evaluate_naive(q, state, fds), text


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    which=st.integers(min_value=0, max_value=len(SCHEMAS) - 1),
    seed=st.integers(min_value=0, max_value=10**6),
    ops=st.lists(st.sampled_from(("insert", "delete")), min_size=1, max_size=10),
)
def test_plans_match_the_oracles_under_streams(which, seed, ops):
    schema, fds = SCHEMAS[which]
    rng = random.Random(seed)
    base = random_satisfying_state(schema, fds, 8, seed=seed, domain_size=DOMAIN)
    service = ShardedWeakInstanceService.from_state(base, fds)
    _check(service, rng)
    for op in ops:
        scheme = rng.choice(list(schema))
        if op == "insert":
            service.insert(
                scheme.name, {a: rng.randrange(DOMAIN) for a in scheme.attributes}
            )
        else:
            rows = service.state()[scheme.name].tuples
            if rows:
                assert service.delete(scheme.name, rng.choice(rows))
        _check(service, rng)


def _chain_service(n=8, chains=20):
    schema, fds = chain_schema(n)
    service = ShardedWeakInstanceService(schema, fds)
    for i in range(1, n + 1):
        for c in range(chains):
            assert service.insert(f"R{i}", (f"v{i}-{c}", f"v{i + 1}-{c}")).accepted
    return service


def test_chain_plans_keep_one_start():
    service = _chain_service()
    shapes = {
        "A2 A5": ("R2", ["R3", "R4"]),
        "A7 A9": ("R7", ["R8"]),
        "A1 A9": ("R1", [f"R{i}" for i in range(2, 9)]),
        "A4 A5": ("R4", []),
    }
    for attrs, (start, lookups) in shapes.items():
        plan = service._plan(AttributeSet(attrs))
        assert [s.shard for s in plan.starts] == [start], attrs
        assert [lk.shard for lk in plan.starts[0].lookups] == lookups, attrs
        assert plan.starts[0].strict
        assert plan.shards == tuple(sorted([start] + lookups))


def test_filter_on_a_looked_up_attribute_probes_backward(monkeypatch):
    """``select(A5=v, [A2 A5])`` follows one value bucket per link from
    R4 back to R2 and never scans a shard's rows once the buckets
    exist."""
    service = _chain_service()
    target = AttributeSet("A2 A5")
    service.query("select(A5='v5-3', [A2 A5])")  # builds the value indexes
    scanned = []
    real_rows = sharded_module._SchemeShard.rows

    def rows(shard):
        scanned.append(shard.name)
        return real_rows(shard)

    monkeypatch.setattr(sharded_module._SchemeShard, "rows", rows)
    for value, want in (
        ("v5-3", {("v2-3", "v5-3")}),
        ("v5-7", {("v2-7", "v5-7")}),
        ("absent", set()),
    ):
        got = service._query_scan(target, (("A5", value),), "shards", ())
        assert {tuple(t.values) for t in got} == want
    assert scanned == []


def test_chain_stream_does_no_chase_work(monkeypatch):
    """Cross-shard windows, filtered queries, inserts and deletes on a
    chain: the sharded service never builds a tableau."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the sharded service built a LiveTableau")

    monkeypatch.setattr("repro.weak.service.LiveTableau.__init__", refuse)
    service = _chain_service(n=5, chains=10)
    rng = random.Random(1)
    for step in range(60):
        i = rng.randrange(1, 6)
        if step % 3 == 0:
            service.insert(f"R{i}", (f"n{step}", f"v{i + 1}-{rng.randrange(10)}"))
        elif step % 3 == 1:
            rows = list(service._shard(f"R{i}").rows())
            service.delete(f"R{i}", rng.choice(rows))
        service.window(f"A1 A{rng.randrange(2, 7)}")
        service.query(f"select(A{i}='v{i}-{rng.randrange(10)}', [A{i} A6])")
    stats = service.stats
    assert stats.joined_windows > 0 and stats.query_shard_scans > 0
    for counter in ("rebuilds", "incremental_chases", "bulk_loads",
                    "scoped_rechases", "compaction_rebuilds"):
        assert getattr(stats, counter) == 0, counter
    assert stats.query_composer_scans == stats.composer_syncs == 0


def test_cached_plan_result_survives_writes_outside_its_plan():
    service = _chain_service(n=5, chains=10)
    target = AttributeSet("A3 A6")  # R3 → R4 → R5
    first = service.window(target)
    assert service._plan(target).shards == ("R3", "R4", "R5")
    hits = service.stats.window_cache_hits
    # R1 and R2 are outside the plan: the cached result stays
    assert service.insert("R1", ("n1", "v2-0")).accepted
    assert service.delete("R2", ("v2-1", "v3-1"))
    assert service.window(target) is first
    assert service.stats.window_cache_hits == hits + 1
    q = "[A3 A6]"
    service.query(q)
    assert service.insert("R2", ("n2", "v3-0")).accepted
    service.query(q)
    assert service.stats.query_result_cache_hits == 1
    # a write to a shard the plan looks up in invalidates both
    assert service.delete("R4", ("v4-2", "v5-2"))
    again = service.window(target)
    assert again is not first and len(again) == len(first) - 1
    assert again == window(service.state(), service.fds, target)
    service.query(q)
    assert service.stats.query_result_cache_hits == 1


def _count_tuples(monkeypatch):
    """Count every :class:`Tuple` built from here on, through the
    public constructor or the relations' trusted one."""
    built = []
    real_init = Tuple.__init__
    real_trusted = Tuple._trusted.__func__

    def init(self, *args, **kwargs):
        built.append(None)
        real_init(self, *args, **kwargs)

    def trusted(cls, attrs, values):
        built.append(None)
        return real_trusted(cls, attrs, values)

    monkeypatch.setattr(Tuple, "__init__", init)
    monkeypatch.setattr(Tuple, "_trusted", classmethod(trusted))
    return built


@pytest.mark.parametrize("text", [
    "join([A1 A2], [A2 A4])",
    "join(select(A2='v2-3', [A2 A3]), [A3 A6])",
    "project(A2 A4, [A2 A3 A4])",
])
def test_query_answers_build_tuples_only_when_iterated(monkeypatch, text):
    """Joins and projections run on value rows: answering builds no
    :class:`Tuple`; the first iteration builds one per row, and later
    ones hand out the same objects."""
    service = _chain_service()
    built = _count_tuples(monkeypatch)
    answer = service.query(text)
    assert built == [] and len(answer) > 0
    first = list(answer)
    assert len(built) == len(answer)
    second = list(answer)
    assert all(a is b for a, b in zip(first, second))
    assert len(built) == len(answer)
    assert {t.values for t in first} == {
        t.values for t in evaluate_naive(text, service.state(), service.fds)
    }


def test_concurrent_first_iterations_see_equal_rows():
    """Threads iterating one cached, not yet iterated answer at once
    all see its rows, with no lock taken: a first iteration that races
    another builds equal tuples, and either build is kept."""
    service = _chain_service(chains=200)
    text = "join([A1 A3], [A3 A5])"
    answers = []
    for _ in range(20):
        service.insert("R1", (f"n{len(answers)}", "v2-0"))  # a fresh answer
        answers.append(service.query(text))
        assert service.query(text) is answers[-1]  # the cached object
    want = sorted(t.values for t in evaluate_naive(text, service.state(), service.fds))
    workers = 4  # more threads than cores
    barrier = threading.Barrier(workers)
    seen = {i: [] for i in range(workers)}

    def read(slot):
        for answer in answers:
            barrier.wait(timeout=10)
            seen[slot].append([t.values for t in answer])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, answer in enumerate(answers):
        rows = [t.values for t in answer]
        assert all(seen[i][k] == rows for i in range(workers))
        assert list(answer) == list(answer)
    assert sorted(rows) == want
