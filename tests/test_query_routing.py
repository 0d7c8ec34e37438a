"""Planner routing and result-cache lifetime over the sharded service.

Two schemas bracket the window plans:

* the **disjoint star** (pairwise-disjoint schemes) — every
  scheme-embedded target is a projection of its own shard, so a whole
  randomized stream of inserts, deletes, and queries must finish with
  no lookup join and no chase work at all;
* the **AB/CA/CB guard case** (independent, but ``cl(CA) = cl(CB) =
  {A,B,C}`` reaches every target) — every plan reads all three shards,
  and the answers must include the facts derived *through* C, which
  the plans find by FD lookups across shards.

Both run against the from-scratch chase + naive-algebra oracle
(:func:`repro.query.naive.evaluate_naive`) on the service's current
state after every query.  The result-cache tests pin the scoped-delete
interaction both ways: a delete on a participating shard invalidates,
a delete on a disjoint shard retains.
"""

import random

import pytest

from repro.deps.fdset import FDSet
from repro.query import evaluate_naive
from repro.schema.database import DatabaseSchema
from repro.weak.service import WeakInstanceService
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import disjoint_star_schema
from repro.workloads.states import random_satisfying_state

# ---------------------------------------------------------------------------
# the disjoint star: every plan is local, nothing is ever chased


def _star_query_pool(schema, rng, state):
    """Scheme-embedded query expressions: full and partial scans,
    filtered selects with values drawn from the stored tuples, and
    same-scheme joins of partial scans."""
    pool = []
    for scheme, relation in state:
        names = scheme.attributes.names
        key = names[0]
        pool.append(f"[{' '.join(names)}]")
        pool.append(f"[{key} {names[1]}]")
        pool.append(f"project({names[1]}, [{' '.join(names)}])")
        if len(relation):
            t = rng.choice(relation.tuples)
            pool.append(f"select({key}={t.value(key)}, [{' '.join(names)}])")
            pool.append(
                f"select({names[1]}={t.value(names[1])} & {key}={t.value(key)},"
                f" [{' '.join(names)}])"
            )
        if len(names) >= 3:
            pool.append(f"join([{key} {names[1]}], [{key} {names[2]}])")
    return pool


@pytest.mark.parametrize("seed", range(3))
def test_disjoint_star_stream_never_touches_the_composer(seed):
    schema, fds = disjoint_star_schema(4, satellites=2)
    rng = random.Random(seed)
    base = random_satisfying_state(schema, fds, 60, seed=seed, domain_size=8)
    svc = ShardedWeakInstanceService.from_state(base, fds)
    pool = _star_query_pool(schema, rng, base)

    stored = [
        (scheme.name, t) for scheme, relation in base for t in relation
    ]
    queried = 0
    for step in range(60):
        roll = rng.random()
        if roll < 0.4:
            scheme = rng.choice(list(schema))
            values = tuple(rng.randrange(30) for _ in scheme.attributes)
            outcome = svc.insert(scheme.name, values)
            if outcome.accepted and not outcome.reason:
                stored.append((scheme.name, values))
        elif roll < 0.55 and stored:
            name, values = stored.pop(rng.randrange(len(stored)))
            svc.delete(name, values)
        else:
            text = rng.choice(pool)
            got = svc.query(text)
            want = evaluate_naive(text, svc.state(), fds)
            assert got == want, f"seed={seed} step={step}: {text}"
            queried += 1
    assert queried > 10

    # the whole stream stayed on local plans, and nothing was chased:
    # the sharded service keeps no tableau to build
    assert svc.stats.joined_windows == 0
    assert all(
        svc._plan(leaf.target).local
        for text in pool
        for leaf in svc.explain(text).leaves
    )
    assert svc.stats.rebuilds == svc.stats.incremental_chases == 0
    assert svc.stats.bulk_loads == 0
    assert svc.stats.query_shard_scans > 0


def test_scheme_embedded_queries_route_to_their_shard():
    schema, fds = disjoint_star_schema(3, satellites=2)
    base = random_satisfying_state(schema, fds, 30, seed=1, domain_size=6)
    svc = ShardedWeakInstanceService.from_state(base, fds)
    report = svc.explain("select(K2=3, [K2 A2a A2b])")
    assert [leaf.route for leaf in report.leaves] == ["shards"]
    assert report.participants == ("R2",)
    # a cross-scheme join of two local scans: each leaf reads its own
    # shard and the hash join runs in the engine
    report = svc.explain("join([K1 A1a], [K2 A2a])")
    assert all(leaf.route == "shards" for leaf in report.leaves)
    assert set(report.participants) == {"R1", "R2"}
    assert svc.stats.joined_windows == 0


# ---------------------------------------------------------------------------
# the AB/CA/CB guard case: independent, yet every plan joins shards


GUARD_SCHEMA = DatabaseSchema.parse("AB(A,B); CA(C,A); CB(C,B)")
GUARD_FDS = FDSet.parse("C -> A; C -> B")
GUARD_QUERIES = [
    "[A B]",
    "[C A]",
    "select(A=5, [A B])",
    "join([C A], [C B])",
    "project(B, select(A=5, [A B]))",
    "select(C=9, join([C A], [C B]))",
]


def test_guard_case_plans_join_through_c():
    svc = ShardedWeakInstanceService(GUARD_SCHEMA, GUARD_FDS)
    svc.insert("AB", (1, 2))
    svc.insert("CA", (9, 5))
    svc.insert("CB", (9, 6))
    for text in GUARD_QUERIES:
        report = svc.explain(text)
        assert all(leaf.route == "shards" for leaf in report.leaves), text
    # [A B]: AB stores the target; of the starts CA and CB, whose rows
    # each extend to the other's through C, pruning keeps one
    plan = svc._plan(svc.schema.universe - ["C"])
    assert [start.shard for start in plan.starts] == ["AB", "CB"]
    assert [lk.shard for lk in plan.starts[1].lookups] == ["CA"]
    assert svc.explain("[A B]").participants == ("AB", "CA", "CB")
    # [C A]: CB's rows reach A only through CA, which stores the target
    assert svc.explain("[C A]").participants == ("CA",)
    # the answer includes the fact derived *through* C — the reason a
    # shard storing the target is not enough on its own
    facts = {
        (t.value("A"), t.value("B")) for t in svc.query("[A B]")
    }
    assert facts == {(1, 2), (5, 6)}
    filtered = svc.query("select(A=5, [A B])")
    assert {(t.value("A"), t.value("B")) for t in filtered} == {(5, 6)}


@pytest.mark.parametrize("seed", range(3))
def test_guard_case_stream_matches_the_oracle(seed):
    rng = random.Random(100 + seed)
    svc = ShardedWeakInstanceService(GUARD_SCHEMA, GUARD_FDS)
    stored = []
    for step in range(50):
        roll = rng.random()
        if roll < 0.45:
            name = rng.choice(("AB", "CA", "CB"))
            values = (rng.randrange(8), rng.randrange(8))
            outcome = svc.insert(name, values)
            if outcome.accepted and not outcome.reason:
                stored.append((name, values))
        elif roll < 0.6 and stored:
            name, values = stored.pop(rng.randrange(len(stored)))
            svc.delete(name, values)
        else:
            text = rng.choice(GUARD_QUERIES)
            got = svc.query(text)
            want = evaluate_naive(text, svc.state(), GUARD_FDS)
            assert got == want, f"seed={seed} step={step}: {text}"
    # every leaf ran its target's plan over the shards, and [A B]'s plan
    # joins CB to CA rather than projecting AB alone
    assert svc.stats.query_shard_scans > 0
    assert not svc._plan(svc.schema.universe - ["C"]).local


# ---------------------------------------------------------------------------
# result-cache lifetime under scoped deletes


class TestResultCacheScope:
    def _service(self):
        schema, fds = disjoint_star_schema(3, satellites=2)
        base = random_satisfying_state(schema, fds, 40, seed=7, domain_size=6)
        return ShardedWeakInstanceService.from_state(base, fds)

    @staticmethod
    def _stored(svc, name):
        # Tuples are order-independent rows, so no column juggling
        return svc.state()[name].tuples[0]

    def test_disjoint_shard_delete_retains_cached_results(self):
        svc = self._service()
        q = "[K1 A1a A1b]"
        first = svc.query(q)
        assert svc.stats.query_result_cache_hits == 0
        # delete a tuple of R2 — R1's stamp is untouched, so the
        # cached result (participants: R1 only) must be retained
        assert svc.delete("R2", self._stored(svc, "R2"))
        assert svc.query(q) == first
        assert svc.stats.query_result_cache_hits == 1

    def test_participating_shard_delete_invalidates(self):
        svc = self._service()
        q = "[K1 A1a A1b]"
        svc.query(q)
        assert svc.delete("R1", self._stored(svc, "R1"))
        after = svc.query(q)
        assert svc.stats.query_result_cache_hits == 0  # stamp moved: recomputed
        assert after == evaluate_naive(q, svc.state(), svc.fds)

    def test_composer_results_invalidate_on_any_shard(self):
        svc = ShardedWeakInstanceService(GUARD_SCHEMA, GUARD_FDS)
        svc.insert("AB", (1, 2))
        svc.insert("CA", (9, 5))
        svc.insert("CB", (9, 6))
        q = "[A B]"
        first = svc.query(q)
        assert svc.query(q) == first
        assert svc.stats.query_result_cache_hits == 1
        # every shard participates in the [A B] plan: a delete on any
        # of them moves the stamp vector
        assert svc.delete("CB", (9, 6))
        after = svc.query(q)
        assert svc.stats.query_result_cache_hits == 1  # no new hit
        assert {(t.value("A"), t.value("B")) for t in after} == {(1, 2)}


# ---------------------------------------------------------------------------
# the global chase service agrees (it is the benchmark baseline, so its
# answers must be the routed answers — only slower)


def test_chase_service_matches_routed_execution():
    schema, fds = disjoint_star_schema(3, satellites=2)
    base = random_satisfying_state(schema, fds, 30, seed=3, domain_size=6)
    routed = ShardedWeakInstanceService.from_state(base, fds)
    chased = WeakInstanceService.from_state(base, fds, method="chase")
    rng = random.Random(3)
    for text in _star_query_pool(schema, rng, base):
        assert chased.query(text) == routed.query(text), text
    assert all(
        leaf.route == "tableau"
        for text in _star_query_pool(schema, rng, base)
        for leaf in chased.explain(text).leaves
    )
    assert routed.stats.query_shard_scans > 0
