"""Headline query-layer benchmark: shard-routed execution vs one global
live tableau.

The 16-scheme disjoint star (``Ri(Ki, Aia, Aib)`` with ``Ki → Aia,
Ki → Aib``) holds an ~11k-tuple satisfying base state and serves a
query-heavy mixed stream: rounds of a few inserts followed by a batch
of relational queries — mostly filtered scheme-local selects (the
planner pushes the equality into the shard tableau's value indexes)
and unfiltered scheme-local scans, with a minority of cross-scheme
joins, filtered on both sides (still shard-local on a disjoint star:
both leaves read their own shard and the hash join runs in the
engine).

* The **routed** side is the sharded service's own
  :class:`QueryEngine`: every scan's window plan reads its scheme's
  shard alone, and nothing is ever chased.
* The **baseline** is ``WeakInstanceService(schema, F,
  method="chase")`` and its engine: identical planner, caches, and
  executor, but every leaf reads the one global live tableau — each
  post-insert scan pays an incremental chase plus a scan over the full
  ~11k-row tableau instead of one ~700-row shard.

Both sides must return identical answers for the whole stream.  The
committed gate (``BENCH_weak.json#query_layer``) is **routed ≥ 5× the
global-tableau baseline**.

Tiny mode (``REPRO_BENCH_QUERY_TINY=1``, the CI smoke step) shrinks
the workload and asserts only equivalence + routing invariants.
"""

import os
import random
import time

from repro.weak.service import WeakInstanceService
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import disjoint_star_schema
from repro.workloads.states import random_satisfying_state

from benchmarks.reporting import BENCH_WEAK_JSON_PATH, emit, emit_bench_json

TINY = os.environ.get("REPRO_BENCH_QUERY_TINY") == "1"

if TINY:
    N_SCHEMES, N_BASE, ROUNDS, QUERIES_PER_ROUND, INSERTS_PER_ROUND = 4, 40, 3, 8, 2
    BASE_DOMAIN = 64
else:
    # 850 universal rows project (after key dedupe) to ~700 tuples in
    # each of the 16 disjoint schemes: an ~11k-tuple base state
    N_SCHEMES, N_BASE, ROUNDS, QUERIES_PER_ROUND, INSERTS_PER_ROUND = 16, 850, 12, 20, 4
    BASE_DOMAIN = 2_000

DOMAIN = 10**9  # collision-free inserts: the stream never rejects


def _ops(schema, rng):
    """One interleaved stream of ('insert', scheme, values) and
    ('query', text) ops.  Queries cycle through a fixed pool (so the
    plan cache earns its keep) with fresh filter values (so the result
    cache cannot answer everything)."""
    schemes = list(schema)
    ops = []
    for _ in range(ROUNDS):
        for _ in range(INSERTS_PER_ROUND):
            scheme = rng.choice(schemes)
            values = tuple(rng.randrange(DOMAIN) for _ in scheme.attributes)
            ops.append(("insert", scheme.name, values))
        for q in range(QUERIES_PER_ROUND):
            scheme = rng.choice(schemes)
            names = scheme.attributes.names
            key = next(n for n in names if n.startswith("K"))
            rest = [n for n in names if n != key]
            roll = q % 8
            if roll < 5:
                # filtered scheme-local: pushed into the value index
                text = f"select({key}={rng.randrange(BASE_DOMAIN)}, [{' '.join(names)}])"
            elif roll < 7:
                # unfiltered scheme-local scan (partial target)
                text = f"[{key} {rest[0]}]"
            else:
                # minority cross-scheme join (both leaves still local).
                # On a disjoint star the schemes share no attributes,
                # so the join is a cross product — filter both sides
                # to keep it a point-combination, as a client would
                other = rng.choice([s for s in schemes if s.name != scheme.name])
                onames = other.attributes.names
                okey = next(n for n in onames if n.startswith("K"))
                orest = [n for n in onames if n != okey]
                text = (
                    f"join(select({key}={rng.randrange(BASE_DOMAIN)},"
                    f" [{key} {rest[0]}]),"
                    f" select({okey}={rng.randrange(BASE_DOMAIN)},"
                    f" [{okey} {orest[0]}]))"
                )
            ops.append(("query", text, None))
    return ops


def _run(service, engine, base, ops):
    t0 = time.perf_counter()
    service.load(base)
    answers = []
    for op in ops:
        if op[0] == "insert":
            service.insert(op[1], op[2])
        else:
            answers.append(engine.run(op[1]))
    return answers, time.perf_counter() - t0


def test_routed_vs_global_tableau():
    schema, F = disjoint_star_schema(N_SCHEMES, satellites=2)
    base = random_satisfying_state(
        schema, F, N_BASE, seed=42, domain_size=BASE_DOMAIN
    )
    ops = _ops(schema, random.Random(7))
    n_queries = sum(1 for op in ops if op[0] == "query")
    if not TINY:
        assert base.total_tuples() >= 10_000

    routed_svc = ShardedWeakInstanceService(schema, F)
    routed_answers, t_routed = _run(
        routed_svc, routed_svc._query_engine(), base, ops
    )
    chase_svc = WeakInstanceService(schema, F, method="chase")
    chase_answers, t_chase = _run(
        chase_svc, chase_svc._query_engine(), base, ops
    )
    assert routed_answers == chase_answers, (
        "routed execution diverged from the global-tableau baseline"
    )
    speedup = t_chase / t_routed

    # the routing invariants the speedup rests on: the routed side
    # reads shards and chases nothing, the baseline chases
    assert routed_svc.stats.query_shard_scans > 0
    assert routed_svc.stats.query_pushed_scans > 0
    assert routed_svc.stats.rebuilds == routed_svc.stats.incremental_chases == 0
    assert chase_svc.stats.rebuilds + chase_svc.stats.incremental_chases > 0

    emit(
        f"query-layer: rows={base.total_tuples()} queries={n_queries} "
        f"routed={t_routed:.2f}s global-tableau={t_chase:.2f}s "
        f"speedup={speedup:.1f}x (pushed={routed_svc.stats.query_pushed_scans} "
        f"result_hits={routed_svc.stats.query_result_cache_hits})"
    )

    if TINY:
        return
    assert speedup >= 5.0, (
        f"routed query execution must beat the global tableau by >= 5x, "
        f"got {speedup:.1f}x"
    )
    emit_bench_json(
        "query_layer",
        {
            "workload": (
                "query-heavy mixed stream over disjoint_star_schema(16): "
                "filtered + unfiltered scheme-local, minority cross-scheme joins"
            ),
            "base_tuples": base.total_tuples(),
            "queries": n_queries,
            "inserts": ROUNDS * INSERTS_PER_ROUND,
            "pushed_scans": routed_svc.stats.query_pushed_scans,
            "plan_cache_hits": routed_svc.stats.query_plan_cache_hits,
            "result_cache_hits": routed_svc.stats.query_result_cache_hits,
            "routed_seconds": round(t_routed, 3),
            "global_tableau_seconds": round(t_chase, 3),
            "speedup": round(speedup, 1),
            "gate": "routed >= 5x global tableau (method=chase service)",
        },
        BENCH_WEAK_JSON_PATH,
    )
