"""The query executor with plan and result caching.

:class:`QueryEngine` drives the full pipeline over any window-query
service (``WeakInstanceService``, ``ShardedWeakInstanceService``, …)::

    parse → validate → normalize → plan (cached) → execute (cached)

The two caches have different keys and different lifetimes:

* The **plan cache** is keyed by the *normalized* AST.  Routing depends
  only on the schema (a window plan is a static function of the scheme
  closures and covers), so within one schema epoch a plan never goes
  stale — the cache is a plain LRU.
* The **result cache** is keyed by the normalized AST *plus* the
  version stamps of the plan's participating shards at execution time.
  A repeat query is answered from cache iff every participating shard
  reports the same stamp it had when the result was computed.  Stamps
  are monotone across rebuilds (PR 5's ``offset_version_base``), so a
  stale hit is impossible; and because the key only covers
  *participating* shards, a scoped delete that bumps an unrelated
  shard's version leaves the cached result valid — the retention
  direction the PR 3 window-cache revalidation policy established.

Both caches additionally carry the service's **schema epoch**
(``schema_version``, bumped by every applied evolution): a cached plan
or result is honored only when its epoch matches the service's current
one, so entries computed against a retired schema can never route to a
renamed shard or serve a pre-migration answer — the
``(schema_version, shard stamps)`` key the online-evolution protocol
requires.  Services without an epoch (the unsharded one) report 0
forever and behave exactly as before.

The engine talks to services through three duck-typed hooks:

``_query_route(target)``
    ``(route, shard_names)`` for one scan target — ``"shards"`` with
    the shards its window plan reads, or ``"tableau"``.
``_query_stamps(names)``
    the current version-stamp vector for a participant tuple.
``_query_scan(target, bindings, route, shards)``
    execute one leaf: the ``[target]``-window, restricted to the
    equality ``bindings`` via the tableau's per-attribute value
    indexes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple as PyTuple

from repro.data.relations import RelationInstance
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.planner import (
    JoinPlan,
    LeafPlan,
    PhysicalPlan,
    ProjectPlan,
    normalize,
    plan as build_plan,
    validate,
)

#: default LRU bounds (per engine, i.e. per service)
PLAN_CACHE_SIZE = 256
RESULT_CACHE_SIZE = 256


@dataclass
class QueryExplain:
    """What one execution did: routing, pushed filters, cache traffic.

    ``render()`` is the operator-facing form the CLI ``explain`` op
    prints; tests assert on the structured fields.
    """

    query: str
    normalized: str
    leaves: PyTuple[LeafPlan, ...]
    participants: PyTuple[str, ...]
    stamps: PyTuple[int, ...]
    plan_cache_hit: bool
    result_cache_hit: bool
    rows: int
    result: Optional[RelationInstance] = field(default=None, repr=False)

    def render(self) -> str:
        lines = [
            f"query:      {self.query}",
            f"normalized: {self.normalized}",
        ]
        for leaf in self.leaves:
            lines.append(f"  scan {leaf.render()}")
        stamped = ", ".join(
            f"{name}@{stamp}" for name, stamp in zip(self.participants, self.stamps)
        )
        lines.append(f"participants: {stamped if stamped else '(none)'}")
        lines.append(
            "cache: plan "
            + ("hit" if self.plan_cache_hit else "miss")
            + ", result "
            + ("hit" if self.result_cache_hit else "miss")
        )
        lines.append(f"rows: {self.rows}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class QueryEngine:
    """Plan and execute queries against one service instance."""

    def __init__(
        self,
        service,
        plan_cache_size: int = PLAN_CACHE_SIZE,
        result_cache_size: int = RESULT_CACHE_SIZE,
    ):
        self.service = service
        # values carry the schema epoch they were computed under:
        # (epoch, plan) / (epoch, stamps, result)
        self._plan_cache: "OrderedDict[Query, PyTuple[int, PhysicalPlan]]" = (
            OrderedDict()
        )
        self._result_cache: "OrderedDict[Query, PyTuple[int, PyTuple[int, ...], RelationInstance]]" = (
            OrderedDict()
        )
        self._plan_cache_size = int(plan_cache_size)
        self._result_cache_size = int(result_cache_size)

    def _epoch(self) -> int:
        return getattr(self.service, "schema_version", 0)

    # -- caches -----------------------------------------------------------------

    def _cached(self, cache: OrderedDict, key, size: int):
        try:
            value = cache[key]
        except KeyError:
            return None
        cache.move_to_end(key)
        return value

    def _store(self, cache: OrderedDict, key, value, size: int) -> None:
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > size:
            cache.popitem(last=False)

    def invalidate(self) -> None:
        """Drop both caches (schema-level changes, rollback recovery)."""
        self._plan_cache.clear()
        self._result_cache.clear()

    # -- pipeline ---------------------------------------------------------------

    def _plan_for(self, q: Query, epoch: int) -> PyTuple[PhysicalPlan, bool]:
        norm = normalize(q)
        cached = self._cached(self._plan_cache, norm, self._plan_cache_size)
        if cached is not None and cached[0] == epoch:
            return cached[1], True
        physical = build_plan(norm, self.service._query_route)
        self._store(
            self._plan_cache, norm, (epoch, physical), self._plan_cache_size
        )
        return physical, False

    def _execute(self, node) -> RelationInstance:
        if isinstance(node, LeafPlan):
            rel = self.service._query_scan(
                node.target, node.bindings, node.route, node.shards
            )
            if node.residual is not None:
                rel = rel.select(node.residual.matches)
            return rel
        if isinstance(node, ProjectPlan):
            return self._execute(node.child).project(node.attrs)
        if isinstance(node, JoinPlan):
            return self._execute(node.left).natural_join(self._execute(node.right))
        raise TypeError(f"not a plan node: {node!r}")

    def run(self, query, explain: bool = False):
        """Execute ``query`` (text or AST); returns the
        :class:`RelationInstance`, or a :class:`QueryExplain` when
        ``explain=True``."""
        q = parse_query(query)
        validate(q, self.service.schema.universe)
        stats = self.service.stats
        stats.queries += 1
        epoch = self._epoch()
        physical, plan_hit = self._plan_for(q, epoch)
        if plan_hit:
            stats.query_plan_cache_hits += 1
        stats.query_pushed_scans += sum(
            1 for leaf in physical.leaves if leaf.bindings
        )
        stamps = tuple(self.service._query_stamps(physical.participants))
        cached = self._cached(
            self._result_cache, physical.normalized, self._result_cache_size
        )
        result_hit = (
            cached is not None and cached[0] == epoch and cached[1] == stamps
        )
        if result_hit:
            stats.query_result_cache_hits += 1
            result = cached[2]
        else:
            # reads never move a stamp, so the vector read before
            # execution is the one the result belongs to
            result = self._execute(physical.root)
            self._store(
                self._result_cache,
                physical.normalized,
                (epoch, stamps, result),
                self._result_cache_size,
            )
        if not explain:
            return result
        return QueryExplain(
            query=str(q),
            normalized=str(physical.normalized),
            leaves=physical.leaves,
            participants=physical.participants,
            stamps=stamps,
            plan_cache_hit=plan_hit,
            result_cache_hit=result_hit,
            rows=len(result),
            result=result,
        )

    def explain(self, query) -> QueryExplain:
        return self.run(query, explain=True)
