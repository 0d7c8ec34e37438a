"""The query executor: prepared reads with plan and result caching.

:class:`QueryEngine` drives the pipeline over any window-query service
(``WeakInstanceService``, ``ShardedWeakInstanceService``, …).  A plan
depends on a query's shape, never on its constants (on an independent
schema each window compiles once per schema version to a fixed union
of FD-lookup joins, :mod:`repro.weak.plans`), so the work splits::

    once per shape:  parse → validate → normalize → plan
    per read:        shape_of → bind constants → execute (cached)

* The **plan cache** (``_plan_cache``) is keyed by the *shape*, the
  text with each comparison value replaced by a slot
  (:func:`~repro.query.parser.shape_of`).  An entry holds the plan of
  the normalized template, whose bindings and residuals hold
  :class:`~repro.query.ast.Param` slots, and where each of the text's
  constants goes; spellings with one template share the plan.  A text
  is cached only when the parser read the constants the shape did, so
  malformed text always raises from the parser.  Builder queries go
  through ``render()`` into the same path.
* The **result cache** is keyed by the template and the bound
  constants, and holds the version stamps of the plan's participating
  shards: a repeat query is answered from it iff every participant
  reports the stamp it had.  Stamps are monotone, so a stale hit is
  impossible, and a write to a shard outside the plan keeps the entry.

Entries of both carry the service's **schema epoch**
(``schema_version``, bumped by every applied evolution; 0 on services
without one) and are honored only under it.  The caches tolerate
concurrent readers: the server runs reads of disjoint shards in
parallel against one engine.  The engine drives the service through
three duck-typed hooks: ``_query_route(target)`` gives ``(route,
shard_names)`` for a scan target — ``"shards"`` with the shards its
window plan reads, or ``"tableau"``; ``_query_stamps(names)`` gives the
participants' version stamps and raises when one cannot be read (asked
on every run, cached or not); ``_query_scan(target, bindings, route,
shards)`` runs one leaf, the ``[target]``-window restricted to the
equality ``bindings``.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple as PyTuple, Union

from repro.data.relations import RelationInstance
from repro.query import parser
from repro.query.ast import Query
from repro.query.planner import (
    JoinPlan,
    LeafPlan,
    PhysicalPlan,
    ProjectPlan,
    canonical,
    plan as build_plan,
    substitute,
    validate,
)

#: default LRU bounds (per engine, i.e. per service)
PLAN_CACHE_SIZE = 512
RESULT_CACHE_SIZE = 256


class Prepared(NamedTuple):
    """One query shape, prepared under one schema epoch: the template's
    rendering (the result-cache key), its plan, and for each plan slot
    ``i`` the index ``order[i]`` of the text constant it reads."""

    epoch: int
    key: str
    plan: PhysicalPlan
    order: PyTuple[int, ...]


class BoundQuery(NamedTuple):
    """A read ready to run: the query as given (text or AST), its
    shape's entry, and its constants in plan slot order."""

    query: Union[str, Query]
    prepared: Prepared
    constants: tuple
    plan_hit: bool


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
        lines = [f"query:      {self.query}", f"normalized: {self.normalized}"]
        for leaf in self.leaves:
            lines.append(f"  scan {leaf.render()}")
        stamped = ", ".join(
            f"{name}@{stamp}" for name, stamp in zip(self.participants, self.stamps)
        )
        lines.append(f"participants: {stamped if stamped else '(none)'}")
        hit = {True: "hit", False: "miss"}
        lines.append(f"cache: plan {hit[self.plan_cache_hit]}, "
                     f"result {hit[self.result_cache_hit]}")
        lines.append(f"rows: {self.rows}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


# a concurrent reader may evict or empty under either helper
def _cached(cache: OrderedDict, key):
    value = cache.get(key)
    if value is not None:
        with suppress(KeyError):
            cache.move_to_end(key)
    return value


def _store(cache: OrderedDict, key, value, size: int) -> None:
    cache[key] = value
    while len(cache) > size:
        with suppress(KeyError):
            cache.popitem(last=False)


class QueryEngine:
    """Plan and execute queries against one service instance."""

    def __init__(
        self,
        service,
        plan_cache_size: int = PLAN_CACHE_SIZE,
        result_cache_size: int = RESULT_CACHE_SIZE,
    ):
        self.service = service
        self._plan_cache: "OrderedDict[str, Prepared]" = OrderedDict()
        #: (template key, constants) -> (epoch, stamps, result)
        self._result_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: (epoch, template key) -> the plan of a cached shape, for other
        #: spellings to reuse; an entry lives while a shape holds it
        self._templates: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
        self._plan_cache_size = int(plan_cache_size)
        self._result_cache_size = int(result_cache_size)

    def _epoch(self) -> int:
        return getattr(self.service, "schema_version", 0)

    def invalidate(self) -> None:
        """Drop both caches (schema-level changes, rollback recovery)."""
        self._plan_cache.clear()
        self._result_cache.clear()
        self._templates.clear()

    # -- preparing --------------------------------------------------------------

    def bind(self, query, prepare: bool = True) -> Optional[BoundQuery]:
        """``query`` (text or AST) bound to its shape's entry.  On a miss
        the shape is prepared — the text parsed once, validated,
        normalized and planned — or, with ``prepare=False``, ``None``
        is returned.  A builder query binds its own constants: a value
        need not read back from ``render()`` as its own type."""
        text, values = query, None
        if isinstance(query, Query):
            text = query.render()
            values = tuple([c.value for c in query.comparisons()])
        shape, constants = parser.shape_of(text)
        prepared = _cached(self._plan_cache, shape)
        plan_hit = prepared is not None and prepared.epoch == self._epoch()
        if not plan_hit:
            if not prepare:
                return None
            template, parsed = parser.parse_query(text, slots=True)
            validate(template, self.service.schema.universe)
            canon, order = canonical(template)
            epoch, key = self._epoch(), canon.render()
            physical = self._templates.get((epoch, key))
            plan_hit = physical is not None
            if physical is None:
                physical = build_plan(canon, self.service._query_route)
                self._templates[(epoch, key)] = physical
            prepared = Prepared(epoch, key, physical, order)
            if parsed == constants:
                _store(self._plan_cache, shape, prepared, self._plan_cache_size)
            constants = parsed
        if values is not None:
            constants = values
        bound = tuple([constants[i] for i in prepared.order])
        return BoundQuery(query, prepared, bound, plan_hit)

    # -- executing --------------------------------------------------------------

    def _execute(self, node, constants) -> RelationInstance:
        if isinstance(node, LeafPlan):
            bindings = tuple([(a, constants[p.index]) for a, p in node.bindings])
            rel = self.service._query_scan(
                node.target, bindings, node.route, node.shards
            )
            if node.residual is not None:
                rel = rel.select(node.bind(constants).residual.matches)
            return rel
        if isinstance(node, ProjectPlan):
            return self._execute(node.child, constants).project(node.attrs)
        if isinstance(node, JoinPlan):
            return self._execute(node.left, constants).natural_join(
                self._execute(node.right, constants)
            )
        raise TypeError(f"not a plan node: {node!r}")

    def run(self, query, explain: bool = False):
        """Execute ``query`` (text, AST, or a :class:`BoundQuery` from
        :meth:`bind`); returns the :class:`RelationInstance`, or a
        :class:`QueryExplain` when ``explain=True``."""
        bound = query if isinstance(query, BoundQuery) else self.bind(query)
        epoch = self._epoch()
        if bound.prepared.epoch != epoch:  # an evolution since binding
            bound = self.bind(bound.query)
        query, prepared, constants, plan_hit = bound
        physical = prepared.plan
        stats = self.service.stats
        stats.queries += 1
        if plan_hit:
            stats.query_plan_cache_hits += 1
        stats.query_pushed_scans += sum(1 for leaf in physical.leaves if leaf.bindings)
        stamps = tuple(self.service._query_stamps(physical.participants))
        key = (prepared.key, constants)
        cached = _cached(self._result_cache, key)
        result_hit = (
            cached is not None and cached[0] == epoch and cached[1] == stamps
        )
        if result_hit:
            stats.query_result_cache_hits += 1
            result = cached[2]
        else:
            # reads never move a stamp, so the vector read before
            # execution is the one the result belongs to
            result = self._execute(physical.root, constants)
            _store(
                self._result_cache,
                key,
                (epoch, stamps, result),
                self._result_cache_size,
            )
        if not explain:
            return result
        return QueryExplain(
            query=str(parser.parse_query(query)),
            normalized=str(
                substitute(physical.normalized, lambda p: constants[p.index])
            ),
            leaves=tuple(leaf.bind(constants) for leaf in physical.leaves),
            participants=physical.participants,
            stamps=stamps,
            plan_cache_hit=plan_hit,
            result_cache_hit=result_hit,
            rows=len(result),
            result=result,
        )

    def explain(self, query) -> QueryExplain:
        return self.run(query, explain=True)
