"""Windows over the shards, compiled into unions of FD-lookup joins.

On an independent schema every row of the chased representative
instance is one stored tuple extended through the embedded covers
(Sagiv, "Evaluation of queries in independent database schemes", JACM
1991): each extension step is a lookup ``t[Y] ↦ Z`` in the ``_FDIndex``
a shard already keeps for its cover FD ``Y→Z``.  The ``X``-window is
therefore the union, over the **starts** — the schemes ``Rs`` with
``X ⊆ cl(Rs)``, a row of no other scheme ever becoming ``X``-total — of
the ``X``-projections of their extended stored tuples.
:func:`compile_plan` turns a target into that union once per schema
version; :func:`run_plan` evaluates it over shard state only.

* **Lookups.**  A start extends ``Rs`` through the cover FDs that can
  reach ``X`` (found backwards from ``X − Rs``), in an order where every
  lookup's left side is available before it runs.  When every needed
  attribute has one supplier the start is *strict*: rows are flat value
  lists, and a lookup miss drops the row at once.  An attribute that
  several FDs can supply makes the start run its lookups to a fixpoint
  instead, so a miss on one supplier can be made up by another.
* **Pruning.**  A start ``Rs`` is dropped in favour of starts that stay
  kept when some attribute ``B ∉ Rs`` is both necessary —
  ``X ⊄ cl_{H−B}(Rs)``, where ``H − B`` leaves out every cover FD
  supplying ``B``, so each derivation of ``X`` from ``Rs`` looks ``B``
  up — and decisive: every cover FD ``Y→Z`` with ``B ∈ Z`` usable from
  ``Rs`` has ``X ⊆ cl(Y ∪ Z)``.  Sound because the chased tableau
  satisfies the FDs: a row that looked ``B`` up at ``u ∈ rj`` agrees
  with ``u``'s own row on ``cl(Y ∪ Z) ⊇ X``, and ``u``'s row is produced
  by the kept start ``Rj``.  On a chain this leaves one start per
  target (``[A2 A5]`` reads ``R2`` forward through ``R3`` and ``R4``).
* **Filters.**  Equality bindings pick the start rows: a bound
  attribute of ``Rs`` reads the smallest value bucket; a bound
  attribute a lookup supplies is followed backward — value bucket of
  the supplying shard, the values of one left-side attribute, again —
  until it reaches ``Rs``, so ``select(A5=v, [A2 A5])`` probes one
  bucket per link and never scans ``R2``.  Extended rows are checked
  against every binding at the end, so the backward step only ever
  narrows a superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set
from typing import Tuple as PyTuple

from repro.deps.fdset import FDSet
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema


@dataclass(frozen=True)
class Lookup:
    """One probe ``t[lhs] ↦ rhs`` into the index ``shard`` keeps on the
    ``pos``-th FD of its cover (``rhs`` is the FD's effective right
    side, in the index's value order)."""

    shard: str
    pos: int
    lhs: PyTuple[str, ...]
    rhs: PyTuple[str, ...]


#: a backward route to the start for one attribute: ``None`` when the
#: start stores it, else one ``(lookup, lhs attribute, route)`` per
#: lookup that may supply it
Route = Optional[PyTuple[PyTuple[Lookup, str, "Route"], ...]]
_NO_ROUTE = object()


@dataclass(frozen=True, eq=False)
class StartPlan:
    """One start scheme and the lookups extending its rows."""

    shard: str
    #: the start scheme's attributes, in its tuples' value order
    attrs: PyTuple[str, ...]
    #: lookups in an order where each one's left side is available
    lookups: PyTuple[Lookup, ...]
    #: every needed attribute has exactly one supplying lookup
    strict: bool
    #: strict starts: per lookup, the row slots of its key and the
    #: positions of the index values it appends to the row
    keys: PyTuple[PyTuple[int, ...], ...]
    takes: PyTuple[PyTuple[int, ...], ...]
    #: strict starts: attribute → row slot
    slots: Mapping[str, int]
    #: target attribute outside the start → its backward route
    routes: Mapping[str, Route]
    #: strict starts: an extended row's target values, in natural order
    project: Callable[[list], tuple]


@dataclass(frozen=True)
class WindowPlan:
    """The compiled ``[target]``-window: a union over ``starts``."""

    target: AttributeSet
    starts: PyTuple[StartPlan, ...]
    #: every shard the plan reads (starts and lookups), sorted: the
    #: shards that can block it, lock it and stamp its cached results
    shards: PyTuple[str, ...]
    #: answered by projecting shards that store the target
    local: bool


def _closure(attrs: Iterable[str], lookups: Sequence[Lookup]) -> Set[str]:
    got = set(attrs)
    grew = True
    while grew:
        grew = False
        for lookup in lookups:
            if not got.issuperset(lookup.rhs) and got.issuperset(lookup.lhs):
                got.update(lookup.rhs)
                grew = True
    return got


def compile_plan(
    target: AttributeSet, schema: DatabaseSchema, covers: Mapping[str, FDSet]
) -> WindowPlan:
    """The union-of-lookup-joins plan of ``[target]`` over ``schema``,
    whose scheme ``name`` keeps one FD index per FD of ``covers[name]``
    (see the module docstring)."""
    x = set(target.names)
    lookups = [
        Lookup(name, pos, fd.lhs.names, fd.effective_rhs.names)
        for name in schema.names
        for pos, fd in enumerate(covers[name])
        if fd.effective_rhs
    ]
    starts: Dict[str, PyTuple[PyTuple[str, ...], Set[str]]] = {}
    for scheme in schema:
        closure = _closure(scheme.attributes.names, lookups)
        if x <= closure:
            starts[scheme.name] = (scheme.attributes.names, closure)
    kept = list(starts)

    def prunable(name: str) -> bool:
        attrs, closure = starts[name]
        for b in sorted(closure.difference(attrs)):
            if x <= _closure(attrs, [lk for lk in lookups if b not in lk.rhs]):
                continue  # B is not necessary
            if all(
                lk.shard in kept and x <= _closure(lk.lhs + lk.rhs, lookups)
                for lk in lookups
                if b in lk.rhs and closure.issuperset(lk.lhs)
            ):
                return True
        return False

    changed = True
    while changed:
        changed = False
        for name in list(kept):
            if not x <= set(starts[name][0]) and prunable(name):
                kept.remove(name)
                changed = True
    plans = tuple(
        _start_plan(name, *starts[name], target.names, lookups) for name in kept
    )
    shards = {p.shard for p in plans}
    shards.update(lk.shard for p in plans for lk in p.lookups)
    local = all(not p.lookups for p in plans)
    return WindowPlan(target, plans, tuple(sorted(shards)), local)


def _start_plan(
    name: str,
    attrs: PyTuple[str, ...],
    closure: Set[str],
    names: PyTuple[str, ...],
    lookups: Sequence[Lookup],
) -> StartPlan:
    x, own = set(names), set(attrs)
    usable = [lk for lk in lookups if closure.issuperset(lk.lhs)]
    # backward from X: the lookups that can supply a needed attribute
    need = x - own
    relevant: List[Lookup] = []
    grew = True
    while grew:
        grew = False
        for lk in usable:
            if lk not in relevant and need.intersection(lk.rhs):
                relevant.append(lk)
                need.update(a for a in lk.lhs if a not in own)
                grew = True
    # forward: each lookup once its left side is available
    order: List[Lookup] = []
    have = set(own)
    for _ in range(len(relevant)):
        ready = [
            lk for lk in relevant if lk not in order and have.issuperset(lk.lhs)
        ]
        order += ready
        for lk in ready:
            have.update(lk.rhs)
    strict = all(sum(a in lk.rhs for lk in order) == 1 for a in need)
    slots = {a: i for i, a in enumerate(attrs)}
    keys, takes = [], []
    for lk in order if strict else ():
        # each needed attribute has one supplier, earlier in the order
        keys.append(tuple(slots[a] for a in lk.lhs))
        take = []
        for i, a in enumerate(lk.rhs):
            if a in need and a not in slots:
                slots[a] = len(slots)
                take.append(i)
        takes.append(tuple(take))

    def route(a: str, path: frozenset):
        if a in own:
            return None
        alts = []
        for lk in order:
            if a not in lk.rhs or path.intersection(lk.lhs):
                continue
            # prefer a left-side attribute the start stores
            for d in sorted(lk.lhs, key=lambda d: d not in own):
                sub = route(d, path | {a})
                if sub is not _NO_ROUTE:
                    alts.append((lk, d, sub))
                    break
            else:
                return _NO_ROUTE
        return tuple(alts) if alts else _NO_ROUTE

    routes = {}
    for a in sorted(x - own):
        found = route(a, frozenset())
        if found is not _NO_ROUTE:
            routes[a] = found
    cols = [slots[a] for a in names] if strict else []
    project = itemgetter(*cols) if len(cols) > 1 else lambda v: tuple([v[i] for i in cols])
    return StartPlan(
        name, attrs, tuple(order), strict, tuple(keys), tuple(takes), slots,
        routes, project,
    )


# -- execution --------------------------------------------------------------------


def _backward(shards, start: StartPlan, attr: str, values, route: Route) -> list:
    """Start tuples that may extend to ``attr ∈ values`` (a superset)."""
    if route is None:
        shard = shards[start.shard]
        return [t for v in values for t in shard.bucket(attr, v)]
    found = []
    for lookup, d, sub in route:
        shard = shards[lookup.shard]
        col = shard.scheme.attributes.names.index(d)
        keys = {t.values[col] for v in values for t in shard.bucket(attr, v)}
        if keys:
            found += _backward(shards, start, d, keys, sub)
    return found


def _start_rows(shards, start: StartPlan, bindings) -> Iterable:
    shard = shards[start.shard]
    own = [(a, v) for a, v in bindings if a in start.attrs]
    if own:
        return shard.matching(own)
    for a, v in bindings:
        if a in start.routes:
            found = _backward(shards, start, a, (v,), start.routes[a])
            return dict.fromkeys(found)  # a start tuple may be found twice
    return shard.rows()


def run_plan(
    plan: WindowPlan,
    shards: Mapping[str, object],
    bindings: Sequence[PyTuple[str, object]] = (),
) -> List[tuple]:
    """The ``plan.target``-values (natural order, possibly repeated) of
    every extended start tuple matching each ``(attribute, value)``
    binding, read from ``shards`` (name → shard record)."""
    names = plan.target.names
    out: List[tuple] = []
    for start in plan.starts:
        rows = _start_rows(shards, start, bindings)
        maps = [
            shards[lk.shard].checker.fd_map(lk.shard, lk.pos)
            for lk in start.lookups
        ]
        if not start.strict:
            out += _fixpoint_rows(start, maps, rows, names, bindings)
            continue
        steps, project = list(zip(maps, start.keys, start.takes)), start.project
        checks = [(start.slots[a], v) for a, v in bindings]
        for t in rows:
            vals = list(t.values)
            for index, key, take in steps:
                entry = index.get(tuple([vals[i] for i in key]))
                if entry is None:
                    break
                found = entry[0]
                vals += [found[i] for i in take]
            else:
                if all(vals[i] == v for i, v in checks):
                    out.append(project(vals))
    return out


def _fixpoint_rows(start: StartPlan, maps, rows, names, bindings) -> List[tuple]:
    """Rows of a start whose attributes have alternative suppliers:
    each lookup runs once its left side is known, until none can."""
    out = []
    steps = list(zip(maps, start.lookups))
    for t in rows:
        known = dict(zip(start.attrs, t.values))
        waiting = steps
        while True:
            able = [all(a in known for a in lk.lhs) for _, lk in waiting]
            if not any(able):
                break
            ready = [s for s, ok in zip(waiting, able) if ok]
            waiting = [s for s, ok in zip(waiting, able) if not ok]
            for index, lk in ready:
                entry = index.get(tuple([known[a] for a in lk.lhs]))
                if entry is not None:
                    for a, v in zip(lk.rhs, entry[0]):
                        known.setdefault(a, v)
        if all(a in known for a in names) and all(
            known[a] == v for a, v in bindings
        ):
            out.append(tuple([known[a] for a in names]))
    return out
