"""Query validation, normalization, and physical planning.

The pipeline is ``template → validate → normalize → canonical → plan``,
run once per query shape and schema epoch (the engine caches it; see
:mod:`repro.query.engine`).  A template's comparison values are
:class:`~repro.query.ast.Param` slots, so nothing here sees a constant.

1. **Normalize** (:func:`normalize`) rewrites the tree into a canonical
   form.  The rules are the classic ones — merge stacked selections,
   push selections through projections and into the sides of joins,
   collapse stacked projections, drop identity projections, prune join
   inputs down to the columns the rest of the query can see, and order
   commutative join operands and conjunct lists canonically.  Because
   every predicate is a conjunction of *single-attribute* comparisons,
   pushdown is total: in a normalized tree every ``Select`` sits
   directly on a ``Scan``.  :func:`canonical` then renumbers the slots
   in render order, so spellings that differ only in conjunct order
   share one template.

   One rewrite is deliberately absent: a projection never changes a
   scan's target.  ``project(Y, [X])`` asks for the ``Y``-values of
   ``X``-total facts; ``[Y]`` asks for all ``Y``-total facts — a
   strictly larger window whenever ``Y ⊂ X`` (fewer totality
   requirements).  Narrowing the scan would silently widen the answer.

2. **Route** (:func:`plan`): each leaf becomes a :class:`LeafPlan`
   carrying the scan target, the equality bindings the executor pushes
   into the tableau's per-attribute value indexes, the residual
   (non-equality) filter — both over slots — and the routing decision
   the service made for that target: ``shards`` on the sharded
   service, naming the shards the target's window plan reads,
   ``tableau`` on the unsharded service.

The physical plan records the sorted union of participating shard
names; together with the per-shard version stamps it forms the
result-cache key (see :mod:`repro.query.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple as PyTuple, Union

from repro.exceptions import QueryError
from repro.query.ast import (
    Comparison,
    Conjunction,
    Join,
    Param,
    Project,
    Query,
    Scan,
    Select,
    conjuncts,
    make_predicate,
)
from repro.schema.attributes import AttributeSet

# ---------------------------------------------------------------------------
# validation


def _contained(want: AttributeSet, have: AttributeSet, message: str) -> None:
    if not want.issubset(have):
        named, extra, known = (" ".join(s.names) for s in (want, want - have, have))
        raise QueryError(message.format(want=named, extra=extra, have=known))


def validate(q: Query, universe: AttributeSet) -> None:
    """Reject trees that are structurally unanswerable: a scan outside
    the universe, a projection not contained in its input, a predicate
    over attributes its input does not produce."""
    if isinstance(q, Scan):
        _contained(q.attrs, universe,
                   "scan [{want}] uses attributes outside the universe: {extra}")
    elif isinstance(q, Select):
        validate(q.child, universe)
        _contained(AttributeSet([c.attr for c in conjuncts(q.pred)]),
                   q.child.attributes,
                   "selection filters on {extra} but its input only produces {have}")
    elif isinstance(q, Project):
        validate(q.child, universe)
        _contained(q.attrs, q.child.attributes,
                   "projection keeps {extra} but its input only produces {have}")
    elif isinstance(q, Join):
        validate(q.left, universe)
        validate(q.right, universe)
    else:
        raise QueryError(f"not a query node: {q!r}")


# ---------------------------------------------------------------------------
# normalization


def _push_select(child: Query, parts) -> Query:
    """Push a conjunct list into an already-normalized subtree."""
    if isinstance(child, Select):
        return _push_select(child.child, tuple(parts) + conjuncts(child.pred))
    if isinstance(child, Project):
        return Project(_push_select(child.child, parts), child.attrs)
    if isinstance(child, Join):
        left_parts = [c for c in parts if c.attr in child.left.attributes]
        right_parts = [c for c in parts if c.attr in child.right.attributes]
        left = _push_select(child.left, left_parts) if left_parts else child.left
        right = _push_select(child.right, right_parts) if right_parts else child.right
        return _order_join(left, right)
    # Scan: the floor — the selection lands here.
    return Select(child, make_predicate(parts))


def _order_join(left: Query, right: Query) -> Join:
    """Commutative canonical order so ``a * b`` and ``b * a`` share a
    plan-cache entry."""
    if right.render() < left.render():
        left, right = right, left
    return Join(left, right)


def _prune_join_side(side: Query, keep: AttributeSet) -> Query:
    """Wrap a join input in a projection when downstream only needs
    ``keep`` of its columns (never touching scan targets)."""
    if side.attributes.issubset(keep):
        return side
    needed = side.attributes & keep
    if isinstance(side, Project):
        return _apply_project(side.child, needed)
    return Project(side, needed)


def _apply_project(child: Query, attrs: AttributeSet) -> Query:
    """Place a projection over a normalized subtree, collapsing stacked
    projections, dropping identities, and pruning join inputs."""
    if attrs == child.attributes:
        return child
    if isinstance(child, Project):
        return _apply_project(child.child, attrs)
    if isinstance(child, Join):
        common = child.left.attributes & child.right.attributes
        keep = attrs | common
        left = _prune_join_side(child.left, keep)
        right = _prune_join_side(child.right, keep)
        pruned = _order_join(left, right)
        if pruned.attributes == attrs:
            return pruned
        return Project(pruned, attrs)
    return Project(child, attrs)


def normalize(q: Query) -> Query:
    """The canonical form of a tree (idempotent)."""
    if isinstance(q, Scan):
        return q
    if isinstance(q, Select):
        return _push_select(normalize(q.child), conjuncts(q.pred))
    if isinstance(q, Project):
        return _apply_project(normalize(q.child), q.attrs)
    if isinstance(q, Join):
        return _order_join(normalize(q.left), normalize(q.right))
    raise QueryError(f"not a query node: {q!r}")


def substitute(node, value: Callable[[Any], Any]):
    """A copy of a query tree or predicate whose comparison values are
    ``value(v)``; conjunct order is kept as it is."""
    if isinstance(node, Comparison):
        return Comparison(node.attr, node.op, value(node.value))
    if isinstance(node, Conjunction):
        return Conjunction(tuple([substitute(c, value) for c in node.parts]))
    if isinstance(node, Select):
        return Select(substitute(node.child, value), substitute(node.pred, value))
    if isinstance(node, Project):
        return Project(substitute(node.child, value), node.attrs)
    if isinstance(node, Join):
        return Join(substitute(node.left, value), substitute(node.right, value))
    return node


def canonical(template: Query) -> PyTuple[Query, PyTuple[int, ...]]:
    """``(canon, order)``: the normalized template with its slots
    renumbered in render order (a slot pushed into both sides of a join
    keeps one number), and for each new slot the old one it reads."""
    norm = normalize(template)
    renumber = {}
    for c in norm.comparisons():
        renumber.setdefault(c.value.index, len(renumber))
    canon = substitute(norm, lambda p: Param(renumber[p.index]))
    return canon, tuple(renumber)


# ---------------------------------------------------------------------------
# physical plan


@dataclass(frozen=True)
class LeafPlan:
    """One scan leaf, with its pushed filters and routing decision.

    ``bindings`` are the equality conjuncts the executor answers from
    the tableau's per-attribute value indexes instead of scanning the
    full window; ``residual`` is whatever predicate remains (orderings,
    ``!=``, or a second equality on a bound attribute, which keeps the
    rows only when both constants are equal).  In a plan both hold
    slots; :meth:`bind` puts a read's constants in.  ``route`` is
    ``"shards"`` or ``"tableau"``; ``shards`` names the shards this
    leaf reads (``("*",)`` on unsharded services).
    """

    target: AttributeSet
    bindings: PyTuple[PyTuple[str, Any], ...]
    residual: Optional[Union[Comparison, Any]]
    route: str
    shards: PyTuple[str, ...]

    def bind(self, constants) -> "LeafPlan":
        """This leaf with each slot replaced by its constant."""
        value = lambda p: constants[p.index]  # noqa: E731
        residual = None if self.residual is None else substitute(self.residual, value)
        bindings = tuple([(a, value(p)) for a, p in self.bindings])
        return LeafPlan(self.target, bindings, residual, self.route, self.shards)

    def render(self) -> str:
        bits = [f"[{' '.join(self.target.names)}] via {self.route}"]
        if self.route != "tableau":
            bits.append(f"({', '.join(self.shards)})")
        if self.bindings:
            pushed = " & ".join(f"{a}={v!r}" for a, v in self.bindings)
            bits.append(f"pushed: {pushed}")
        if self.residual is not None:
            bits.append(f"residual: {self.residual.render()}")
        return " ".join(bits)


@dataclass(frozen=True)
class ProjectPlan:
    child: "PlanNode"
    attrs: AttributeSet


@dataclass(frozen=True)
class JoinPlan:
    left: "PlanNode"
    right: "PlanNode"


PlanNode = Union[LeafPlan, ProjectPlan, JoinPlan]


@dataclass(frozen=True)
class PhysicalPlan:
    """An executable plan: the canonical template it came from, the
    operator tree with routed leaves, and the sorted union of
    participating shard names (the stamp vector the result cache keys
    on)."""

    normalized: Query
    root: PlanNode
    leaves: PyTuple[LeafPlan, ...]
    participants: PyTuple[str, ...]


def _split_leaf(q: Query) -> PyTuple[Scan, PyTuple[PyTuple[str, Any], ...], Any]:
    """``(scan, bindings, residual)`` for a normalized leaf (a ``Scan``
    or a ``Select`` directly over one)."""
    if isinstance(q, Scan):
        return q, (), None
    scan = q.child
    bound = {}
    residual = []
    for c in conjuncts(q.pred):
        if c.op == "=" and c.attr not in bound:
            bound[c.attr] = c.value
        else:
            residual.append(c)
    bindings = tuple(sorted(bound.items(), key=lambda kv: kv[0]))
    res_pred = make_predicate(residual) if residual else None
    return scan, bindings, res_pred


def plan(q: Query, route_fn) -> PhysicalPlan:
    """Build the physical plan for a *normalized* template.

    ``route_fn(target) -> (route, shard_names)`` is the service's
    routing hook: it names the shards of the target's window plan
    (sharded services) or pins everything to the one tableau
    (unsharded).
    """
    leaves = []

    def build(node: Query) -> PlanNode:
        if isinstance(node, (Scan, Select)):
            scan, bindings, residual = _split_leaf(node)
            route, shards = route_fn(scan.attrs)
            leaf = LeafPlan(scan.attrs, bindings, residual, route, tuple(shards))
            leaves.append(leaf)
            return leaf
        if isinstance(node, Project):
            return ProjectPlan(build(node.child), node.attrs)
        if isinstance(node, Join):
            return JoinPlan(build(node.left), build(node.right))
        raise QueryError(f"not a normalized query node: {node!r}")

    root = build(q)
    participants = tuple(sorted({name for leaf in leaves for name in leaf.shards}))
    return PhysicalPlan(q, root, tuple(leaves), participants)
