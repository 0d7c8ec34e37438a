"""The relational query AST.

Queries over a weak-instance service are small immutable trees of four
node kinds:

* :class:`Scan` — the ``[X]``-window: every derivable ``X``-total fact
  of the current state (the paper's query primitive, and the leaf all
  other operators consume).
* :class:`Select` — ``σ_pred``: keep the rows matching a predicate.
  Predicates are conjunctions of per-attribute comparisons against
  constants (:class:`Comparison` / :class:`Conjunction`).
* :class:`Project` — ``π_Y``: keep a subset of the columns.  Note that
  ``project(Y, [X])`` is *not* ``[Y]``: the former asks for the
  ``Y``-values of ``X``-total facts, the latter for all ``Y``-total
  facts — a strictly larger set whenever ``Y ⊂ X``.  The planner
  therefore never rewrites one into the other.
* :class:`Join` — the natural join of two subqueries on their shared
  attributes (executed as a hash join).

Nodes are frozen and hashable.  With its constants replaced by
:class:`Param` slots, a normalized tree is the template
:class:`repro.query.engine.QueryEngine` prepares once per query shape.
Two construction styles produce identical trees — the fluent builder::

    scan("C H R").select(C="CS101").project("H R")

and the compact text form of :mod:`repro.query.parser`::

    project(H R, select(C=CS101, [C H R]))

Rendering (:meth:`Query.render` / ``str``) emits the text form and
round-trips through the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator, Tuple as PyTuple

from repro.exceptions import QueryError
from repro.schema.attributes import AttributeSet, AttrsLike

#: comparison operators, in the text form the parser accepts
OPERATORS = ("=", "!=", "<=", ">=", "<", ">")

_BARE_VALUE = re.compile(r"[A-Za-z_][A-Za-z0-9_.:+/-]*")


@dataclass(frozen=True)
class Param:
    """A template's slot for the query text's ``index``-th constant."""

    index: int


def render_value(value: Any) -> str:
    """A value token the parser reads back as the same value: bare for
    integers and identifier-like strings, single-quoted otherwise (a
    template's :class:`Param` renders as ``?index``)."""
    if isinstance(value, Param):
        return f"?{value.index}"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    text = str(value)
    if _BARE_VALUE.fullmatch(text) and not text.lstrip("-").isdigit():
        return text
    escaped = text.replace("'", "''")
    return f"'{escaped}'"


@dataclass(frozen=True)
class Comparison:
    """``attr OP constant`` over one attribute of the input rows.

    ``=``/``!=`` use plain equality; the orderings compare with
    Python's operators and treat a cross-type comparison (``TypeError``)
    as *false* rather than an error, so a mixed int/string column
    filters predictably.
    """

    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise QueryError(
                f"unknown comparison operator {self.op!r} (use one of "
                f"{', '.join(OPERATORS)})"
            )

    def matches(self, t) -> bool:
        v = t.value(self.attr)
        op = self.op
        if op == "=":
            return v == self.value
        if op == "!=":
            return v != self.value
        try:
            if op == "<":
                return v < self.value
            if op == "<=":
                return v <= self.value
            if op == ">":
                return v > self.value
            return v >= self.value
        except TypeError:
            return False

    def render(self) -> str:
        return f"{self.attr}{self.op}{render_value(self.value)}"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Conjunction:
    """``c1 & c2 & …`` — the only connective the algebra needs (a
    disjunction is a union of queries; nothing in the planner wants
    one).  Always holds plain comparisons, already flattened."""

    parts: PyTuple[Comparison, ...]

    def __post_init__(self) -> None:
        for p in self.parts:
            if not isinstance(p, Comparison):
                raise QueryError(
                    f"conjunction parts must be comparisons, got {p!r}"
                )

    def matches(self, t) -> bool:
        return all(p.matches(t) for p in self.parts)

    def render(self) -> str:
        return " & ".join(p.render() for p in self.parts)

    def __str__(self) -> str:
        return self.render()


#: any predicate node
Predicate = Any  # Comparison | Conjunction (kept loose for 3.9-style typing)


def conjuncts(pred) -> PyTuple[Comparison, ...]:
    """The flat comparison list of any predicate."""
    if isinstance(pred, Comparison):
        return (pred,)
    if isinstance(pred, Conjunction):
        return pred.parts
    raise QueryError(f"not a predicate: {pred!r}")


def make_predicate(parts) -> Predicate:
    """One comparison stays bare; several become a :class:`Conjunction`
    in canonical (sorted, deduplicated) order — predicate order never
    changes a result, so normalizing it here lets differently-written
    queries share one plan.  Over a template's :class:`Param` slots no
    constant decides the order, and no two slots merge."""
    flat: list = []
    for p in parts:
        flat.extend(conjuncts(p))
    unique = sorted(
        set(flat), key=lambda c: (c.attr, c.op, repr(c.value))
    )
    if not unique:
        raise QueryError("a selection needs at least one comparison")
    if len(unique) == 1:
        return unique[0]
    return Conjunction(tuple(unique))


class Query:
    """Base node: the fluent builder surface shared by every operator."""

    __slots__ = ()

    @property
    def attributes(self) -> AttributeSet:  # pragma: no cover - abstract
        raise NotImplementedError

    def select(self, *preds, **equalities) -> "Select":
        """``σ``: positional predicates and/or ``Attr=value`` keyword
        equalities, conjoined."""
        parts = list(preds)
        parts.extend(Comparison(a, "=", v) for a, v in equalities.items())
        return Select(self, make_predicate(parts))

    def project(self, attributes: AttrsLike) -> "Project":
        """``π``."""
        return Project(self, AttributeSet(attributes))

    def join(self, other: "Query") -> "Join":
        """Natural join (``*`` also works, like the paper's notation)."""
        return Join(self, other)

    __mul__ = join

    def render(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()

    def comparisons(self) -> Iterator[Comparison]:
        """Every comparison of the tree, in the order ``render`` writes
        them."""
        if isinstance(self, Select):
            yield from conjuncts(self.pred)
        if isinstance(self, (Select, Project)):
            yield from self.child.comparisons()
        elif isinstance(self, Join):
            yield from self.left.comparisons()
            yield from self.right.comparisons()


@dataclass(frozen=True)
class Scan(Query):
    """``[X]`` — the window of derivable ``X``-total facts."""

    attrs: AttributeSet

    def __post_init__(self) -> None:
        coerced = AttributeSet(self.attrs)
        if not coerced:
            raise QueryError("a scan needs at least one attribute")
        object.__setattr__(self, "attrs", coerced)

    @property
    def attributes(self) -> AttributeSet:
        return self.attrs

    def render(self) -> str:
        return f"[{' '.join(self.attrs.names)}]"


@dataclass(frozen=True)
class Select(Query):
    """``σ_pred(child)``."""

    child: Query
    pred: Predicate

    def __post_init__(self) -> None:
        conjuncts(self.pred)  # raises QueryError on a non-predicate

    @property
    def attributes(self) -> AttributeSet:
        return self.child.attributes

    def render(self) -> str:
        return f"select({self.pred.render()}, {self.child.render()})"


@dataclass(frozen=True)
class Project(Query):
    """``π_attrs(child)``."""

    child: Query
    attrs: AttributeSet

    def __post_init__(self) -> None:
        coerced = AttributeSet(self.attrs)
        if not coerced:
            raise QueryError("a projection needs at least one attribute")
        object.__setattr__(self, "attrs", coerced)

    @property
    def attributes(self) -> AttributeSet:
        return self.attrs

    def render(self) -> str:
        return f"project({' '.join(self.attrs.names)}, {self.child.render()})"


@dataclass(frozen=True)
class Join(Query):
    """``left ⋈ right`` on the shared attributes."""

    left: Query
    right: Query

    @property
    def attributes(self) -> AttributeSet:
        return self.left.attributes | self.right.attributes

    def render(self) -> str:
        return f"join({self.left.render()}, {self.right.render()})"


def scan(attributes: AttrsLike) -> Scan:
    """Builder entry point: ``scan("C H R")``."""
    return Scan(AttributeSet(attributes))


def eq(attr: str, value: Any) -> Comparison:
    return Comparison(attr, "=", value)


def cmp(attr: str, op: str, value: Any) -> Comparison:
    """General comparison builder: ``cmp("H", "<", 10)``."""
    return Comparison(attr, op, value)
