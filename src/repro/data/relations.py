"""Relation instances: sets of tuples over a scheme, with the small
relational algebra the paper uses (projection, natural join, selection)
and direct FD satisfaction checks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple as PyTuple, Union

from repro.deps.fd import FD
from repro.exceptions import InstanceError
from repro.data.tuples import Tuple
from repro.schema.attributes import AttributeSet, AttrsLike, ordered_names

RowLike = Union[Tuple, Mapping[str, Any], Sequence[Any]]


def _coerce_row(row: RowLike, attrset: AttributeSet, columns) -> Tuple:
    """Interpret a row.  Positional values follow the *declared* column
    order (``columns``); mappings and Tuples are order-independent."""
    if isinstance(row, Tuple):
        return row
    if isinstance(row, Mapping):
        return Tuple(attrset, row)
    seq = tuple(row)
    if len(seq) != len(columns):
        raise InstanceError(
            f"expected {len(columns)} values for columns {columns}, got {len(seq)}"
        )
    return Tuple(attrset, dict(zip(columns, seq)))


class RelationInstance:
    """An immutable set of tuples over an attribute set.

    ``columns`` (defaulting to the order attributes appeared in the
    constructor's spec) governs how *positional* rows are read and how
    the relation displays; all set-theoretic behaviour uses the
    canonical :class:`AttributeSet`.
    """

    __slots__ = ("_attrs", "_columns", "_tuples", "_hash")

    def __init__(
        self,
        attributes: AttrsLike,
        rows: Iterable[RowLike] = (),
        columns: Optional[Sequence[str]] = None,
    ):
        # shared, not copied: the coerced tuples then share it too
        attrset = (
            attributes
            if isinstance(attributes, AttributeSet)
            else AttributeSet(attributes)
        )
        if columns is None:
            declared = ordered_names(attributes)
            columns = declared if len(declared) == len(attrset) else attrset.names
        else:
            columns = tuple(columns)
            if AttributeSet(columns) != attrset or len(columns) != len(attrset):
                raise InstanceError(
                    f"columns {columns} do not enumerate attributes {attrset}"
                )
        tuples: List[Tuple] = []
        seen = set()
        # positional value tuples in the attribute set's natural order
        # (projections, plan outputs) skip the per-row column mapping
        natural = columns == attrset.names
        for row in rows:
            if natural and type(row) is tuple:
                t = Tuple(attrset, row)
            else:
                t = _coerce_row(row, attrset, columns)
                if t.attributes != attrset:
                    raise InstanceError(
                        f"tuple over {t.attributes} does not fit relation "
                        f"over {attrset}"
                    )
            if t not in seen:
                seen.add(t)
                tuples.append(t)
        object.__setattr__(self, "_attrs", attrset)
        object.__setattr__(self, "_columns", tuple(columns))
        object.__setattr__(self, "_tuples", tuple(tuples))
        object.__setattr__(self, "_hash", hash((attrset, frozenset(tuples))))

    # -- protocol ---------------------------------------------------------------

    @property
    def attributes(self) -> AttributeSet:
        return self._attrs

    @property
    def columns(self) -> PyTuple[str, ...]:
        """Declared column order (positional-row interpretation)."""
        return self._columns

    @property
    def tuples(self) -> PyTuple[Tuple, ...]:
        return self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __contains__(self, item: object) -> bool:
        return isinstance(item, Tuple) and item in set(self._tuples)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RelationInstance):
            return self._attrs == other._attrs and set(self._tuples) == set(other._tuples)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    # -- algebra -----------------------------------------------------------------

    def project(self, attributes: AttrsLike) -> "RelationInstance":
        """``πX(r)``."""
        target = AttributeSet(attributes)
        return RelationInstance(target, (t.project(target) for t in self._tuples))

    def select(self, predicate: Callable[[Tuple], bool]) -> "RelationInstance":
        return RelationInstance(self._attrs, (t for t in self._tuples if predicate(t)))

    def select_eq(self, **bindings: Any) -> "RelationInstance":
        """Selection by attribute equality: ``r.select_eq(C="CS101")``."""
        return self.select(lambda t: all(t.value(a) == v for a, v in bindings.items()))

    def natural_join(self, other: "RelationInstance") -> "RelationInstance":
        """``r ⋈ s`` via hash join on the common attributes."""
        common = self._attrs & other._attrs
        out_attrs = self._attrs | other._attrs
        if not common:
            rows = [t.joined(u) for t in self._tuples for u in other._tuples]
            return RelationInstance(out_attrs, rows)
        index: Dict[PyTuple[Any, ...], List[Tuple]] = {}
        for u in other._tuples:
            key = tuple(u.value(a) for a in common)
            index.setdefault(key, []).append(u)
        rows = []
        for t in self._tuples:
            key = tuple(t.value(a) for a in common)
            for u in index.get(key, ()):
                rows.append(t.joined(u))
        return RelationInstance(out_attrs, rows)

    def __mul__(self, other: "RelationInstance") -> "RelationInstance":
        """The paper writes joins as ``r * s``."""
        return self.natural_join(other)

    def with_tuple(self, row: RowLike) -> "RelationInstance":
        t = _coerce_row(row, self._attrs, self._columns)
        return RelationInstance(
            self._attrs, list(self._tuples) + [t], columns=self._columns
        )

    def without_tuple(self, row: RowLike) -> "RelationInstance":
        t = _coerce_row(row, self._attrs, self._columns)
        return RelationInstance(
            self._attrs, (u for u in self._tuples if u != t), columns=self._columns
        )

    def coerce_tuple(self, row: RowLike) -> Tuple:
        """Interpret a row against this relation's columns."""
        return _coerce_row(row, self._attrs, self._columns)

    # -- dependency checks ------------------------------------------------------------

    def satisfies_fd(self, f: FD) -> bool:
        """Direct check that ``X → Y`` holds in this instance."""
        if not f.attributes <= self._attrs:
            raise InstanceError(f"FD {f} is not embedded in relation over {self._attrs}")
        seen: Dict[PyTuple[Any, ...], PyTuple[Any, ...]] = {}
        lhs = f.lhs.names
        rhs = f.effective_rhs.names
        if not rhs:
            return True
        for t in self._tuples:
            key = tuple(t.value(a) for a in lhs)
            val = tuple(t.value(a) for a in rhs)
            prior = seen.get(key)
            if prior is None:
                seen[key] = val
            elif prior != val:
                return False
        return True

    def satisfies_all_fds(self, fd_list: Iterable[FD]) -> bool:
        return all(self.satisfies_fd(f) for f in fd_list)

    def violating_pair(self, f: FD) -> Optional[PyTuple[Tuple, Tuple]]:
        """A witness pair violating the FD, or ``None``."""
        seen: Dict[PyTuple[Any, ...], Tuple] = {}
        lhs = f.lhs.names
        for t in self._tuples:
            key = tuple(t.value(a) for a in lhs)
            prior = seen.get(key)
            if prior is None:
                seen[key] = t
            elif not t.agrees_with(prior, f.effective_rhs):
                return (prior, t)
        return None

    # -- display -------------------------------------------------------------------------

    def __repr__(self) -> str:
        rows = ", ".join(str(t) for t in self._tuples[:6])
        more = "" if len(self._tuples) <= 6 else f", … ({len(self._tuples)} rows)"
        return f"RelationInstance<{self._attrs}>{{{rows}{more}}}"

    __str__ = __repr__


def natural_join_all(relations: Sequence[RelationInstance]) -> RelationInstance:
    """``r1 ⋈ r2 ⋈ … ⋈ rk``, joining smallest-first for speed."""
    if not relations:
        raise InstanceError("cannot join zero relations")
    pending = sorted(relations, key=len)
    result = pending[0]
    for rel in pending[1:]:
        result = result.natural_join(rel)
    return result
