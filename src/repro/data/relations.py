"""Relation instances: sets of tuples over a scheme, with the small
relational algebra the paper uses (projection, natural join, selection)
and direct FD satisfaction checks.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple as PyTuple, Union

from repro.deps.fd import FD
from repro.exceptions import InstanceError
from repro.data.tuples import Tuple, ordered_values
from repro.schema.attributes import AttributeSet, AttrsLike, ordered_names

RowLike = Union[Tuple, Mapping[str, Any], Sequence[Any]]

_new = object.__new__


def _coerce_row(row: RowLike, attrset: AttributeSet, columns) -> Tuple:
    """Interpret a row as a :class:`Tuple` (a Tuple is returned as it
    is; see :func:`_value_row`)."""
    if isinstance(row, Tuple):
        return row
    return Tuple._trusted(attrset, _value_row(row, attrset, columns))


def _foreign(t: Tuple, attrset: AttributeSet) -> InstanceError:
    return InstanceError(f"tuple over {t._attrs} does not fit relation over {attrset}")


def _value_row(row: RowLike, attrset: AttributeSet, columns) -> PyTuple[Any, ...]:
    """A row's values in ``attrset``'s natural order.  Positional values
    follow the *declared* column order (``columns``); mappings and
    Tuples are order-independent."""
    if isinstance(row, Tuple):
        if row._attrs is not attrset and row._attrs != attrset:
            raise _foreign(row, attrset)
        return row._values
    if isinstance(row, Mapping):
        return ordered_values(attrset, row)
    seq = tuple(row)
    if len(seq) != len(columns):
        raise InstanceError(
            f"expected {len(columns)} values for columns {columns}, got {len(seq)}"
        )
    if columns == attrset.names:
        return seq
    return tuple([seq[columns.index(a)] for a in attrset.names])


def _picker(cols: Sequence[int]) -> Callable[[PyTuple[Any, ...]], PyTuple[Any, ...]]:
    """A function taking a value row to the tuple of its ``cols``."""
    if len(cols) == 1:
        col = cols[0]
        return lambda row: (row[col],)
    if not cols:
        return lambda row: ()
    return itemgetter(*cols)


class RelationInstance:
    """An immutable set of tuples over an attribute set.

    ``columns`` (defaulting to the order attributes appeared in the
    constructor's spec) governs how *positional* rows are read and how
    the relation displays; all set-theoretic behaviour uses the
    canonical :class:`AttributeSet`.

    The distinct rows are kept as value tuples in the attribute set's
    natural order (``_rows``), and the algebra runs on their column
    positions.  :class:`Tuple` objects are built once, on the first
    iteration, unless the relation was given them; the hash and the row
    set behind ``in`` are also built on first use.  A concurrent first
    use may build them twice, but both builds are equal.
    """

    __slots__ = ("_attrs", "_columns", "_rows", "_tuples", "_set", "_hash")

    def __init__(
        self,
        attributes: AttrsLike,
        rows: Iterable[RowLike] = (),
        columns: Optional[Sequence[str]] = None,
    ):
        # shared, not copied: the materialized tuples then share it too
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
        width = len(attrset)
        natural = columns == attrset.names
        values: List[PyTuple[Any, ...]] = []
        # the rows as given, while every one is a Tuple of this scheme
        given: Optional[List[Tuple]] = []
        # the last attribute-set object found equal to ``attrset``, so
        # tuples sharing their scheme's instance compare by identity
        fits = attrset
        for row in rows:
            if type(row) is tuple and natural:
                # positional value tuples in natural order (projections,
                # plan outputs) skip the per-row column mapping
                if len(row) != width:
                    raise InstanceError(
                        f"expected {width} values for {attrset}, got {len(row)}"
                    )
                values.append(row)
                given = None
            elif isinstance(row, Tuple):
                if row._attrs is not fits:
                    if row._attrs != attrset:
                        raise _foreign(row, attrset)
                    fits = row._attrs
                values.append(row._values)
                if given is not None:
                    given.append(row)
            else:
                values.append(_value_row(row, attrset, columns))
                given = None
        distinct = tuple(dict.fromkeys(values))
        if given and len(distinct) != len(given):
            # first appearance of each row, as the value rows keep it
            first: Dict[PyTuple[Any, ...], Tuple] = {}
            for t in given:
                first.setdefault(t._values, t)
            given = list(first.values())
        self._attrs = attrset
        self._columns = tuple(columns)
        self._rows = distinct
        # Tuples the caller already built are kept, not re-built
        self._tuples = tuple(given) if given else None
        self._set = None
        self._hash = None

    @classmethod
    def _of(
        cls,
        attrs: AttributeSet,
        rows: PyTuple[PyTuple[Any, ...], ...],
        tuples: Optional[PyTuple[Tuple, ...]] = None,
        columns: Optional[PyTuple[str, ...]] = None,
    ) -> "RelationInstance":
        """A relation over distinct value ``rows`` in natural order (and
        their ``tuples``, when already built), with no checks."""
        rel = _new(cls)
        rel._attrs = attrs
        rel._columns = attrs.names if columns is None else columns
        rel._rows = rows
        rel._tuples = tuples
        rel._set = None
        rel._hash = None
        return rel

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
        tuples = self._tuples
        if tuples is None:
            make, attrs = Tuple._trusted, self._attrs
            tuples = self._tuples = tuple([make(attrs, row) for row in self._rows])
        return tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def _row_set(self) -> FrozenSet[PyTuple[Any, ...]]:
        rows = self._set
        if rows is None:
            rows = self._set = frozenset(self._rows)
        return rows

    def __contains__(self, item: object) -> bool:
        return (
            isinstance(item, Tuple)
            and item._attrs == self._attrs
            and item._values in self._row_set()
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RelationInstance):
            return (
                len(self._rows) == len(other._rows)
                and self._attrs == other._attrs
                and self._row_set() == other._row_set()
            )
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._attrs, self._row_set()))
        return h

    # -- algebra -----------------------------------------------------------------

    def _positions(self, attributes: AttributeSet) -> List[int]:
        """The columns of ``attributes`` (a subset) in a value row."""
        if not attributes <= self._attrs:
            raise InstanceError(f"attributes {attributes} not in {self._attrs}")
        names = self._attrs.names
        return [names.index(a) for a in attributes.names]

    def project(self, attributes: AttrsLike) -> "RelationInstance":
        """``πX(r)``."""
        target = AttributeSet._coerce(attributes)
        pick = _picker(self._positions(target))
        if target == self._attrs:
            return self._of(target, self._rows, self._tuples)
        return self._of(target, tuple(dict.fromkeys(map(pick, self._rows))))

    def select(self, predicate: Callable[[Tuple], bool]) -> "RelationInstance":
        kept = [
            (row, t) for row, t in zip(self._rows, self.tuples) if predicate(t)
        ]
        return self._of(
            self._attrs,
            tuple([row for row, _ in kept]),
            tuple([t for _, t in kept]),
        )

    def select_eq(self, **bindings: Any) -> "RelationInstance":
        """Selection by attribute equality: ``r.select_eq(C="CS101")``."""
        bound = AttributeSet(bindings)
        pick = _picker(self._positions(bound))
        want = tuple([bindings[a] for a in bound.names])
        return self._of(
            self._attrs, tuple([row for row in self._rows if pick(row) == want])
        )

    def natural_join(self, other: "RelationInstance") -> "RelationInstance":
        """``r ⋈ s`` via hash join on the common attributes, with the
        index built on ``s``; rows come out in ``r``'s order, each one's
        partners in ``s``'s order.  Distinct inputs give distinct
        outputs, so nothing is deduplicated."""
        left, right = self._attrs.names, other._attrs.names
        out_attrs = self._attrs | other._attrs
        # each output column read from the concatenation left + right
        width = len(left)
        pick = _picker([
            left.index(a) if a in self._attrs else width + right.index(a)
            for a in out_attrs.names
        ])
        lrows, rrows = self._rows, other._rows
        common = [a for a in left if a in other._attrs]
        if not common:
            return self._of(
                out_attrs, tuple([pick(l + r) for l in lrows for r in rrows])
            )
        lkey = itemgetter(*[left.index(a) for a in common])
        rkey = itemgetter(*[right.index(a) for a in common])
        index: Dict[Any, List[PyTuple[Any, ...]]] = {}
        for r in rrows:
            index.setdefault(rkey(r), []).append(r)
        return self._of(
            out_attrs,
            tuple([pick(l + r) for l in lrows for r in index.get(lkey(l), ())]),
        )

    def __mul__(self, other: "RelationInstance") -> "RelationInstance":
        """The paper writes joins as ``r * s``."""
        return self.natural_join(other)

    def with_tuple(self, row: RowLike) -> "RelationInstance":
        value = _value_row(row, self._attrs, self._columns)
        rows = self._rows if value in self._row_set() else self._rows + (value,)
        return self._of(self._attrs, rows, columns=self._columns)

    def without_tuple(self, row: RowLike) -> "RelationInstance":
        value = _value_row(row, self._attrs, self._columns)
        return self._of(
            self._attrs,
            tuple([r for r in self._rows if r != value]),
            columns=self._columns,
        )

    def coerce_tuple(self, row: RowLike) -> Tuple:
        """Interpret a row against this relation's columns."""
        return _coerce_row(row, self._attrs, self._columns)

    # -- dependency checks ------------------------------------------------------------

    def _fd_pickers(self, f: FD) -> PyTuple[Callable, Callable]:
        """Pickers for the FD's lhs and effective rhs columns; an FD not
        embedded in this relation is an error, rows or no rows."""
        if not f.attributes <= self._attrs:
            raise InstanceError(f"FD {f} is not embedded in relation over {self._attrs}")
        return (
            _picker(self._positions(f.lhs)),
            _picker(self._positions(f.effective_rhs)),
        )

    def satisfies_fd(self, f: FD) -> bool:
        """Direct check that ``X → Y`` holds in this instance."""
        lhs, rhs = self._fd_pickers(f)
        seen: Dict[PyTuple[Any, ...], PyTuple[Any, ...]] = {}
        for row in self._rows:
            val = rhs(row)
            if seen.setdefault(lhs(row), val) != val:
                return False
        return True

    def satisfies_all_fds(self, fd_list: Iterable[FD]) -> bool:
        return all(self.satisfies_fd(f) for f in fd_list)

    def violating_pair(self, f: FD) -> Optional[PyTuple[Tuple, Tuple]]:
        """A witness pair violating the FD, or ``None``."""
        lhs, rhs = self._fd_pickers(f)
        seen: Dict[PyTuple[Any, ...], int] = {}
        rows = self._rows
        for i, row in enumerate(rows):
            prior = seen.setdefault(lhs(row), i)
            if rhs(rows[prior]) != rhs(row):
                tuples = self.tuples
                return (tuples[prior], tuples[i])
        return None

    # -- display -------------------------------------------------------------------------

    def __repr__(self) -> str:
        shown = (Tuple._trusted(self._attrs, row) for row in self._rows[:6])
        rows = ", ".join(str(t) for t in shown)
        more = "" if len(self._rows) <= 6 else f", … ({len(self._rows)} rows)"
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
