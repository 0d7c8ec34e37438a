"""Database states: an instance for every relation scheme (Section 2).

A :class:`DatabaseState` assigns a :class:`RelationInstance` to each
scheme of a :class:`DatabaseSchema`.  States are immutable; "updates"
return new states sharing unchanged relations.  The classic
universal-relation operations are provided: ``πD(I)`` (projecting a
universal instance onto every scheme) and ``*p`` (the join of all
relations).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple as PyTuple, Union

from repro.data.relations import RelationInstance, RowLike, natural_join_all
from repro.data.tuples import Tuple
from repro.exceptions import InstanceError, SchemaError
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema
from repro.schema.relation import RelationScheme


class DatabaseState:
    """An immutable assignment of relation instances to schema relations."""

    __slots__ = ("_schema", "_relations", "_hash")

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Optional[Mapping[str, Union[RelationInstance, Iterable[RowLike]]]] = None,
    ):
        rels: Dict[str, RelationInstance] = {}
        provided = dict(relations or {})
        unknown = [name for name in provided if name not in schema]
        if unknown:
            raise SchemaError(f"state mentions unknown schemes: {unknown}")
        for scheme in schema:
            given = provided.get(scheme.name)
            if given is None:
                rels[scheme.name] = RelationInstance(scheme.attributes)
            elif isinstance(given, RelationInstance):
                if given.attributes != scheme.attributes:
                    raise InstanceError(
                        f"relation over {given.attributes} does not fit scheme {scheme}"
                    )
                rels[scheme.name] = given
            else:
                rels[scheme.name] = RelationInstance(
                    scheme.attributes, given, columns=scheme.columns
                )
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_relations", rels)
        # hashed on first use: most states are only read
        object.__setattr__(self, "_hash", None)

    # -- access ------------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def __getitem__(self, key: Union[str, RelationScheme, int]) -> RelationInstance:
        if isinstance(key, RelationScheme):
            key = key.name
        if isinstance(key, int):
            key = self._schema[key].name
        try:
            return self._relations[key]
        except KeyError:
            raise SchemaError(f"no relation named {key!r} in this state") from None

    def __iter__(self) -> Iterator[PyTuple[RelationScheme, RelationInstance]]:
        for scheme in self._schema:
            yield scheme, self._relations[scheme.name]

    def relations(self) -> PyTuple[RelationInstance, ...]:
        return tuple(self._relations[s.name] for s in self._schema)

    def total_tuples(self) -> int:
        return sum(len(r) for r in self._relations.values())

    def is_empty(self) -> bool:
        return self.total_tuples() == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DatabaseState):
            return self._schema == other._schema and self._relations == other._relations
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._schema, self.relations()))
            object.__setattr__(self, "_hash", h)
        return h

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_universal(
        cls, schema: DatabaseSchema, universal: RelationInstance
    ) -> "DatabaseState":
        """``πD(I)`` — the state of projections of a universal instance."""
        if universal.attributes != schema.universe:
            raise InstanceError(
                f"universal instance over {universal.attributes} does not match "
                f"universe {schema.universe}"
            )
        return cls(
            schema,
            {s.name: universal.project(s.attributes) for s in schema},
        )

    def with_tuple(self, scheme_name: str, row: RowLike) -> "DatabaseState":
        """Insert one tuple (the maintenance problem's "simple
        modification")."""
        updated = dict(self._relations)
        updated[scheme_name] = self[scheme_name].with_tuple(row)
        return DatabaseState(self._schema, updated)

    def without_tuple(self, scheme_name: str, row: RowLike) -> "DatabaseState":
        updated = dict(self._relations)
        updated[scheme_name] = self[scheme_name].without_tuple(row)
        return DatabaseState(self._schema, updated)

    # -- universal-relation operations ----------------------------------------------

    def join(self) -> RelationInstance:
        """``*p`` — the natural join of all relations of the state."""
        return natural_join_all(self.relations())

    def is_join_consistent(self) -> bool:
        """Is the state the set of projections of some universal
        instance?  (Equivalently: ``πRi(*p) = ri`` for every i.)"""
        if self.is_empty():
            return True
        if any(not r for r in self.relations()):
            # A state with some but not all relations empty can only be
            # join consistent if every relation is empty.
            return all(not r for r in self.relations())
        joined = self.join()
        return all(
            joined.project(s.attributes) == self._relations[s.name] for s in self._schema
        )

    def dangling_tuples(self) -> Dict[str, PyTuple[Tuple, ...]]:
        """Tuples lost in ``*p`` (per scheme name)."""
        if self.is_empty():
            return {s.name: () for s in self._schema}
        if any(not r for r in self.relations()):
            return {
                s.name: tuple(self._relations[s.name].tuples) for s in self._schema
            }
        joined = self.join()
        out: Dict[str, PyTuple[Tuple, ...]] = {}
        for scheme in self._schema:
            kept = set(joined.project(scheme.attributes).tuples)
            out[scheme.name] = tuple(
                t for t in self._relations[scheme.name] if t not in kept
            )
        return out

    # -- display -------------------------------------------------------------------------

    def __repr__(self) -> str:
        parts = [f"{s.name}:{len(self._relations[s.name])}" for s in self._schema]
        return f"DatabaseState<{', '.join(parts)}>"

    def pretty(self) -> str:
        """Multi-line rendering with one table per relation (columns in
        declared order)."""
        lines = []
        for scheme in self._schema:
            rel = self._relations[scheme.name]
            lines.append(f"{scheme.name}({', '.join(scheme.columns)}):")
            if not rel:
                lines.append("  (empty)")
            for t in rel:
                lines.append("  " + " | ".join(str(t.value(a)) for a in scheme.columns))
        return "\n".join(lines)
