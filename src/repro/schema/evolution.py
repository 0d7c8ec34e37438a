"""Typed schema-evolution operations.

The paper's independence test is stated for a *fixed* schema; this
module is the vocabulary for changing one.  Each operation is a small
immutable object that knows three things:

* how to **rewrite the catalog** — :meth:`EvolutionOp.apply` maps
  ``(schema, fds)`` to the evolved ``(schema', fds')``, validating the
  request against the old catalog first (unknown schemes, colliding
  names, FDs escaping the universe, …);
* what the change **can reach** — :meth:`EvolutionOp.changed_attributes`
  seeds the incremental independence re-check
  (:func:`repro.core.independence.reanalyze`): only schemes whose
  closures touch these attributes can change their Loop verdict, and
  :meth:`EvolutionOp.structural_schemes` names the schemes whose
  *definition* changes outright (added, dropped, redefined);
* how the **stored rows migrate** — :meth:`EvolutionOp.migrate_relations`
  is a pure function from the affected schemes' rows (attribute-keyed
  mappings) to the evolved schemes' rows.  The serving layers run it
  once per migration, and the durable layer re-runs it during recovery
  roll-forward (the transform must therefore be deterministic, which
  all of these are).

Ops serialize to JSON (:meth:`EvolutionOp.to_json` /
:func:`evolution_op_from_json`) so the durable layer can log them in
its schema WAL, and parse from the compact operator syntax the CLI
``serve`` loop uses (:func:`parse_evolution_op`)::

    add-attr CHR X = 0
    drop-attr CHR R
    split CHR -> CH(C,H) + CR(C,R)
    merge CT + CS -> CTS
    add-fd C H -> R
    drop-fd C -> T

The catalog follows the SMO (schema-modification-operator) shape of
the evolution literature — co-existing versions (Herrmann et al.) and
operator taxonomies (Etien/Anquetil) — restricted to the six ops whose
interaction with *independence* is interesting: attribute and FD edits
move the closure-reachability frontier, split/merge move the
cover-embedding frontier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple as PyTuple,
)

from repro.deps.fd import FD
from repro.deps.fdset import FDSet
from repro.exceptions import DependencyError, ParseError, SchemaError
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema
from repro.schema.relation import RelationScheme

#: one stored row, attribute name → value (canonical, order-free form)
Row = Mapping[str, object]
#: rows per scheme name — the data a migration consumes and produces
Relations = Dict[str, List[Dict[str, object]]]


def _dedup(rows: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """Set semantics: projections and joins may collapse rows."""
    seen: Dict[PyTuple[PyTuple[str, object], ...], Dict[str, object]] = {}
    for row in rows:
        seen.setdefault(tuple(sorted(row.items())), row)
    return list(seen.values())


def _replace_scheme(
    schema: DatabaseSchema, name: str, replacements: Sequence[RelationScheme],
    drop: Sequence[str] = (),
) -> DatabaseSchema:
    """A new schema with ``name``'s slot replaced by ``replacements``
    (order preserved) and every scheme in ``drop`` removed."""
    dropped = set(drop)
    schemes: List[RelationScheme] = []
    for scheme in schema:
        if scheme.name == name:
            schemes.extend(replacements)
        elif scheme.name not in dropped:
            schemes.append(scheme)
    return DatabaseSchema(schemes)


def _check_fds_inside(new_schema: DatabaseSchema, fds: FDSet) -> None:
    universe = new_schema.universe
    for f in fds:
        if not f.attributes <= universe:
            raise DependencyError(
                f"evolution would strand FD {f} outside the new universe "
                f"{universe}; drop the FD first (drop-fd)"
            )


class EvolutionOp:
    """Base class: one typed schema-modification operation."""

    #: the operator tag used by JSON serialization and the CLI parser
    kind: str = ""

    def describe(self) -> str:
        raise NotImplementedError

    def apply(
        self, schema: DatabaseSchema, fds: FDSet
    ) -> PyTuple[DatabaseSchema, FDSet]:
        """Validate against and rewrite the catalog.  Raises
        :class:`SchemaError` / :class:`DependencyError` on a request
        the old catalog cannot honor; never mutates its inputs."""
        raise NotImplementedError

    def changed_attributes(
        self, schema: DatabaseSchema, fds: FDSet
    ) -> AttributeSet:
        """The attributes this change touches — the seed of the
        closure-reachability frontier the incremental re-check
        examines."""
        raise NotImplementedError

    def structural_schemes(self, schema: DatabaseSchema) -> PyTuple[str, ...]:
        """Old-schema scheme names whose definition (not merely cover)
        this op rewrites — their shards must rebuild regardless of what
        the re-check decides."""
        raise NotImplementedError

    def migrate_relations(
        self, schema: DatabaseSchema, relations: Relations
    ) -> Relations:
        """Transform the structural schemes' stored rows into the
        evolved schemes' rows.  ``relations`` maps each scheme named by
        :meth:`structural_schemes` to its rows; the result maps each
        *evolved* scheme produced by this op to its migrated rows.
        Pure and deterministic — recovery replays it."""
        raise NotImplementedError

    def to_json(self) -> Dict[str, object]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.describe()}>"


@dataclass(frozen=True, repr=False)
class AddAttribute(EvolutionOp):
    """Widen one scheme by a new attribute; existing rows take
    ``default`` in the new column."""

    scheme: str
    attribute: str
    default: object = ""

    kind = "add-attr"

    def describe(self) -> str:
        return f"add-attr {self.scheme} {self.attribute} = {self.default!r}"

    def apply(self, schema, fds):
        old = schema[self.scheme]
        if self.attribute in old.attributes:
            raise SchemaError(
                f"scheme {self.scheme!r} already has attribute "
                f"{self.attribute!r}"
            )
        widened = RelationScheme(
            old.name, old.attributes | AttributeSet([self.attribute])
        )
        return _replace_scheme(schema, old.name, [widened]), fds

    def changed_attributes(self, schema, fds):
        # the new attribute plus the scheme it lands in: any scheme
        # whose closure reaches the widened scheme could see new
        # cover-embedding opportunities
        return schema[self.scheme].attributes | AttributeSet([self.attribute])

    def structural_schemes(self, schema):
        return (self.scheme,)

    def migrate_relations(self, schema, relations):
        rows = relations.get(self.scheme, [])
        return {
            self.scheme: _dedup(
                {**row, self.attribute: self.default} for row in rows
            )
        }

    def to_json(self):
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "attribute": self.attribute,
            "default": self.default,
        }


@dataclass(frozen=True, repr=False)
class DropAttribute(EvolutionOp):
    """Narrow one scheme; rows project (set semantics may collapse
    duplicates).  FDs that would escape the new universe must be
    dropped first."""

    scheme: str
    attribute: str

    kind = "drop-attr"

    def describe(self) -> str:
        return f"drop-attr {self.scheme} {self.attribute}"

    def apply(self, schema, fds):
        old = schema[self.scheme]
        if self.attribute not in old.attributes:
            raise SchemaError(
                f"scheme {self.scheme!r} has no attribute {self.attribute!r}"
            )
        remaining = old.attributes - AttributeSet([self.attribute])
        if not remaining:
            raise SchemaError(
                f"dropping {self.attribute!r} would empty scheme "
                f"{self.scheme!r}"
            )
        narrowed = RelationScheme(old.name, remaining)
        new_schema = _replace_scheme(schema, old.name, [narrowed])
        _check_fds_inside(new_schema, fds)
        return new_schema, fds

    def changed_attributes(self, schema, fds):
        return schema[self.scheme].attributes

    def structural_schemes(self, schema):
        return (self.scheme,)

    def migrate_relations(self, schema, relations):
        rows = relations.get(self.scheme, [])
        return {
            self.scheme: _dedup(
                {a: v for a, v in row.items() if a != self.attribute}
                for row in rows
            )
        }

    def to_json(self):
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "attribute": self.attribute,
        }


@dataclass(frozen=True, repr=False)
class SplitScheme(EvolutionOp):
    """Replace one scheme by parts covering its attributes; rows
    project onto each part (the lossless direction is the caller's
    claim — the re-check decides whether the *schema* stays
    independent, not whether the decomposition is lossless)."""

    scheme: str
    #: ``((name, attr-names), ...)`` — each part's attributes ⊆ the old
    #: scheme's, union = the old scheme's
    parts: PyTuple[PyTuple[str, PyTuple[str, ...]], ...]

    kind = "split"

    def describe(self) -> str:
        rendered = " + ".join(
            f"{name}({','.join(attrs)})" for name, attrs in self.parts
        )
        return f"split {self.scheme} -> {rendered}"

    def _part_schemes(self, schema: DatabaseSchema) -> List[RelationScheme]:
        old = schema[self.scheme]
        if len(self.parts) < 2:
            raise SchemaError("split needs at least two parts")
        taken = {s.name for s in schema} - {old.name}
        parts: List[RelationScheme] = []
        union = AttributeSet()
        for name, attrs in self.parts:
            attrset = AttributeSet(attrs)
            if not attrset:
                raise SchemaError(f"split part {name!r} has no attributes")
            if not attrset <= old.attributes:
                raise SchemaError(
                    f"split part {name!r} attributes "
                    f"{attrset - old.attributes} are not in {old.name!r}"
                )
            if name in taken or any(p.name == name for p in parts):
                raise SchemaError(f"split part name {name!r} collides")
            parts.append(RelationScheme(name, attrset))
            union |= attrset
        if union != old.attributes:
            raise SchemaError(
                f"split parts must cover {old.name!r} exactly "
                f"(missing {old.attributes - union})"
            )
        return parts

    def apply(self, schema, fds):
        parts = self._part_schemes(schema)
        new_schema = _replace_scheme(schema, self.scheme, parts)
        _check_fds_inside(new_schema, fds)
        return new_schema, fds

    def changed_attributes(self, schema, fds):
        return schema[self.scheme].attributes

    def structural_schemes(self, schema):
        return (self.scheme,)

    def migrate_relations(self, schema, relations):
        rows = relations.get(self.scheme, [])
        out: Relations = {}
        for name, attrs in self.parts:
            keep = set(attrs)
            out[name] = _dedup(
                {a: v for a, v in row.items() if a in keep} for row in rows
            )
        return out

    def to_json(self):
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "parts": [[name, list(attrs)] for name, attrs in self.parts],
        }


@dataclass(frozen=True, repr=False)
class MergeSchemes(EvolutionOp):
    """Replace several schemes by one over the union of their
    attributes; rows are the natural join of the member relations (the
    stored facts, not the derivable closure — a merge is a physical
    re-layout, not a query)."""

    schemes: PyTuple[str, ...]
    new_name: str

    kind = "merge"

    def describe(self) -> str:
        return f"merge {' + '.join(self.schemes)} -> {self.new_name}"

    def apply(self, schema, fds):
        if len(self.schemes) < 2:
            raise SchemaError("merge needs at least two schemes")
        if len(set(self.schemes)) != len(self.schemes):
            raise SchemaError("merge members must be distinct")
        union = AttributeSet()
        for name in self.schemes:
            union |= schema[name].attributes  # unknown-scheme check too
        taken = {s.name for s in schema} - set(self.schemes)
        if self.new_name in taken:
            raise SchemaError(
                f"merge target name {self.new_name!r} collides with an "
                f"existing scheme"
            )
        merged = RelationScheme(self.new_name, union)
        new_schema = _replace_scheme(
            schema, self.schemes[0], [merged], drop=self.schemes[1:]
        )
        return new_schema, fds

    def changed_attributes(self, schema, fds):
        union = AttributeSet()
        for name in self.schemes:
            union |= schema[name].attributes
        return union

    def structural_schemes(self, schema):
        return tuple(self.schemes)

    def migrate_relations(self, schema, relations):
        # a hash join, member by member: each member's rows are indexed
        # by the attributes it shares with the rows joined so far, so
        # the output keeps the nested-loop order (for each joined row,
        # its matching member rows in stored order)
        joined: List[Dict[str, object]] = [{}]
        for name in self.schemes:
            rows = relations.get(name, [])
            if not rows or not joined:
                joined = []
                continue
            shared = [a for a in rows[0] if a in joined[0]]
            index: Dict[PyTuple[object, ...], List[Dict[str, object]]] = {}
            for row in rows:
                index.setdefault(tuple(row[a] for a in shared), []).append(row)
            joined = [
                {**acc, **row}
                for acc in joined
                for row in index.get(tuple(acc[a] for a in shared), ())
            ]
        return {self.new_name: _dedup(joined)}

    def to_json(self):
        return {
            "kind": self.kind,
            "schemes": list(self.schemes),
            "new_name": self.new_name,
        }


@dataclass(frozen=True, repr=False)
class AddFD(EvolutionOp):
    """Add one functional dependency.  The stored rows of every scheme
    whose maintenance cover grows are re-validated during migration; a
    violating shard rejects the evolution (the data refutes the new
    constraint)."""

    fd: FD

    kind = "add-fd"

    def describe(self) -> str:
        return f"add-fd {self.fd}"

    def apply(self, schema, fds):
        if not self.fd.attributes <= schema.universe:
            raise DependencyError(
                f"FD {self.fd} mentions attributes outside the universe "
                f"{schema.universe}"
            )
        if self.fd in fds:
            raise DependencyError(f"FD {self.fd} is already declared")
        return schema, fds | [self.fd]

    def changed_attributes(self, schema, fds):
        return self.fd.attributes

    def structural_schemes(self, schema):
        return ()

    def migrate_relations(self, schema, relations):
        return {}

    def to_json(self):
        return {"kind": self.kind, "fd": _fd_json(self.fd)}


@dataclass(frozen=True, repr=False)
class DropFD(EvolutionOp):
    """Drop one declared functional dependency (exact member of the
    declared set, not merely an implied one)."""

    fd: FD

    kind = "drop-fd"

    def describe(self) -> str:
        return f"drop-fd {self.fd}"

    def apply(self, schema, fds):
        if self.fd not in fds:
            raise DependencyError(
                f"FD {self.fd} is not among the declared FDs {fds}"
            )
        return schema, fds - [self.fd]

    def changed_attributes(self, schema, fds):
        return self.fd.attributes

    def structural_schemes(self, schema):
        return ()

    def migrate_relations(self, schema, relations):
        return {}

    def to_json(self):
        return {"kind": self.kind, "fd": _fd_json(self.fd)}


# -- serialization ------------------------------------------------------------------


def _fd_json(fd: FD) -> List[List[str]]:
    """An FD as ``[[lhs...], [rhs...]]`` — structural, because the
    display form concatenates attribute names without a separator and
    so does not survive a parse round-trip."""
    return [list(fd.lhs.names), list(fd.rhs.names)]


def _fd_from_json(data: object) -> FD:
    if not (isinstance(data, Sequence) and len(data) == 2):
        raise ParseError(f"malformed FD serialization: {data!r}")
    lhs, rhs = data
    return FD(AttributeSet(lhs), AttributeSet(rhs))


def evolution_op_from_json(data: Mapping[str, object]) -> EvolutionOp:
    """Inverse of :meth:`EvolutionOp.to_json` — what the durable layer
    uses to replay a schema WAL record during recovery roll-forward."""
    kind = data.get("kind")
    if kind == AddAttribute.kind:
        return AddAttribute(
            str(data["scheme"]), str(data["attribute"]), data.get("default", "")
        )
    if kind == DropAttribute.kind:
        return DropAttribute(str(data["scheme"]), str(data["attribute"]))
    if kind == SplitScheme.kind:
        return SplitScheme(
            str(data["scheme"]),
            tuple(
                (str(name), tuple(str(a) for a in attrs))
                for name, attrs in data["parts"]  # type: ignore[union-attr]
            ),
        )
    if kind == MergeSchemes.kind:
        return MergeSchemes(
            tuple(str(n) for n in data["schemes"]),  # type: ignore[union-attr]
            str(data["new_name"]),
        )
    if kind == AddFD.kind:
        return AddFD(_fd_from_json(data["fd"]))
    if kind == DropFD.kind:
        return DropFD(_fd_from_json(data["fd"]))
    raise ParseError(f"unknown evolution op kind {kind!r}")


# -- the CLI operator syntax --------------------------------------------------------

_SPLIT_PART_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)")


def parse_evolution_op(text: str) -> EvolutionOp:
    """Parse the compact operator syntax (module docstring) into a
    typed op.  Raises :class:`ParseError` on anything else."""
    stripped = text.strip()
    parts = stripped.split(None, 1)
    if not parts:
        raise ParseError("empty evolution op")
    keyword, rest = parts[0].lower(), parts[1] if len(parts) > 1 else ""
    if keyword == "add-attr":
        head, eq, default = rest.partition("=")
        tokens = head.split()
        if len(tokens) != 2:
            raise ParseError(
                f"add-attr needs 'add-attr SCHEME ATTR [= value]': {text!r}"
            )
        value: object = default.strip() if eq else ""
        return AddAttribute(tokens[0], tokens[1], value)
    if keyword == "drop-attr":
        tokens = rest.split()
        if len(tokens) != 2:
            raise ParseError(f"drop-attr needs 'drop-attr SCHEME ATTR': {text!r}")
        return DropAttribute(tokens[0], tokens[1])
    if keyword == "split":
        source, arrow, spec = rest.partition("->")
        if not arrow:
            raise ParseError(
                f"split needs 'split SCHEME -> N1(A,B) + N2(B,C)': {text!r}"
            )
        matches = _SPLIT_PART_RE.findall(spec)
        if len(matches) < 2:
            raise ParseError(f"split needs at least two parts: {text!r}")
        return SplitScheme(
            source.strip(),
            tuple(
                (name, tuple(AttributeSet(body).names))
                for name, body in matches
            ),
        )
    if keyword == "merge":
        members, arrow, target = rest.partition("->")
        if not arrow or not target.strip():
            raise ParseError(
                f"merge needs 'merge S1 + S2 [+ ...] -> NAME': {text!r}"
            )
        names = tuple(n.strip() for n in members.split("+") if n.strip())
        if len(names) < 2:
            raise ParseError(f"merge needs at least two schemes: {text!r}")
        return MergeSchemes(names, target.strip())
    if keyword == "add-fd":
        return AddFD(FD.parse(rest))
    if keyword == "drop-fd":
        return DropFD(FD.parse(rest))
    raise ParseError(
        f"unknown evolution op {keyword!r} "
        "(add-attr/drop-attr/split/merge/add-fd/drop-fd)"
    )
