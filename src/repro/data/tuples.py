"""Tuples: mappings from a scheme's attributes to values (Section 2).

A :class:`Tuple` is immutable and hashable.  ``t[X]`` — the X-value of
``t`` — is available both for single attributes (returning the value)
and attribute sets (returning a projected :class:`Tuple`), matching the
paper's ``t[X]`` notation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence, Tuple as PyTuple, Union

from repro.exceptions import InstanceError
from repro.schema.attributes import AttributeSet, AttrsLike


_new = object.__new__


def ordered_values(
    attrset: AttributeSet, values: Union[Mapping[str, Any], Sequence[Any]]
) -> PyTuple[Any, ...]:
    """``values`` — a mapping, or a sequence in natural order — as the
    value tuple of a row over ``attrset``, checked to fit it."""
    if isinstance(values, Mapping):
        missing = [a for a in attrset if a not in values]
        if missing:
            raise InstanceError(f"tuple is missing values for {missing}")
        extra = [a for a in values if a not in attrset]
        if extra:
            raise InstanceError(f"tuple has values for foreign attributes {extra}")
        return tuple([values[a] for a in attrset])
    seq = tuple(values)
    if len(seq) != len(attrset):
        raise InstanceError(
            f"expected {len(attrset)} values for {attrset}, got {len(seq)}"
        )
    return seq


class Tuple:
    """An immutable tuple over an attribute set."""

    __slots__ = ("_attrs", "_values", "_hash")

    def __init__(self, attributes: AttrsLike, values: Union[Mapping[str, Any], Sequence[Any]]):
        # an AttributeSet is immutable, so every tuple of one relation
        # can share its scheme's instance instead of carrying a copy
        attrset = (
            attributes
            if isinstance(attributes, AttributeSet)
            else AttributeSet(attributes)
        )
        ordered = ordered_values(attrset, values)
        object.__setattr__(self, "_attrs", attrset)
        object.__setattr__(self, "_values", ordered)
        object.__setattr__(self, "_hash", hash((attrset, ordered)))

    @classmethod
    def _trusted(cls, attrs: AttributeSet, values: PyTuple[Any, ...]) -> "Tuple":
        """A tuple from values already checked to be ``attrs``' row in
        natural order (a relation's stored rows): no coercion, no
        re-validation."""
        t = _new(cls)
        t._attrs = attrs
        t._values = values
        t._hash = hash((attrs, values))
        return t

    # -- access -------------------------------------------------------------------

    @property
    def attributes(self) -> AttributeSet:
        return self._attrs

    @property
    def values(self) -> PyTuple[Any, ...]:
        """Values in the scheme's natural attribute order."""
        return self._values

    def value(self, attribute: str) -> Any:
        try:
            idx = self._attrs.names.index(attribute)
        except ValueError:
            raise InstanceError(f"attribute {attribute!r} not in {self._attrs}") from None
        return self._values[idx]

    def __getitem__(self, key: Union[str, AttrsLike]) -> Any:
        """``t[A]`` → value;  ``t[X]`` for a set → projected tuple."""
        if isinstance(key, str) and key in self._attrs:
            return self.value(key)
        return self.project(key)

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self._attrs.names, self._values))

    # -- operations ------------------------------------------------------------------

    def project(self, attributes: AttrsLike) -> "Tuple":
        """``t[X]`` — restriction of the tuple to ``X ⊆ attrs``."""
        target = AttributeSet(attributes)
        if not target <= self._attrs:
            raise InstanceError(f"cannot project {self._attrs} tuple onto {target}")
        data = self.as_dict()
        return Tuple(target, {a: data[a] for a in target})

    def agrees_with(self, other: "Tuple", attributes: AttrsLike) -> bool:
        """Do the two tuples agree on every attribute of ``X``?"""
        target = AttributeSet(attributes)
        return all(self.value(a) == other.value(a) for a in target)

    def joinable_with(self, other: "Tuple") -> bool:
        """Do the tuples agree on their common attributes?"""
        common = self._attrs & other._attrs
        return self.agrees_with(other, common)

    def joined(self, other: "Tuple") -> "Tuple":
        """Natural join of two joinable tuples."""
        if not self.joinable_with(other):
            raise InstanceError(f"tuples disagree on common attributes: {self} vs {other}")
        data = self.as_dict()
        data.update(other.as_dict())
        return Tuple(self._attrs | other._attrs, data)

    def extended(self, attributes: AttrsLike, values: Mapping[str, Any]) -> "Tuple":
        """A tuple over a larger scheme, taking new values from the map."""
        target = AttributeSet(attributes)
        if not self._attrs <= target:
            raise InstanceError(f"cannot extend {self._attrs} tuple to smaller {target}")
        data = dict(values)
        data.update(self.as_dict())
        return Tuple(target, data)

    # -- protocol ------------------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Tuple):
            return self._attrs == other._attrs and self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in zip(self._attrs.names, self._values))
        return f"({inner})"

    __str__ = __repr__
