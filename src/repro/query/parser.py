"""The compact text form of relational queries.

Grammar (whitespace-insensitive between tokens)::

    expr  := '[' attrs ']'
           | 'select'  '(' pred ',' expr ')'
           | 'project' '(' attrs ',' expr ')'
           | 'join'    '(' expr ',' expr ')'
    pred  := cmp ('&' cmp)*
    cmp   := NAME OP value          OP ∈ {=, !=, <, <=, >, >=}
    attrs := NAME (NAME | ',' NAME)*
    value := bare token | '…'-quoted string

Bare value tokens follow the scenario DSL (:func:`repro.dsl.parse_value`):
all-digit tokens become ints, everything else stays a string.  Single
quotes protect values containing spaces, commas, parentheses, or a
leading digit that must stay a string (``''`` escapes a quote).  The
keywords are case-insensitive; attribute names are not.

``parse_query`` is the single entry point; every malformed input
raises :class:`~repro.exceptions.QueryError` naming the offending
position.  ``Query.render()`` output always parses back to an equal
tree (pinned by the round-trip tests).

For prepared reads, :func:`shape_of` replaces each comparison value
with ``?`` in one regex pass that splits and decodes values exactly as
the tokenizer and parser do, so texts of one shape parse alike but for
their values; ``parse_query(text, slots=True)`` returns the template.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple as PyTuple, Union

from repro.dsl import parse_value
from repro.exceptions import QueryError
from repro.query.ast import (
    Comparison,
    Join,
    Param,
    Project,
    Query,
    Scan,
    Select,
    make_predicate,
)
from repro.schema.attributes import AttributeSet

_KEYWORDS = ("select", "project", "join")

#: a quoted value (``''`` escapes a quote, so it ends at a lone quote)
#: and a bare token (up to the next delimiter, space or quote)
_QUOTED = r"'(?:[^']|'')*'(?!')"
_BARE = r"[^\s()\[\],&=<>!']+"
_TOKEN = re.compile(rf"({_QUOTED})|([()\[\],&])|(!=|<=|>=|[=<>])|({_BARE})|(\S)")
_KINDS = (None, "quoted", "punct", "op", "atom")
#: a comparison value: the token after an operator (each ends in ``=<>``)
_VALUE = re.compile(rf"(?<=[=<>])\s*({_QUOTED}|{_BARE})")


def _decode(token: str):
    if token[0] == "'":
        return token[1:-1].replace("''", "'")
    return parse_value(token)


def shape_of(text: str) -> PyTuple[str, tuple]:
    """``(shape, constants)``: ``text`` with each comparison value (and
    the space before it) replaced by ``?``, and the values in text
    order, decoded as the parser decodes them.  Malformed text gets a
    shape too; only the parser decides whether it is a query."""
    values = _VALUE.findall(text)
    return _VALUE.sub("?", text), tuple([_decode(v) for v in values])


def _tokenize(text: str) -> List[PyTuple[int, str, str]]:
    """``(position, kind, text)`` tokens; kind is ``punct``, ``op``,
    ``atom``, or ``quoted`` (its text unescaped)."""
    out: List[PyTuple[int, str, str]] = []
    for m in _TOKEN.finditer(text):
        tok, i = m.group(), m.start()
        if m.lastindex == 5:  # a quote never closed, or '!' without '='
            if tok == "'":
                raise QueryError(f"unterminated quote at position {i}")
            raise QueryError(f"stray '!' at position {i} (did you mean '!='?)")
        out.append((i, _KINDS[m.lastindex], _decode(tok) if m.lastindex == 1 else tok))
    return out


class _Parser:
    def __init__(self, text: str, constants: Optional[list] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        #: when a list, values go here and the tree holds Param slots
        self.constants = constants

    # -- token plumbing ---------------------------------------------------------

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, what: str):
        tok = self._peek()
        if tok is None:
            raise QueryError(f"unexpected end of query (expected {what})")
        self.pos += 1
        return tok

    def _expect(self, literal: str) -> None:
        tok = self._next(f"{literal!r}")
        if not (tok[1] in ("punct", "op") and tok[2] == literal):
            raise QueryError(
                f"expected {literal!r} at position {tok[0]}, got {tok[2]!r}"
            )

    # -- grammar ----------------------------------------------------------------

    def expr(self) -> Query:
        tok = self._next("a query")
        if tok[1] == "punct" and tok[2] == "[":
            return self._scan()
        if tok[1] == "atom":
            word = tok[2].lower()
            if word in _KEYWORDS:
                self._expect("(")
                if word == "select":
                    head = self._predicate()
                elif word == "project":
                    head = self._attrs(stop={","})
                else:
                    head = self.expr()
                self._expect(",")
                child = self.expr()
                self._expect(")")
                if word == "select":
                    return Select(child, head)
                if word == "project":
                    return Project(child, head)
                return Join(head, child)
        raise QueryError(
            f"expected '[attrs]', select(…), project(…), or join(…) at "
            f"position {tok[0]}, got {tok[2]!r}"
        )

    def _scan(self) -> Scan:
        attrs = self._attrs(stop={"]"})
        self._expect("]")
        return Scan(attrs)

    def _attrs(self, stop) -> AttributeSet:
        names: List[str] = []
        while True:
            tok = self._peek()
            if tok is None:
                raise QueryError("unexpected end of query in an attribute list")
            if tok[1] == "punct" and tok[2] in stop:
                break
            if tok[1] == "punct" and tok[2] == ",":
                self.pos += 1
                continue
            if tok[1] != "atom":
                raise QueryError(
                    f"expected an attribute name at position {tok[0]}, "
                    f"got {tok[2]!r}"
                )
            names.append(tok[2])
            self.pos += 1
        if not names:
            raise QueryError("empty attribute list")
        return AttributeSet(names)

    def _predicate(self):
        parts = [self._comparison()]
        while self._peek() is not None and self._peek()[1:] == ("punct", "&"):
            self.pos += 1
            parts.append(self._comparison())
        return make_predicate(parts)

    def _comparison(self) -> Comparison:
        attr = self._next("an attribute name")
        if attr[1] != "atom":
            raise QueryError(
                f"expected an attribute name at position {attr[0]}, "
                f"got {attr[2]!r}"
            )
        op = self._next("a comparison operator")
        if op[1] != "op":
            raise QueryError(
                f"expected a comparison operator after {attr[2]!r} at "
                f"position {op[0]}, got {op[2]!r}"
            )
        val = self._next("a value")
        if val[1] not in ("quoted", "atom"):
            raise QueryError(
                f"expected a value at position {val[0]}, got {val[2]!r}"
            )
        value = val[2] if val[1] == "quoted" else parse_value(val[2])
        if self.constants is not None:
            self.constants.append(value)
            value = Param(len(self.constants) - 1)
        return Comparison(attr[2], op[2], value)


def parse_query(text: Union[str, Query], slots: bool = False):
    """Parse the compact text form into an AST (a :class:`Query` passes
    through unchanged, so every entry point can accept either).

    ``slots=True`` parses a text into ``(template, constants)``
    instead: the tree holds ``Param(i)`` where the text holds its
    ``i``-th value, and ``constants[i]`` is that value."""
    if isinstance(text, Query) and not slots:
        return text
    parser = _Parser(text, [] if slots else None)
    q = parser.expr()
    trailing = parser._peek()
    if trailing is not None:
        raise QueryError(
            f"trailing input at position {trailing[0]}: {trailing[2]!r}"
        )
    return (q, tuple(parser.constants)) if slots else q
