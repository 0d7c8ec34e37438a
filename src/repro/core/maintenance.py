"""The maintenance problem (Section 2, Theorem 1).

Given a satisfying state ``p`` and a single-tuple insertion, is the new
state still satisfying?  Theorem 1 shows no polynomial algorithm exists
in general (unless P = NP).  For *independent* schemas, Theorem 3
reduces the check to the inserted tuple's own relation: verify the
embedded FDs ``Fi`` on ``ri ∪ {t}`` — constant time per FD with hash
indexes.

:class:`MaintenanceChecker` implements both strategies:

* ``method="local"`` — per-FD hash indexes on each relation; requires
  an independent schema (the constructor verifies this via
  :func:`repro.core.independence.analyze` unless a report is supplied —
  an analysis whose many attribute closures now run through the shared
  :class:`repro.deps.closure.ClosureIndex`).
* ``method="chase"`` — the safe general fallback: re-run the weak
  instance test on the whole modified state (cost still grows with
  state size; this is the baseline the evaluation compares against).
  Each re-chase is a from-scratch chase of a fresh tableau, so batch
  validation rides the column-major bulk kernel
  (:mod:`repro.chase.bulk`) automatically above its size cutoff —
  ``satisfies`` builds the tableau columnar and ``chase_fds`` routes
  it set-at-a-time.

Deletions never invalidate satisfaction (any weak instance for ``p``
is one for ``p`` minus a tuple), so only insertions are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any, Dict, KeysView, List, Literal, Optional, Set, Tuple as PyTuple, Union,
)

from repro.chase.satisfaction import satisfies
from repro.core.independence import IndependenceReport, analyze
from repro.data.relations import RowLike
from repro.data.states import DatabaseState
from repro.data.tuples import Tuple
from repro.deps.fd import FD
from repro.deps.fdset import FDSet, as_fdset
from repro.exceptions import InconsistentStateError, InstanceError, NotIndependentError
from repro.schema.database import DatabaseSchema

Method = Literal["local", "chase"]

#: Debug flag: when True, :meth:`_FDIndex.remove` raises on a tuple
#: that was never inserted instead of silently tolerating it.  The
#: callers all guard removal behind a presence check, so a strict
#: failure always indicates a multiset-accounting bug — enable it in
#: tests (and soak runs) to surface such bugs instead of masking them.
STRICT_INDEX_ACCOUNTING = False


@dataclass(frozen=True)
class InsertOutcome:
    """Result of attempting one insertion."""

    accepted: bool
    scheme: str
    tuple: Tuple
    method: Method
    #: the FD whose index rejected the insert (local method)
    violated_fd: Optional[FD] = None
    #: human-readable refusal reason
    reason: str = ""


class _FDIndex:
    """Hash index enforcing one FD on one relation.

    Maps each lhs-value key to one ``(rhs-values, multiplicity)`` pair:
    :meth:`conflicts` rejects every insert that would give a key a
    second rhs, so a consistent index never needs more.  Lookup and
    maintenance are O(1) per operation.

    ``strict`` (default: the module flag
    :data:`STRICT_INDEX_ACCOUNTING`) makes :meth:`remove` raise on a
    tuple the index never stored instead of tolerating it silently.
    """

    __slots__ = ("fd", "_lhs", "_rhs", "_map", "_strict")

    def __init__(self, fd: FD, strict: Optional[bool] = None):
        self.fd = fd
        self._lhs = fd.lhs.names
        self._rhs = fd.effective_rhs.names
        self._map: Dict[PyTuple[Any, ...], PyTuple[PyTuple[Any, ...], int]] = {}
        self._strict = STRICT_INDEX_ACCOUNTING if strict is None else strict

    def _key(self, t: Tuple) -> PyTuple[Any, ...]:
        return tuple(t.value(a) for a in self._lhs)

    def _val(self, t: Tuple) -> PyTuple[Any, ...]:
        return tuple(t.value(a) for a in self._rhs)

    def clone(self) -> "_FDIndex":
        """An independent copy (staging area for atomic loads)."""
        other = _FDIndex(self.fd, strict=self._strict)
        # the (rhs, count) entries are immutable: a shallow copy suffices
        other._map = dict(self._map)
        return other

    def conflicts(self, t: Tuple) -> bool:
        entry = self._map.get(self._key(t))
        return entry is not None and entry[0] != self._val(t)

    def add(self, t: Tuple) -> None:
        key = self._key(t)
        entry = self._map.get(key)
        if entry is None:
            self._map[key] = (self._val(t), 1)
        else:
            self._map[key] = (entry[0], entry[1] + 1)

    def remove(self, t: Tuple) -> None:
        key = self._key(t)
        entry = self._map.get(key)
        if entry is None or entry[0] != self._val(t):
            if self._strict:
                raise InstanceError(
                    f"index accounting bug: removing {t} from the index on "
                    f"{self.fd}, which never stored it"
                )
            return
        if entry[1] <= 1:
            del self._map[key]
        else:
            self._map[key] = (entry[0], entry[1] - 1)


class MaintenanceChecker:
    """Incrementally maintained satisfying state with insert validation.

    The state is a *set* of tuples per relation: re-inserting a tuple
    that is already present is accepted but changes nothing, so
    :meth:`total_tuples` always agrees with the :meth:`state`
    snapshot (which has set semantics by construction).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        fds: Union[FDSet, str],
        method: Method = "local",
        report: Optional[IndependenceReport] = None,
    ):
        self.schema = schema
        self.fds = as_fdset(fds)
        self.method: Method = method
        # per relation, its stored tuples as the keys of an
        # insertion-ordered dict: O(1) membership, append and delete
        self._tuples: Dict[str, Dict[Tuple, None]] = {s.name: {} for s in schema}
        self._indexes: Dict[str, List[_FDIndex]] = {s.name: [] for s in schema}

        if method == "local":
            if report is None:
                report = analyze(schema, self.fds, build_counterexample=False)
            if not report.independent:
                raise NotIndependentError(
                    "the local maintenance method requires an independent schema; "
                    "use method='chase' for the general fallback"
                )
            self.report = report
            for scheme in schema:
                cover = report.maintenance_cover(scheme.name)
                self._indexes[scheme.name] = [_FDIndex(f) for f in cover]
        else:
            self.report = report

    # -- loading --------------------------------------------------------------

    def load(
        self, state: DatabaseState, assume_valid: bool = False
    ) -> Dict[str, List[Tuple]]:
        """Load a base state atomically (must satisfy the dependencies).

        The state is validated into a staging area first and committed
        only when every tuple passes, so a violating base state raises
        :class:`InconsistentStateError` and leaves the checker exactly
        as it was — never partially loaded.  Tuples already present are
        skipped (inserts are set semantics, see :meth:`insert`).

        ``assume_valid=True`` skips the chase-method satisfaction
        check, for callers that have already validated the combined
        state by other means (the weak-instance service validates
        through its own live chase).  The local method always
        validates: its per-tuple index checks are cheap and double as
        the staging pass.

        Returns the tuples added, per relation of ``state``.
        """
        staged: Dict[str, List[Tuple]] = {}
        for scheme, relation in state:
            present = self._tuples[scheme.name]
            fresh: List[Tuple] = []
            seen: Set[Tuple] = set()
            for t in relation:
                if t in present or t in seen:
                    continue
                seen.add(t)
                fresh.append(self._own(scheme.name, t))
            staged[scheme.name] = fresh

        if self.method == "local":
            staged_indexes: Dict[str, List[_FDIndex]] = {}
            for name, fresh in staged.items():
                if not fresh:  # untouched scheme: keep its live indexes
                    continue
                indexes = [index.clone() for index in self._indexes[name]]
                for t in fresh:
                    for index in indexes:
                        if index.conflicts(t):
                            raise InconsistentStateError(
                                f"base state violates dependencies: tuple {t} in "
                                f"{name} violates {index.fd} (nothing was loaded)"
                            )
                    for index in indexes:
                        index.add(t)
                staged_indexes[name] = indexes
            self._indexes.update(staged_indexes)
        elif not assume_valid:
            combined = DatabaseState(
                self.schema,
                {
                    name: [*self._tuples[name], *fresh]
                    for name, fresh in staged.items()
                },
            )
            result = satisfies(combined, self.fds)
            if not result.satisfies:
                raise InconsistentStateError(
                    f"base state is not satisfying: {result.chase_result.contradiction}"
                )

        for name, fresh in staged.items():
            self._tuples[name].update(dict.fromkeys(fresh))
        return staged

    # -- queries ----------------------------------------------------------------

    def state(self) -> DatabaseState:
        """Immutable snapshot of the current state."""
        return DatabaseState(
            self.schema, {name: list(ts) for name, ts in self._tuples.items()}
        )

    def rows(self, scheme_name: str) -> KeysView[Tuple]:
        """One relation's stored tuples in insertion order — a live
        view, not a copy: iterate it without building a snapshot, but
        not across a mutation of the relation."""
        return self._tuples[scheme_name].keys()

    def fd_map(
        self, scheme_name: str, pos: int
    ) -> Dict[PyTuple[Any, ...], PyTuple[PyTuple[Any, ...], int]]:
        """The live ``lhs values → (rhs values, count)`` map of the index
        on the ``pos``-th FD of the relation's cover (local method) —
        the lookup a window plan probes; read it, never mutate it."""
        return self._indexes[scheme_name][pos]._map

    def total_tuples(self) -> int:
        return sum(len(ts) for ts in self._tuples.values())

    def _coerce(self, scheme_name: str, row: RowLike) -> Tuple:
        scheme = self.schema[scheme_name]
        if isinstance(row, Tuple):
            return self._own(scheme_name, row)
        from repro.data.relations import _coerce_row

        return _coerce_row(row, scheme.attributes, scheme.columns)

    def _own(self, scheme_name: str, t: Tuple) -> Tuple:
        """``t`` over the scheme's own :class:`AttributeSet` instance,
        so every stored tuple shares it instead of holding an equal
        copy (a tuple over other attributes is left for the caller's
        checks to refuse)."""
        attrs = self.schema[scheme_name].attributes
        if t.attributes is attrs or t.attributes != attrs:
            return t
        return Tuple(attrs, t.values)

    def coerce_tuple(self, scheme_name: str, row: RowLike) -> Tuple:
        """Interpret a row against the scheme's declared column order."""
        return self._coerce(scheme_name, row)

    # -- the maintenance operation ----------------------------------------------

    def check_insert(self, scheme_name: str, row: RowLike) -> InsertOutcome:
        """Would inserting the tuple keep the state satisfying?
        (Does not modify the checker.)"""
        t = self._coerce(scheme_name, row)
        if self.method == "local":
            for index in self._indexes[scheme_name]:
                if index.conflicts(t):
                    return InsertOutcome(
                        accepted=False,
                        scheme=scheme_name,
                        tuple=t,
                        method="local",
                        violated_fd=index.fd,
                        reason=f"violates {index.fd} against an existing tuple",
                    )
            return InsertOutcome(True, scheme_name, t, "local")

        candidate = self.state().with_tuple(scheme_name, t)
        result = satisfies(candidate, self.fds)
        if result.satisfies:
            return InsertOutcome(True, scheme_name, t, "chase")
        return InsertOutcome(
            accepted=False,
            scheme=scheme_name,
            tuple=t,
            method="chase",
            violated_fd=result.chase_result.contradiction.fd
            if result.chase_result.contradiction
            else None,
            reason=str(result.chase_result.contradiction),
        )

    def contains(self, scheme_name: str, row: RowLike) -> bool:
        """Is the tuple currently stored in the relation?"""
        return self._coerce(scheme_name, row) in self._tuples[scheme_name]

    def insert(self, scheme_name: str, row: RowLike) -> InsertOutcome:
        """Check and, when valid, apply the insertion.

        Set semantics: re-inserting a tuple already in the state is
        accepted (it trivially keeps the state satisfying) but changes
        nothing — the outcome's ``reason`` notes the duplicate.
        """
        outcome = self.check_insert(scheme_name, row)
        if outcome.accepted and not self.apply_insert(scheme_name, outcome.tuple):
            outcome = replace(
                outcome, reason="duplicate tuple: state unchanged (set semantics)"
            )
        return outcome

    def apply_insert(self, scheme_name: str, row: RowLike) -> bool:
        """Commit a tuple the caller has already validated, bypassing
        the dependency check (the weak-instance service validates
        through its own live chase).  Returns whether the state changed
        (False for a duplicate)."""
        t = self._coerce(scheme_name, row)
        stored = self._tuples[scheme_name]
        if t in stored:
            return False
        stored[t] = None
        for index in self._indexes[scheme_name]:
            index.add(t)
        return True

    def delete(self, scheme_name: str, row: RowLike) -> bool:
        """Deletions are always safe; returns whether the tuple existed."""
        t = self._coerce(scheme_name, row)
        stored = self._tuples[scheme_name]
        if t not in stored:
            return False
        del stored[t]
        for index in self._indexes[scheme_name]:
            index.remove(t)
        return True
