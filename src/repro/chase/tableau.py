"""Chase tableaux with persistent incremental indexes.

A :class:`ChaseTableau` is the universal relation ``I(p)`` of Section 2:
one row per stored tuple, padded out to the universe ``U`` with fresh
variables.  Symbols (constants and variables) are interned integers
managed by a union-find, so the FD-rule's "replace all occurrences"
is a single union operation.

Beyond the rows themselves, the tableau maintains the index structures
the incremental chase engine (:mod:`repro.chase.engine`) is built on:

* an **occurrence index** mapping each symbol class root to the set of
  ``(row, column)`` positions holding a member of that class, so a
  merge knows exactly which rows it touched;
* a **dirty-row worklist**: every row changed since the last
  :meth:`drain_dirty` call, together with the columns that changed, so
  a chase fixpoint pass revisits only rows whose symbols moved;
* a lazily materialized **per-attribute value index**
  (:meth:`value_index`): for a column, the partition of rows by their
  current symbol class — the FD-rule's row-pair lookup for
  single-attribute left-hand sides;
* a **version stamp** (:attr:`version`) bumped on every row addition,
  merge, and retraction, keying memoized derived data such as
  :meth:`resolved_rows` and the engine's projection caches;
* an opt-in **merge log** (:meth:`enable_merge_log`): one
  :class:`MergeEvent` per successful union, recording which row pair
  under which FD justified it, indexed by participating row and by
  (current) left-hand-side class — the provenance that
  :meth:`retraction_impact` walks to scope a delete.

Two facilities exist specifically for the **column-major bulk chase
kernel** (:mod:`repro.chase.bulk`):

* :meth:`bulk_ingest` builds a fresh tableau column by column —
  constants interned and variables allocated in per-column batches,
  with none of ``add_row``'s per-cell occurrence bookkeeping.  The
  occurrence index of an ingested (or bulk-chased) tableau is
  **deferred**: it is rebuilt in one pass the first time something
  actually reads it (a merge, a retraction, ``live_row_matching``),
  so from-scratch chases that never do incremental work never pay
  for it.
* :meth:`install_bulk_chase` is the kernel's hand-off: it accounts the
  kernel's merges into :attr:`version`, installs the batch-recorded
  merge provenance into the log indexes, and invalidates every derived
  structure the kernel bypassed.  After it returns the tableau is
  indistinguishable from one chased row-at-a-time (the invariant
  ``check_index_invariants`` verifies and the bulk oracle suite pins).

Row **retraction** (:meth:`retract_row`) is the delete-side
counterpart of the incremental chase: instead of discarding a chased
tableau because one source tuple went away, the tableau computes the
retracted row's *footprint* — the symbol classes whose unions depend
(transitively) on merges that row participated in — dissolves exactly
those classes back to their original interned symbols, and re-seeds
the dirty worklist with the rows they touched.  Driving the ordinary
FD fixpoint afterwards (``IncrementalFDChaser.rechase_scoped``)
re-derives every union still justified by the surviving rows, so the
tableau ends observationally equivalent to a from-scratch chase of the
state minus the tuple while untouched partitions, value indexes, and
occurrence-index entries stay live.

All indexes are maintained through :meth:`ChaseTableau.merge`; calling
``tableau.symbols.merge`` directly still works but bypasses index
maintenance, so only do that on tableaux you will not chase afterwards
(the naive reference engine in :mod:`repro.chase.reference` does this
deliberately, to preserve the un-indexed baseline).  Retraction
additionally requires every merge to have flowed through
:meth:`ChaseTableau.merge` *with provenance* while the log was enabled
— any unlogged merge (or any non-``"state"`` row, whose existence the
log cannot justify) marks the log incomplete and
:meth:`retraction_impact` reports the whole tableau as affected.

The tableau is the shared substrate of every chase in the library:
satisfaction testing (Section 2), FD implication under ``F ∪ {*D}``
(Section 3, two-row tableaux), the lossless-join test of [ABU], and
weak-instance materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

from repro.data.relations import RelationInstance
from repro.data.states import DatabaseState
from repro.data.tuples import Tuple
from repro.data.values import Null, is_null
from repro.exceptions import InstanceError
from repro.schema.attributes import AttributeSet, AttrsLike
from repro.util.unionfind import IntUnionFind

_CONST_SENTINEL = object()
_ABSENT = object()


class SymbolTable:
    """Interned symbols with union-find merging.

    Every symbol is an ``int``.  A symbol is a *constant* when it has an
    associated value, otherwise a *variable* (the paper's ndv/dv).
    Merging two constants with different values is a *contradiction*;
    merging a constant with a variable promotes the class to constant.
    """

    __slots__ = ("_uf", "_const", "_by_value", "_interned", "find")

    def __init__(self) -> None:
        self._uf = IntUnionFind()
        self._const: Dict[int, Any] = {}
        self._by_value: Dict[Any, int] = {}
        # symbol -> value at intern time; never mutated, so class
        # dissolution can restore a symbol's constant-ness after the
        # root-keyed _const entry has been merged away
        self._interned: Dict[int, Any] = {}
        # bound method, so hot loops resolve symbols without an extra
        # attribute hop (`find = tableau.symbols.find` is pervasive)
        self.find = self._uf.find

    def fresh_variable(self) -> int:
        return self._uf.add_next()

    def constant(self, value: Any, namespace: Any = None) -> int:
        """The unique symbol for a constant value (interned).

        ``namespace`` partitions the intern table: the tableau interns
        per *column*, so the same value in two columns gets two
        symbols.  Nothing in the chase ever compares symbols across
        columns (FD agreement, value indexes, and join keys are all
        per-column; queries compare resolved *values*), and keeping the
        columns apart keeps each symbol class — and therefore each
        retraction footprint — within one column's derivation family
        instead of bridging unrelated rows that merely reuse a value.
        """
        if is_null(value):
            raise InstanceError(
                "labelled nulls cannot enter a tableau as constants; "
                "use fresh variables instead"
            )
        key = (namespace, value)
        try:
            return self._by_value[key]
        except KeyError:
            pass
        except TypeError:
            raise InstanceError(f"unhashable constant {value!r}") from None
        sym = self.fresh_variable()
        self._const[sym] = value
        self._by_value[key] = sym
        self._interned[sym] = value
        return sym

    def is_interned(self, sym: int) -> bool:
        """Was the symbol created as a constant (as opposed to a
        variable whose class later acquired one)?"""
        return sym in self._interned

    def interned_symbol(self, value: Any, namespace: Any = None) -> Optional[int]:
        """The symbol :meth:`constant` interned for the value, or
        ``None`` — a lookup that never interns."""
        try:
            return self._by_value.get((namespace, value))
        except TypeError:
            return None

    def value_of(self, sym: int) -> Any:
        """The constant value of the symbol's class, or ``_CONST_SENTINEL``."""
        return self._const.get(self.find(sym), _CONST_SENTINEL)

    def is_constant(self, sym: int) -> bool:
        return self.find(sym) in self._const

    def merge(self, a: int, b: int) -> PyTuple[bool, Optional[PyTuple[Any, Any]]]:
        """Union the classes of ``a`` and ``b``.

        Returns ``(changed, conflict)``: ``conflict`` is the pair of
        distinct constant values when both classes were constants —
        the chase's contradiction.
        """
        changed, conflict, _, _ = self.merge_roots(a, b)
        return changed, conflict

    def merge_roots(
        self, a: int, b: int
    ) -> PyTuple[bool, Optional[PyTuple[Any, Any]], int, int]:
        """Union with full merge provenance.

        Returns ``(changed, conflict, survivor, absorbed)``: the class
        root that survived the union and the root whose class was
        folded into it.  Index maintenance
        (:meth:`ChaseTableau.merge`) needs the absorbed root to know
        which positions changed class.
        """
        ra, rb = self._uf.find(a), self._uf.find(b)
        if ra == rb:
            return False, None, ra, ra
        ca = self._const.get(ra, _CONST_SENTINEL)
        cb = self._const.get(rb, _CONST_SENTINEL)
        if ca is not _CONST_SENTINEL and cb is not _CONST_SENTINEL:
            if ca != cb:
                return False, (ca, cb), ra, rb
        root = self._uf.union(ra, rb)
        absorbed = rb if root == ra else ra
        winner = ca if ca is not _CONST_SENTINEL else cb
        if winner is not _CONST_SENTINEL:
            self._const.pop(ra, None)
            self._const.pop(rb, None)
            self._const[root] = winner
        return True, None, root, absorbed

    def resolve_value(self, sym: int) -> Any:
        """Constant value, or a :class:`Null` labelled by the class root."""
        root = self.find(sym)
        val = self._const.get(root, _CONST_SENTINEL)
        if val is _CONST_SENTINEL:
            return Null(root)
        return val

    def dissolve(self, root: int, members: Iterable[int]) -> None:
        """Break the class rooted at ``root`` back into singletons.

        ``members`` must enumerate **every** symbol of the class (the
        tableau derives them from the occurrence index, which is why
        retraction only supports symbols that live in rows).  Interned
        members get their constant-ness back — dissolution splits a
        class into the symbols it was built from, and an interned
        symbol *is* its value.
        """
        self._const.pop(root, _CONST_SENTINEL)
        self._uf.reset_singletons(members)
        self._uf.reset_singletons((root,))
        interned = self._interned
        for s in members:
            value = interned.get(s, _CONST_SENTINEL)
            if value is not _CONST_SENTINEL:
                self._const[s] = value
        value = interned.get(root, _CONST_SENTINEL)
        if value is not _CONST_SENTINEL:
            self._const[root] = value


@dataclass(frozen=True)
class RowOrigin:
    """Provenance of a tableau row (for traces and counterexamples)."""

    kind: str  # "state", "seed", "jd"
    scheme: Optional[str] = None
    detail: str = ""


@dataclass(frozen=True)
class MergeEvent:
    """One logged FD-rule union: which row pair, agreeing on which
    left-hand-side columns, equated which two symbols (in ``col``).

    ``sym_a``/``sym_b`` are the symbols as merged (not resolved); after
    the union they resolve to one root, which identifies the class the
    event contributed to.  ``fd`` is kept for introspection only — the
    taint computation needs just the rows and ``lhs_cols``.
    """

    row_a: int
    row_b: int
    col: int
    sym_a: int
    sym_b: int
    lhs_cols: PyTuple[int, ...]
    fd: Optional[Any] = None


@dataclass
class RetractionImpact:
    """The footprint of retracting one row (see :meth:`ChaseTableau.retraction_impact`).

    ``complete=False`` means the merge log cannot scope this tableau
    (logging disabled, an unlogged/unprovenanced merge, or derived
    rows); callers must treat the whole tableau as affected — the
    weak-instance service falls back to a rebuild in that case, and
    :meth:`ChaseTableau.retract_row` refuses to run.
    """

    row: int
    complete: bool
    tainted_roots: Set[int] = field(default_factory=set)
    tainted_events: Set[int] = field(default_factory=set)
    affected_rows: Set[int] = field(default_factory=set)
    changed_cols: Set[int] = field(default_factory=set)
    #: the row resolved to *values* before retraction (constants, or
    #: labelled nulls for variable positions) — the window
    #: revalidation's record of what the deleted row contributed
    resolved_values: PyTuple[Any, ...] = ()


class ChaseTableau:
    """Rows of interned symbols over a fixed universe, with incremental
    indexes (see the module docstring for the index inventory)."""

    __slots__ = (
        "universe",
        "_cols",
        "_colidx",
        "symbols",
        "_rows",
        "_origins",
        "_occ",
        "_occ_stale",
        "_all_columnar",
        "_version_base",
        "_dirty",
        "_attr_index",
        "_shared",
        "_merge_count",
        "_resolved_cache",
        "_retracted",
        "_log_enabled",
        "_log_gap",
        "_derived_rows",
        "_merge_log",
        "_events_by_row",
        "_events_by_root",
        "_events_by_union",
        "_next_event_id",
        "_events_stale",
    )

    def __init__(self, universe: AttrsLike):
        uni = AttributeSet(universe)
        if not uni:
            raise InstanceError("a tableau needs a non-empty universe")
        self.universe = uni
        self._cols: PyTuple[str, ...] = uni.names
        self._colidx = {a: i for i, a in enumerate(self._cols)}
        self.symbols = SymbolTable()
        self._rows: List[PyTuple[int, ...]] = []
        self._origins: List[RowOrigin] = []
        # root -> list of positions (row * ncols + col) held by the class.
        self._occ: Dict[int, List[int]] = {}
        # bulk paths (ingest, bulk chase) defer occurrence maintenance:
        # while stale, readers rebuild the index in one pass on demand
        # and add_row skips its per-cell updates (the rebuild covers
        # them).  From-scratch chases that never merge incrementally or
        # retract never pay for the index at all.
        self._occ_stale = False
        # every row so far was built through the per-column symbol
        # discipline (constants interned per column, padding variables
        # fresh) — the invariant the bulk kernel's "a symbol class
        # lives in exactly one column" reasoning rests on.  Cleared by
        # any direct add_row/seed_row with caller-supplied symbols.
        self._all_columnar = True
        # version floor carried over from a predecessor tableau (see
        # offset_version_base): keeps version stamps monotone across
        # service rebuilds so a version-keyed cache can never mistake
        # a fresh tableau for the one it replaced
        self._version_base: PyTuple[int, int] = (0, 0)
        # dirty worklist: row -> set of changed columns, or None = all.
        self._dirty: Dict[int, Optional[Set[int]]] = {}
        # lazily materialized per-column value index: col -> root -> rows.
        self._attr_index: Dict[int, Dict[int, Set[int]]] = {}
        # for each materialized column, the roots shared by ≥2 rows —
        # the only classes the FD-rule can ever fire on.
        self._shared: Dict[int, Set[int]] = {}
        self._merge_count = 0
        self._resolved_cache: Optional[PyTuple[PyTuple[int, int], List]] = None
        # retracted row slots: excluded from projections, the value
        # indexes, and the engine; kept in _rows/_occ so positions stay
        # stable and class dissolution can enumerate every symbol.
        self._retracted: Set[int] = set()
        # merge log (opt-in, see enable_merge_log): event id -> entry
        # tuple (row_a, row_b, col, sym_a, sym_b, lhs_cols, fd), in
        # firing order, plus the two access paths the taint walk needs
        # — by participating row and by (current) lhs class root.  The
        # root-keyed lists ride along with the occurrence buckets:
        # merging two classes concatenates their event lists.  Pruned
        # events leave stale ids behind in the row/root lists; readers
        # filter against _merge_log membership.
        self._log_enabled = False
        self._log_gap = False
        self._derived_rows = 0
        self._merge_log: Dict[int, PyTuple] = {}
        self._events_by_row: Dict[int, List[int]] = {}
        self._events_by_root: Dict[int, List[int]] = {}
        # events keyed by the class their *union* lives in (as opposed
        # to _events_by_root, keyed by lhs dependency): dissolving a
        # class prunes exactly this list, so the log always holds one
        # event per live union — no duplicate accumulation across
        # delete/re-insert cycles
        self._events_by_union: Dict[int, List[int]] = {}
        self._next_event_id = 0
        # pruned-event ids linger in _events_by_root lists under roots
        # the retraction never visited; this counts them so the index
        # can be swept when the stale mass rivals the live log
        self._events_stale = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_state(cls, state: DatabaseState, columnar: bool = True) -> "ChaseTableau":
        """``I(p)``: pad every stored tuple to ``U`` with fresh variables.

        ``columnar=True`` (the default) builds through
        :meth:`bulk_ingest`: column-major interning, symbol ids
        allocated column by column, no per-cell occurrence bookkeeping
        — the layout the bulk chase kernel's column sweeps want, and
        observationally identical to a row-at-a-time construction.
        ``columnar=False`` restores the row-at-a-time build whose
        row-contiguous symbol allocation the *incremental* engine's
        access pattern prefers — each engine is measurably faster on
        its matching layout, so benchmark baselines pin this explicitly.
        """
        tab = cls(state.schema.universe)
        if columnar:
            ingest = tab.bulk_ingest()
            for scheme, relation in state:
                origin = RowOrigin("state", scheme.name)
                for t in relation:
                    ingest.add_padded(scheme.attributes, t, origin)
            ingest.finish()
        else:
            for scheme, relation in state:
                origin = RowOrigin("state", scheme.name)
                for t in relation:
                    tab.add_padded(scheme.attributes, t, origin)
        return tab

    def bulk_ingest(self) -> "BulkIngest":
        """Column-major batch construction (must be the first thing
        that ever touches the tableau; see :class:`BulkIngest`)."""
        return BulkIngest(self)

    def add_padded(self, attrset: AttributeSet, t: Tuple, origin: RowOrigin) -> int:
        """Add a tuple over a sub-scheme, padded with fresh variables."""
        row = []
        for a in self._cols:
            if a in attrset:
                row.append(self.symbols.constant(t.value(a), a))
            else:
                row.append(self.symbols.fresh_variable())
        # constants interned per column + fresh padding: the per-column
        # symbol discipline holds, so bulk eligibility is preserved
        return self.add_row(tuple(row), origin, _columnar=True)

    def add_row(
        self, syms: PyTuple[int, ...], origin: RowOrigin, _columnar: bool = False
    ) -> int:
        ncols = len(self._cols)
        if len(syms) != ncols:
            raise InstanceError("row arity does not match the universe")
        if origin is None or origin.kind != "state":
            # seed/jd rows exist for reasons the merge log cannot see,
            # so retraction cannot scope a tableau containing them
            self._derived_rows += 1
        if not _columnar:
            # caller-supplied symbols may cross columns, so the bulk
            # kernel's per-column class reasoning no longer applies
            self._all_columnar = False
        i = len(self._rows)
        self._rows.append(syms)
        self._origins.append(origin)
        find = self.symbols.find
        base = i * ncols
        occ = self._occ
        occ_live = not self._occ_stale
        for c, sym in enumerate(syms):
            root = find(sym)
            if occ_live:
                bucket = occ.get(root)
                if bucket is None:
                    occ[root] = [base + c]
                else:
                    bucket.append(base + c)
            col_index = self._attr_index.get(c)
            if col_index is not None:
                members = col_index.get(root)
                if members is None:
                    col_index[root] = {i}
                else:
                    members.add(i)
                    if len(members) == 2:
                        self._shared[c].add(root)
        self._dirty[i] = None  # new rows are dirty in every column
        return i

    def seed_row(self, shared: Dict[str, int], origin: RowOrigin) -> int:
        """Add a row with given symbols in some columns, fresh elsewhere
        (used by implication tableaux)."""
        row = []
        for a in self._cols:
            row.append(shared.get(a, self.symbols.fresh_variable()))
        return self.add_row(tuple(row), origin)

    # -- merging (index-maintaining) ------------------------------------------

    def merge(
        self,
        a: int,
        b: int,
        row_a: int = -1,
        row_b: int = -1,
        col: int = -1,
        lhs_cols: PyTuple[int, ...] = (),
        fd: Optional[Any] = None,
    ) -> PyTuple[bool, Optional[PyTuple[Any, Any]]]:
        """Union two symbol classes, keeping every index current.

        The rows holding a member of the absorbed class are marked
        dirty with the exact columns that changed; the occurrence and
        value indexes are rebucketed under the surviving root (whole
        absorbed buckets move at once — never row by row).  Returns
        ``(changed, conflict)`` exactly like :meth:`SymbolTable.merge`.

        When the merge log is enabled (:meth:`enable_merge_log`), pass
        the justifying provenance — the row pair that agreed on
        ``lhs_cols`` and forced the union in ``col`` — so the union can
        later be scoped by :meth:`retraction_impact`.  A provenance-less
        merge while the log is enabled marks the log incomplete and
        disables scoped retraction for good.
        """
        if self._occ_stale:
            self._rebuild_occ()
        changed, conflict, survivor, absorbed = self.symbols.merge_roots(a, b)
        if not changed:
            return False, conflict
        self._merge_count += 1
        if self._log_enabled:
            if row_a < 0:
                self._log_gap = True
            else:
                eid = self._next_event_id
                self._next_event_id = eid + 1
                # plain tuple, not a MergeEvent: this runs once per
                # union and dataclass construction is measurably hot;
                # merge_log() wraps entries for the public API
                self._merge_log[eid] = (row_a, row_b, col, a, b, lhs_cols, fd)
                by_row = self._events_by_row
                for r in (row_a, row_b):
                    lst = by_row.get(r)
                    if lst is None:
                        by_row[r] = [eid]
                    else:
                        lst.append(eid)
                # The rows agree on lhs_cols by construction, so one
                # registration per column covers both rows.  Columns
                # where the two rows hold the *same raw symbol* are
                # skipped: that agreement is identity (a shared
                # interned constant), owes nothing to the class's
                # unions, and can never be broken by a retraction —
                # registering it would drag every event of the shared
                # class into unrelated rows' taint footprints.
                by_root = self._events_by_root
                lhs_a = self._rows[row_a]
                lhs_b = self._rows[row_b]
                find = self.symbols.find
                for c in lhs_cols:
                    if lhs_a[c] == lhs_b[c]:
                        continue
                    root = find(lhs_a[c])
                    lst = by_root.get(root)
                    if lst is None:
                        by_root[root] = [eid]
                    else:
                        lst.append(eid)
                by_union = self._events_by_union
                lst = by_union.get(survivor)
                if lst is None:
                    by_union[survivor] = [eid]
                else:
                    lst.append(eid)
            # the absorbed class's dependants (and its unions' events)
            # now belong to the survivor
            for index in (self._events_by_root, self._events_by_union):
                moved_events = index.pop(absorbed, None)
                if moved_events:
                    existing = index.get(survivor)
                    if existing is None:
                        index[survivor] = moved_events
                    else:
                        existing.extend(moved_events)
        moved = self._occ.pop(absorbed, None)
        if moved:
            occ = self._occ
            bucket = occ.get(survivor)
            if bucket is None:
                occ[survivor] = moved
            else:
                bucket.extend(moved)
            ncols = len(self._cols)
            dirty = self._dirty
            attr_index = self._attr_index
            touched_cols: Set[int]
            if len(moved) == 1:
                r, c = divmod(moved[0], ncols)
                cols = dirty.get(r, _ABSENT)
                if cols is _ABSENT:
                    dirty[r] = {c}
                elif cols is not None:
                    cols.add(c)
                touched_cols = {c}
            else:
                touched_cols = set()
                for pos in moved:
                    r, c = divmod(pos, ncols)
                    cols = dirty.get(r, _ABSENT)
                    if cols is _ABSENT:
                        dirty[r] = {c}
                    elif cols is not None:
                        cols.add(c)
                    touched_cols.add(c)
            for c in touched_cols:
                col_index = attr_index.get(c)
                if col_index is None:
                    continue
                members = col_index.pop(absorbed, None)
                if members is None:
                    continue
                shared = self._shared[c]
                shared.discard(absorbed)
                existing = col_index.get(survivor)
                if existing is None:
                    col_index[survivor] = members
                    if len(members) >= 2:
                        shared.add(survivor)
                else:
                    existing.update(members)
                    if len(existing) >= 2:
                        shared.add(survivor)
        return True, None

    # -- deferred occurrence index ---------------------------------------------

    def _rebuild_occ(self) -> None:
        """One-pass reconstruction of the occurrence index (every row
        ever added, retracted included — dissolution must be able to
        enumerate a class's symbols).  The bulk paths defer occurrence
        maintenance and leave the index stale; the first reader lands
        here."""
        occ: Dict[int, List[int]] = {}
        find = self.symbols.find
        parent = self.symbols._uf._parent
        pos = 0
        for row in self._rows:
            for s in row:
                r = parent[s]
                if parent[r] != r:
                    r = find(s)
                bucket = occ.get(r)
                if bucket is None:
                    occ[r] = [pos]
                else:
                    bucket.append(pos)
                pos += 1
        self._occ = occ
        self._occ_stale = False

    # -- dirty worklist ---------------------------------------------------------

    def drain_dirty(self) -> Dict[int, Optional[Set[int]]]:
        """Return and clear the dirty worklist.

        The result maps row index to the set of columns whose symbol
        class changed since the last drain; ``None`` means "all
        columns" (freshly added rows).
        """
        out = self._dirty
        self._dirty = {}
        return out

    def dirty_count(self) -> int:
        return len(self._dirty)

    # -- bulk chase handoff ------------------------------------------------------

    @property
    def bulk_eligible(self) -> bool:
        """Can the column-major bulk kernel chase this tableau?

        Requires a *fresh* columnar tableau: no merges applied yet, no
        retracted slots, and every row built through the per-column
        symbol discipline (``add_padded`` / :meth:`bulk_ingest`) — the
        kernel's delta propagation relies on every symbol class living
        in exactly one column, which caller-supplied symbols
        (``seed_row``, direct ``add_row``) can violate.
        """
        return (
            self._merge_count == 0
            and not self._retracted
            and self._all_columnar
        )

    def install_bulk_chase(
        self, merges: int, events: Optional[List[PyTuple]] = None
    ) -> None:
        """Account a finished bulk-kernel run into the tableau.

        The kernel unions through the symbol table directly, so the
        per-merge index maintenance of :meth:`merge` never ran; this
        settles the books in one batch: the merge count (and with it
        :attr:`version`) absorbs the kernel's unions, the occurrence
        index is marked stale (rebuilt lazily by its next reader), any
        pre-materialized value indexes are dropped for lazy
        rematerialization, and the worklist is cleared — a bulk-chased
        tableau is at fixpoint by construction.

        ``events`` is the kernel's batch-recorded merge provenance
        (same entry shape as the live log).  Indexing it here, after
        the run, lands in the same state as logging during the run:
        the row/union/lhs-class indexes key events by *current* roots,
        and the taint walk only ever compares against current roots.
        Omitting ``events`` while the log is enabled marks the log
        incomplete, exactly like an unprovenanced live merge.
        """
        self._merge_count += merges
        self._resolved_cache = None
        self._occ_stale = True
        self._attr_index.clear()
        self._shared.clear()
        self._dirty.clear()
        if not self._log_enabled:
            return
        if events is None:
            if merges:
                self._log_gap = True
            return
        find = self.symbols.find
        log = self._merge_log
        by_row = self._events_by_row
        by_root = self._events_by_root
        by_union = self._events_by_union
        rows = self._rows
        eid = self._next_event_id
        for entry in events:
            row_a, row_b, _col, sym_a, _sym_b, lhs_cols, _fd = entry
            log[eid] = entry
            for r in (row_a, row_b):
                lst = by_row.get(r)
                if lst is None:
                    by_row[r] = [eid]
                else:
                    lst.append(eid)
            # identity lhs agreements are skipped for the same reason
            # the live path skips them: a shared raw symbol owes
            # nothing to any union and can never be broken
            lhs_a = rows[row_a]
            lhs_b = rows[row_b]
            for c in lhs_cols:
                if lhs_a[c] == lhs_b[c]:
                    continue
                root = find(lhs_a[c])
                lst = by_root.get(root)
                if lst is None:
                    by_root[root] = [eid]
                else:
                    lst.append(eid)
            root = find(sym_a)
            lst = by_union.get(root)
            if lst is None:
                by_union[root] = [eid]
            else:
                lst.append(eid)
            eid += 1
        self._next_event_id = eid

    # -- merge log & retraction --------------------------------------------------

    def enable_merge_log(self) -> None:
        """Start recording merge provenance (scoped retraction needs it).

        Must be called before any merge; enabling after merges have
        already happened leaves a permanent gap and the log stays
        incomplete.  :class:`~repro.chase.engine.IncrementalFDChaser`
        enables the log on construction, so every service tableau is
        retractable from the start.  Re-enabling an already-enabled log
        is a no-op (the bulk→incremental handoff constructs a driver
        over a tableau whose log the bulk kernel already populated).
        """
        if self._merge_count and not self._log_enabled:
            self._log_gap = True
        self._log_enabled = True

    @property
    def merge_log_enabled(self) -> bool:
        """Is merge provenance being recorded?  (The auto bulk routing
        consults this: a kernel run over a log-enabled tableau must
        batch-record events, or the log would gap and scoped retraction
        would be lost.)"""
        return self._log_enabled

    @property
    def merge_log_complete(self) -> bool:
        """Can :meth:`retraction_impact` scope this tableau?  Requires
        logging enabled before the first merge, provenance on every
        merge since, and no seed/JD rows."""
        return self._log_enabled and not self._log_gap and not self._derived_rows

    def merge_log(self) -> List[MergeEvent]:
        """The live merge events in firing order (pruned events gone)."""
        return [MergeEvent(*entry) for entry in self._merge_log.values()]

    def is_retracted(self, i: int) -> bool:
        return i in self._retracted

    def live_row_count(self) -> int:
        """Rows that still contribute to projections (total minus
        retracted)."""
        return len(self._rows) - len(self._retracted)

    def retraction_impact(self, i: int) -> RetractionImpact:
        """The footprint of retracting row ``i`` — computed, not applied.

        Walks the merge log outward from the row's own merge events:
        an event is *tainted* when the row participated in it or when
        the class its left-hand-side agreement lives in is tainted
        (the union that justified the agreement is being undone), and
        a tainted event taints the class its union built.  Comparing
        against **current** roots over-approximates the true derivation
        (classes only grow between retractions, so any class a tainted
        merge fed into is reached) — sound, and exactly the DRed
        delete-and-rederive over-estimate.  Cost is proportional to
        the tainted footprint, not the tableau.
        """
        if i in self._retracted:
            raise InstanceError(f"row {i} is already retracted")
        if self._occ_stale:
            self._rebuild_occ()
        resolve = self.symbols.resolve_value
        resolved_values = tuple(resolve(s) for s in self._rows[i])
        if not self.merge_log_complete:
            impact = RetractionImpact(row=i, complete=False)
            impact.resolved_values = resolved_values
            impact.affected_rows = {
                r for r in range(len(self._rows))
                if r != i and r not in self._retracted
            }
            impact.changed_cols = set(range(len(self._cols)))
            return impact
        find = self.symbols.find
        log = self._merge_log
        tainted_roots: Set[int] = set()
        tainted_events: Set[int] = set()
        seeds = self._events_by_row.get(i)
        worklist: List[int] = []
        if seeds:
            # compact the stale ids of previously pruned events away
            live = [eid for eid in seeds if eid in log]
            self._events_by_row[i] = live
            worklist.extend(live)
        while worklist:
            eid = worklist.pop()
            if eid in tainted_events:
                continue
            tainted_events.add(eid)
            root = find(log[eid][3])  # entry[3] = sym_a
            if root in tainted_roots:
                continue
            tainted_roots.add(root)
            dependants = self._events_by_root.get(root)
            if dependants:
                worklist.extend(e for e in dependants if e in log)
        # Affected rows: every live holder of a tainted class.  Rows
        # that only touch the class through its interned constant keep
        # their resolution (identity survives dissolution), but they
        # still must be re-seeded: an undone union can pair a constant
        # holder with the *retracted* row's variable, and under a
        # multi-attribute lhs the bucket path has no class sweep to
        # re-link the constant holder through — only its own dirty
        # processing re-derives the union.  Changed columns are
        # tighter: only variable positions can change resolution, so
        # only they can invalidate a cached window.
        affected_rows: Set[int] = set()
        changed_cols: Set[int] = set()
        ncols = len(self._cols)
        retracted = self._retracted
        rows = self._rows
        is_interned = self.symbols.is_interned
        for root in tainted_roots:
            for pos in self._occ.get(root, ()):
                r, c = divmod(pos, ncols)
                if r == i or r in retracted:
                    continue
                affected_rows.add(r)
                if not is_interned(rows[r][c]):
                    changed_cols.add(c)
        return RetractionImpact(
            row=i,
            complete=True,
            tainted_roots=tainted_roots,
            tainted_events=tainted_events,
            affected_rows=affected_rows,
            changed_cols=changed_cols,
            resolved_values=resolved_values,
        )

    def retract_row(self, i: int, impact: Optional[RetractionImpact] = None) -> RetractionImpact:
        """Remove row ``i`` and undo exactly its merge footprint.

        Every tainted class is dissolved back to its original interned
        symbols, the occurrence and value indexes are rebucketed for
        just those classes, the tainted merge events are pruned from
        the log, and the affected rows are seeded into the dirty
        worklist (all columns — the unions being undone may need
        re-deriving under FDs whose *right*-hand side mentions the
        dissolved column, which the changed-column filter would skip).
        The caller must then drive the FD fixpoint
        (:meth:`~repro.chase.engine.IncrementalFDChaser.rechase_scoped`)
        to re-derive the unions still justified by the surviving rows.
        """
        if self._occ_stale:
            self._rebuild_occ()
        if impact is None:
            impact = self.retraction_impact(i)
        if not impact.complete:
            raise InstanceError(
                "cannot scope the retraction: the merge log is incomplete "
                "(enable_merge_log before the first merge, provenance on "
                "every merge, state rows only) — rebuild the tableau instead"
            )
        find = self.symbols.find
        log = self._merge_log
        rows = self._rows
        ncols = len(self._cols)
        occ = self._occ
        attr_index = self._attr_index
        shared = self._shared
        retracted = self._retracted
        # 1. prune the undone derivation (uses pre-dissolution roots).
        # Every event whose *union* lives in a dissolved class goes —
        # not just the tainted ones: an untainted event co-dissolved
        # with its class gets re-derived and re-logged by the rechase,
        # and leaving the old entry behind would duplicate it on every
        # delete/re-insert cycle (an unbounded log on a bounded state).
        pruned_rows: Set[int] = set()
        pruned = 0
        for root in impact.tainted_roots:
            for eid in self._events_by_union.pop(root, ()):
                entry = log.pop(eid, None)
                if entry is not None:
                    pruned += 1
                    pruned_rows.add(entry[0])
                    pruned_rows.add(entry[1])
        for eid in impact.tainted_events:
            entry = log.pop(eid, None)
            if entry is not None:
                pruned += 1
                pruned_rows.add(entry[0])
                pruned_rows.add(entry[1])
        self._events_by_row.pop(i, None)
        pruned_rows.discard(i)
        # compact the pruned ids out of the row-keyed lists right away:
        # rows that are never retracted would otherwise accumulate
        # stale ids across delete/re-insert cycles forever
        by_row = self._events_by_row
        for r in pruned_rows:
            lst = by_row.get(r)
            if lst is not None:
                live = [eid for eid in lst if eid in log]
                if live:
                    by_row[r] = live
                else:
                    del by_row[r]
        # the lhs-dependency lists can hold pruned ids under roots this
        # retraction never visited; sweep them (amortized) once the
        # stale mass rivals the live log, so long delete streams on a
        # bounded state keep a bounded index
        self._events_stale += pruned
        if self._events_stale > max(64, len(log)):
            by_root = self._events_by_root
            for root in list(by_root):
                live = [eid for eid in by_root[root] if eid in log]
                if live:
                    by_root[root] = live
                else:
                    del by_root[root]
            self._events_stale = 0
        # 2. dissolve each tainted class and rebucket its footprint
        for root in impact.tainted_roots:
            positions = occ.pop(root, None) or []
            members = {rows[pos // ncols][pos % ncols] for pos in positions}
            self.symbols.dissolve(root, members)
            self._events_by_root.pop(root, None)
            col_buckets: Dict[int, Dict[int, Set[int]]] = {}
            touched_cols: Set[int] = set()
            for pos in positions:
                r, c = divmod(pos, ncols)
                s = rows[r][c]  # now its own singleton root
                bucket = occ.get(s)
                if bucket is None:
                    occ[s] = [pos]
                else:
                    bucket.append(pos)
                if c in attr_index:
                    touched_cols.add(c)
                    if r != i and r not in retracted:
                        col_buckets.setdefault(c, {}).setdefault(s, set()).add(r)
            for c in touched_cols:
                col_index = attr_index[c]
                col_index.pop(root, None)
                col_shared = shared[c]
                col_shared.discard(root)
                for s, members_rows in col_buckets.get(c, {}).items():
                    col_index[s] = members_rows
                    if len(members_rows) >= 2:
                        col_shared.add(s)
        # 3. drop the retracted row from the untainted value-index buckets
        row_i = rows[i]
        for c, col_index in attr_index.items():
            root = find(row_i[c])
            members_rows = col_index.get(root)
            if members_rows is not None and i in members_rows:
                members_rows.discard(i)
                if not members_rows:
                    del col_index[root]
                    shared[c].discard(root)
                elif len(members_rows) < 2:
                    shared[c].discard(root)
        # 4. mark retracted, reseed the worklist, stamp a new version
        retracted.add(i)
        dirty = self._dirty
        dirty.pop(i, None)
        for r in impact.affected_rows:
            dirty[r] = None
        self._merge_count += 1
        self._resolved_cache = None
        return impact

    # -- access ------------------------------------------------------------------

    @property
    def columns(self) -> PyTuple[str, ...]:
        return self._cols

    def column_index(self, attr: str) -> int:
        return self._colidx[attr]

    @property
    def version(self) -> PyTuple[int, int]:
        """``(rows, merges)`` — changes iff the tableau changed.  Used
        as the key of every memoized derived structure.  Both
        components carry the base installed by
        :meth:`offset_version_base`, so a rebuilt tableau's stamps
        continue strictly after its predecessor's.
        """
        base = self._version_base
        return (len(self._rows) + base[0], self._merge_count + base[1])

    def offset_version_base(self, floor: PyTuple[int, int]) -> None:
        """Make every future :attr:`version` strictly greater than
        ``floor`` (a predecessor tableau's last observed version).

        Services rebuild their live tableau from scratch on
        invalidation; without a carried base the fresh tableau's
        ``(rows, merges)`` counters restart and can coincidentally
        reproduce a stamp the superseded tableau already handed to a
        version-keyed cache — which would let the cache serve a
        pre-rebuild entry as current.  Call it before the tableau's
        stamps are given out; only double installation is detected
        (stamps issued pre-base stay below every post-base stamp, so a
        late install keeps monotonicity but reshuffles history).
        """
        if self._version_base != (0, 0):
            raise InstanceError("version base already installed")
        # rows + floor[0] keeps the row component non-decreasing; the
        # +1 on the merge component makes the very first stamp strictly
        # greater than the floor even for an empty successor
        self._version_base = (floor[0], floor[1] + 1)

    def __len__(self) -> int:
        return len(self._rows)

    def raw_row(self, i: int) -> PyTuple[int, ...]:
        return self._rows[i]

    def origin(self, i: int) -> RowOrigin:
        return self._origins[i]

    def resolved_row(self, i: int) -> PyTuple[int, ...]:
        """The row with every symbol replaced by its class root."""
        find = self.symbols.find
        return tuple(find(s) for s in self._rows[i])

    def resolved_rows(self) -> List[PyTuple[int, ...]]:
        """All rows resolved to class roots, memoized per :attr:`version`."""
        v = self.version
        cached = self._resolved_cache
        if cached is not None and cached[0] == v:
            return cached[1]
        find = self.symbols.find
        rows = [tuple(find(s) for s in row) for row in self._rows]
        self._resolved_cache = (v, rows)
        return rows

    def symbol_at(self, i: int, attr: str) -> int:
        return self.symbols.find(self._rows[i][self._colidx[attr]])

    # -- value index --------------------------------------------------------------

    def value_index(self, attr: str) -> Dict[int, Set[int]]:
        """The partition of rows by their symbol class in ``attr``.

        Materialized on first use for the column and maintained
        incrementally by :meth:`merge`/:meth:`add_row` from then on:
        the FD-rule reads it on every pass, so it must never be
        rebuilt from scratch once built.
        """
        c = self._colidx[attr]
        col_index = self._attr_index.get(c)
        if col_index is None:
            self.materialize_value_indexes([attr])
            col_index = self._attr_index[c]
        return col_index

    def materialize_value_indexes(self, attr_list: Iterable[str]) -> None:
        """Build the value indexes for several columns in one row scan
        (the FD-rule index wants one per distinct lhs attribute).
        Retracted rows are excluded — the value indexes partition the
        *live* rows only."""
        targets = [
            (c, {})
            for c in {self._colidx[a] for a in attr_list}
            if c not in self._attr_index
        ]
        if not targets:
            return
        find = self.symbols.find
        retracted = self._retracted
        for i, row in enumerate(self._rows):
            if i in retracted:
                continue
            for c, col_index in targets:
                root = find(row[c])
                members = col_index.get(root)
                if members is None:
                    col_index[root] = {i}
                else:
                    members.add(i)
        for c, col_index in targets:
            self._attr_index[c] = col_index
            self._shared[c] = {
                root for root, members in col_index.items() if len(members) >= 2
            }

    def shared_classes(self, attr: str) -> Set[int]:
        """The symbol classes held by ≥2 rows in ``attr`` — the only
        candidates for an FD-rule firing on that column (materializes
        the column's value index on first use)."""
        c = self._colidx[attr]
        if c not in self._attr_index:
            self.materialize_value_indexes([attr])
        return self._shared[c]

    def live_row_matching(
        self, cols: Sequence[int], roots: Sequence[int]
    ) -> Optional[int]:
        """A live row whose resolved symbols at ``cols`` are exactly
        ``roots``, or ``None``.

        The window-cache revalidation of the weak-instance service uses
        this after a scoped retraction: the retracted row's projection
        survives in a cached window iff some live row still produces
        the same facts.  Cost is one scan of the first root's
        occurrence bucket (a class, not the tableau).

        Empty ``cols`` means no constraint: every live row matches (the
        empty projection is ``{()}`` exactly while a live row exists).
        """
        if not cols:
            retracted = self._retracted
            for r in range(len(self._rows)):
                if r not in retracted:
                    return r
            return None
        if self._occ_stale:
            self._rebuild_occ()
        c0 = cols[0]
        find = self.symbols.find
        rows = self._rows
        ncols = len(self._cols)
        retracted = self._retracted
        rest = list(zip(cols[1:], roots[1:]))
        for pos in self._occ.get(roots[0], ()):
            r, c = divmod(pos, ncols)
            if c != c0 or r in retracted:
                continue
            row = rows[r]
            if all(find(row[ck]) == rk for ck, rk in rest):
                return r
        return None

    def check_index_invariants(self) -> None:
        """Verify every index against a from-scratch recomputation
        (test hook; O(rows × columns)).

        The occurrence index covers *every* row ever added (retracted
        rows included — dissolution needs their symbols); the value
        indexes cover live rows only.  When the merge log is in use,
        every surviving event must still be justified: both rows live,
        the union applied, and the left-hand-side agreement intact.
        """
        if self._occ_stale:
            self._rebuild_occ()
        find = self.symbols.find
        ncols = len(self._cols)
        expected_occ: Dict[int, Set[int]] = {}
        for i, row in enumerate(self._rows):
            for c, sym in enumerate(row):
                expected_occ.setdefault(find(sym), set()).add(i * ncols + c)
        actual = {root: set(ps) for root, ps in self._occ.items() if ps}
        assert actual == expected_occ, "occurrence index out of sync"
        retracted = self._retracted
        for c, col_index in self._attr_index.items():
            expected: Dict[int, Set[int]] = {}
            for i, row in enumerate(self._rows):
                if i in retracted:
                    continue
                expected.setdefault(find(row[c]), set()).add(i)
            assert col_index == expected, f"value index for column {c} out of sync"
            expected_shared = {
                root for root, members in expected.items() if len(members) >= 2
            }
            assert self._shared[c] == expected_shared, (
                f"shared-class set for column {c} out of sync"
            )
        for eid, entry in self._merge_log.items():
            row_a, row_b, _, sym_a, sym_b, lhs_cols, _ = entry
            assert row_a not in retracted and row_b not in retracted, (
                f"merge event {eid} references a retracted row"
            )
            assert find(sym_a) == find(sym_b), (
                f"merge event {eid} survives but its union was undone"
            )
            ra, rb = self._rows[row_a], self._rows[row_b]
            for c in lhs_cols:
                assert find(ra[c]) == find(rb[c]), (
                    f"merge event {eid} survives but its lhs agreement broke"
                )

    # -- extraction -----------------------------------------------------------------

    def to_relation(self) -> RelationInstance:
        """Materialize as a relation over ``U`` (variables → labelled
        nulls) — the weak instance when the chase succeeded."""
        resolve = self.symbols.resolve_value
        retracted = self._retracted
        rows = []
        for i, row in enumerate(self._rows):
            if i in retracted:
                continue
            rows.append(tuple(resolve(s) for s in row))
        return RelationInstance(self.universe, rows)

    def total_projection(self, attrset: AttrsLike) -> RelationInstance:
        """Rows whose ``X``-values are all constants, projected on ``X``
        (the weak-instance query answer of [S1]/[M]).

        The result is a set: distinct rows only, even when many tableau
        rows resolve to the same constants (``RelationInstance`` would
        dedupe anyway — dropping duplicates here skips building the
        redundant tuples, which matters once a chased tableau has many
        rows grounded to the same facts).
        """
        target = AttributeSet(attrset)
        idxs = [self._colidx[a] for a in target]
        find = self.symbols.find
        const = self.symbols._const
        retracted = self._retracted
        rows = []
        seen: Set[PyTuple[Any, ...]] = set()
        for i, row in enumerate(self._rows):
            if i in retracted:
                continue
            # a row leaves at its first non-constant column, so no
            # labelled null is built for a row the answer drops
            vals = []
            for c in idxs:
                v = const.get(find(row[c]), _CONST_SENTINEL)
                if v is _CONST_SENTINEL or isinstance(v, Null):
                    break
                vals.append(v)
            else:
                key = tuple(vals)
                if key not in seen:
                    seen.add(key)
                    rows.append(key)
        return RelationInstance(target, rows)

    def total_projection_matching(
        self,
        attrset: AttrsLike,
        bindings: Sequence[PyTuple[str, Any]],
    ) -> RelationInstance:
        """:meth:`total_projection` restricted to rows whose bound
        attributes resolve to the given constants — answered from the
        per-attribute value indexes instead of a full row scan.

        Each ``(attr, value)`` binding becomes one bucket lookup:
        constants are interned per column namespace and FD merges only
        ever equate symbols within a column, so a value the column's
        intern table has never seen cannot appear in any row — the
        answer is empty without touching a row.  Otherwise the buckets
        intersect to the candidate set, which is then projected like
        :meth:`total_projection` (dedupe + all-constants check).
        """
        target = AttributeSet(attrset)
        if not bindings:
            return self.total_projection(target)
        symbols = self.symbols
        find = symbols.find
        candidates: Optional[Set[int]] = None
        for attr, value in bindings:
            sym = symbols.interned_symbol(value, attr)
            if sym is None:
                return RelationInstance(target)
            bucket = self.value_index(attr).get(find(sym))
            if not bucket:
                return RelationInstance(target)
            candidates = (
                set(bucket) if candidates is None else candidates & bucket
            )
            if not candidates:
                return RelationInstance(target)
        idxs = [self._colidx[a] for a in target]
        bound = [(self._colidx[a], v) for a, v in bindings]
        resolve = symbols.resolve_value
        retracted = self._retracted
        rows = []
        seen: Set[PyTuple[Any, ...]] = set()
        assert candidates is not None
        for i in sorted(candidates):
            if i in retracted:
                continue
            row = self._rows[i]
            # re-check the bound columns against the index verdict (a
            # stale bucket must narrow, never widen, the answer)
            if any(resolve(row[c]) != v for c, v in bound):
                continue
            vals = tuple(resolve(row[i2]) for i2 in idxs)
            if vals not in seen and all(not is_null(v) for v in vals):
                seen.add(vals)
                rows.append(vals)
        return RelationInstance(target, rows)

    def pretty(self, max_rows: int = 30) -> str:
        resolve = self.symbols.resolve_value
        header = " | ".join(f"{c:>8}" for c in self._cols)
        lines = [header, "-" * len(header)]
        shown = 0
        for i, row in enumerate(self._rows):
            if i in self._retracted:
                continue
            if shown >= max_rows:
                break
            shown += 1
            lines.append(" | ".join(f"{str(resolve(s)):>8}" for s in row))
        live = self.live_row_count()
        if live > max_rows:
            lines.append(f"… ({live} rows)")
        return "\n".join(lines)


class BulkIngest:
    """Column-major batch construction of a fresh :class:`ChaseTableau`.

    ``add_padded`` only buffers values (one list per column);
    :meth:`finish` materializes everything in per-column passes:
    constants interned straight into the symbol table's per-column
    intern map, padding variables allocated inline, and the row tuples
    produced by one ``zip`` transpose.  None of ``add_row``'s per-cell
    occurrence bookkeeping runs — the occurrence index is left stale
    and rebuilt lazily by its first reader — which is what makes cold
    tableau construction cheap enough for the bulk chase kernel's
    from-scratch paths.

    The result is observationally identical to the same sequence of
    ``ChaseTableau.add_padded`` calls: same symbols (up to allocation
    order), same interning (per column), same dirty worklist, same
    origins.  Only usable on a pristine tableau, and only once.
    """

    __slots__ = ("_tableau", "_buffers", "_origins", "_plans", "_done")

    def __init__(self, tableau: ChaseTableau):
        if len(tableau) or tableau._merge_count:
            raise InstanceError("bulk ingest requires a pristine tableau")
        self._tableau = tableau
        self._buffers: List[List[Any]] = [[] for _ in tableau._cols]
        self._origins: List[RowOrigin] = []
        # attrset -> ((column buffer, attr-or-None), ...): which buffer
        # receives which attribute (None = pad with a fresh variable),
        # computed once per distinct sub-scheme instead of per tuple
        self._plans: Dict[AttributeSet, PyTuple] = {}
        self._done = False

    def __len__(self) -> int:
        return len(self._origins)

    def add_padded(self, attrset: AttributeSet, t: Tuple, origin: RowOrigin) -> int:
        """Buffer one tuple over a sub-scheme; returns its future row
        index.  The same ``origin`` instance may be (and for large
        loads should be) shared across rows."""
        plan = self._plans.get(attrset)
        if plan is None:
            plan = tuple(
                (self._buffers[c], a if a in attrset else None)
                for c, a in enumerate(self._tableau._cols)
            )
            self._plans[attrset] = plan
        i = len(self._origins)
        self._origins.append(origin)
        for buf, a in plan:
            buf.append(t.value(a) if a is not None else _ABSENT)
        return i

    def finish(self) -> ChaseTableau:
        """Materialize the buffered rows into the tableau."""
        if self._done:
            raise InstanceError("bulk ingest already finished")
        self._done = True
        tab = self._tableau
        if len(tab):
            raise InstanceError(
                "rows were added to the tableau behind the ingest's back"
            )
        symbols = tab.symbols
        uf = symbols._uf
        parent = uf._parent
        size = uf._size
        by_value = symbols._by_value
        const = symbols._const
        interned = symbols._interned
        n = len(self._origins)
        col_syms: List[List[int]] = []
        for name, buf in zip(tab._cols, self._buffers):
            out: List[int] = []
            append = out.append
            for v in buf:
                if v is _ABSENT:
                    s = len(parent)
                    parent.append(s)
                    size.append(1)
                else:
                    key = (name, v)
                    try:
                        s = by_value.get(key, _ABSENT)
                    except TypeError:
                        raise InstanceError(
                            f"unhashable constant {v!r}"
                        ) from None
                    if s is _ABSENT:
                        if is_null(v):
                            raise InstanceError(
                                "labelled nulls cannot enter a tableau as "
                                "constants; use fresh variables instead"
                            )
                        s = len(parent)
                        parent.append(s)
                        size.append(1)
                        by_value[key] = s
                        const[s] = v
                        interned[s] = v
                append(s)
            col_syms.append(out)
        tab._rows = list(zip(*col_syms)) if n else []
        tab._origins = self._origins
        tab._derived_rows += sum(
            1 for o in self._origins if o is None or o.kind != "state"
        )
        tab._dirty = dict.fromkeys(range(n))
        tab._occ_stale = True
        return tab
