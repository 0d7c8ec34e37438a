"""The chase procedure of [MMS] (Section 2 of the paper), incremental.

Two rules operate on a :class:`~repro.chase.tableau.ChaseTableau`:

* **FD-rule** — for ``X → Y`` and two rows agreeing on ``X`` but
  disagreeing on ``B ∈ Y``: merge the two ``B``-symbols (replacing a
  variable by the other symbol everywhere).  Merging two distinct
  *constants* is a contradiction: the chased state is unsatisfiable.
* **JD-rule** — for ``*{S1,…,Sn}``: any universal tuple whose
  ``Si``-projection matches an existing row for every ``i`` is added
  (i.e. the tableau is closed under the join of its projections).

``chase`` alternates the FD-closure and the JD-rule until a fixpoint or
a contradiction.  MVDs are chased through their equivalent binary JDs.

Unlike the naive engine (preserved in :mod:`repro.chase.reference`),
fixpoint passes here are **incremental**: the first pass builds a
persistent partition of the rows by resolved left-hand-side key for
every FD (:class:`_FDRuleIndex`), and every later pass touches only
the rows the tableau's dirty worklist reports as changed — and only
under the FDs whose left-hand side mentions a changed column.
Single-attribute left-hand sides read the tableau's per-attribute
value index (:meth:`~repro.chase.tableau.ChaseTableau.value_index`)
directly, so rows with an unshared key are skipped without touching
any per-FD state.  The JD-rule keeps per-component projections in a
version-keyed cache (:class:`_ProjectionCache`) and is skipped
entirely when the tableau has not changed since its last application.

From-scratch chases of fresh columnar tableaux are not driven here at
all: ``chase_fds``/``chase`` route them to the column-major bulk
kernel (:mod:`repro.chase.bulk`) above its size cutoff, and this
engine adopts the kernel's output mid-flight through the handoff seam
(:class:`IncrementalFDChaser` with ``_handoff=``, buckets pre-seeded)
— the incremental machinery then serves exactly what it is built for:
the per-operation deltas of a live tableau.

The engine records a structured trace and enforces a step/row budget so
pathological cyclic cases fail loudly (:class:`ChaseBudgetExceeded`)
instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from repro.chase.tableau import ChaseTableau, RowOrigin
from repro.deps.fd import FD
from repro.deps.jd import JoinDependency
from repro.deps.mvd import MVD
from repro.exceptions import ChaseBudgetExceeded, InconsistentStateError
from repro.schema.attributes import AttributeSet

DEFAULT_MAX_ROWS = 100_000
DEFAULT_MAX_PASSES = 10_000


@dataclass(frozen=True)
class Contradiction:
    """Witness of a chase contradiction: the FD whose application tried
    to equate two distinct constants."""

    fd: FD
    attribute: str
    values: PyTuple[Any, Any]
    row_a: int
    row_b: int

    def __str__(self) -> str:
        va, vb = self.values
        return (
            f"FD {self.fd} forces {self.attribute} to be both "
            f"{va!r} and {vb!r} (rows {self.row_a}, {self.row_b})"
        )


@dataclass(frozen=True)
class ChaseStep:
    """One recorded FD-rule application (``record_steps=True``)."""

    fd: FD
    attribute: str
    row_a: int
    row_b: int

    def describe(self, tableau: ChaseTableau) -> str:
        oa, ob = tableau.origin(self.row_a), tableau.origin(self.row_b)
        where_a = oa.scheme or oa.kind
        where_b = ob.scheme or ob.kind
        return (
            f"{self.fd} equated {self.attribute} between rows "
            f"{self.row_a} ({where_a}) and {self.row_b} ({where_b})"
        )


@dataclass
class ChaseResult:
    """Outcome of a chase run."""

    tableau: ChaseTableau
    consistent: bool
    contradiction: Optional[Contradiction] = None
    steps: List[ChaseStep] = field(default_factory=list)
    fd_merges: int = 0
    jd_rows_added: int = 0

    def __bool__(self) -> bool:
        return self.consistent


class _Budget:
    __slots__ = ("max_rows", "max_passes", "passes")

    def __init__(self, max_rows: int, max_passes: int):
        self.max_rows = max_rows
        self.max_passes = max_passes
        self.passes = 0

    def tick(self) -> None:
        self.passes += 1
        if self.passes > self.max_passes:
            raise ChaseBudgetExceeded(
                f"chase exceeded {self.max_passes} passes; "
                "raise max_passes if this input is genuinely this large"
            )

    def check_rows(self, n: int) -> None:
        if n > self.max_rows:
            raise ChaseBudgetExceeded(
                f"chase tableau exceeded {self.max_rows} rows; "
                "raise max_rows if this input is genuinely this large"
            )


@dataclass(frozen=True)
class _RuleMetadata:
    """The static, tableau-independent part of a :class:`_FDRuleIndex`
    — a pure function of (universe column order, FD sequence).  Kept
    *instead of* a whole driver when a service wants cheap rebuilds:
    retaining a dead driver would pin its entire superseded tableau
    (rows, buckets, value indexes) in memory."""

    columns: PyTuple[str, ...]
    lhs_idx: PyTuple[PyTuple[int, ...], ...]
    rhs_cols: PyTuple[PyTuple[PyTuple[str, int], ...], ...]
    single_col: PyTuple[Optional[int], ...]
    fds_by_col: Dict[int, List[int]]


class _FDRuleIndex:
    """Persistent per-FD partition of the rows by resolved lhs key.

    For each FD the partition maps the resolved key of a row's
    left-hand side — a single class root for one-attribute lhs, a
    tuple of roots otherwise — to the *leader* row all same-key rows
    merge their rhs symbols into.  While the tableau only grows, a
    bucket entry never goes stale: a key is looked up only while every
    root in it is alive, and while those roots are alive the leader's
    symbols remain in exactly those classes (union-find classes never
    shrink), so the leader's key cannot have drifted.  Row retraction
    breaks that premise — dissolving a class revives its original
    symbols as fresh roots — so :meth:`process_dirty` additionally
    validates the leader on every bucket read and sweeps stale entries
    aside (cheap: one resolve per lhs attribute).  Dead keys merely
    occupy memory.

    Single-attribute FDs do not even keep private buckets on the fast
    path: the tableau's per-attribute value index already *is* the
    partition, so a dirty row whose class holds no other row in that
    column is dismissed with one set lookup.
    """

    __slots__ = ("tableau", "fds", "_lhs_idx", "_rhs_cols", "_single_col",
                 "_buckets", "_fds_by_col", "_value_index", "_shared")

    def __init__(
        self,
        tableau: ChaseTableau,
        fds: Sequence[FD],
        template: Optional[_RuleMetadata] = None,
        buckets: Optional[List[Dict]] = None,
    ):
        self.tableau = tableau
        self.fds = fds
        self._value_index: Dict[int, Dict[int, Set[int]]] = {}
        if buckets is not None and len(buckets) != len(fds):
            raise ValueError("seeded buckets do not match the FD list")
        if template is not None:
            # A rebuilt tableau over the same universe (services rebuild
            # their tableaus from state many times): the per-FD
            # column metadata is a function of (universe, fds) only, so
            # share it and reset just the per-tableau buckets.
            if template.columns != tableau.columns:
                raise ValueError(
                    "rule-index template is over a different universe"
                )
            if len(template.lhs_idx) != len(fds):
                raise ValueError(
                    "rule-index template was derived from a different FD list"
                )
            self._lhs_idx = list(template.lhs_idx)
            self._rhs_cols = list(template.rhs_cols)
            self._single_col = list(template.single_col)
            # copy: the template is shared across driver generations,
            # so no index may alias its (mutable) dict-of-lists
            self._fds_by_col = {
                c: list(ks) for c, ks in template.fds_by_col.items()
            }
            self._buckets = buckets if buckets is not None else [{} for _ in fds]
            single_attrs = [
                tableau.columns[c] for c in self._single_col if c is not None
            ]
        else:
            self._lhs_idx = []
            self._rhs_cols = []
            self._single_col = []
            self._buckets = (
                list(buckets) if buckets is not None else [{} for _ in fds]
            )
            self._fds_by_col = {}
            single_attrs = []
            for k, f in enumerate(fds):
                lhs_idx = tuple(tableau.column_index(a) for a in f.lhs)
                rhs_cols = tuple(
                    (a, tableau.column_index(a)) for a in f.effective_rhs
                )
                self._lhs_idx.append(lhs_idx)
                self._rhs_cols.append(rhs_cols)
                single = lhs_idx[0] if len(lhs_idx) == 1 and rhs_cols else None
                self._single_col.append(single)
                if rhs_cols:
                    for c in lhs_idx:
                        self._fds_by_col.setdefault(c, []).append(k)
                    if single is not None:
                        single_attrs.append(tableau.columns[single])
        # materialize (and from then on share) the tableau's
        # per-attribute partitions, all in one row scan
        self._shared: Dict[int, Set[int]] = {}
        tableau.materialize_value_indexes(single_attrs)
        for attr in single_attrs:
            c = tableau.column_index(attr)
            self._value_index[c] = tableau.value_index(attr)
            self._shared[c] = tableau.shared_classes(attr)

    def metadata(self) -> _RuleMetadata:
        """The static template for building an index over a rebuilt
        tableau of the same universe (safe to retain: holds no tableau
        references)."""
        return _RuleMetadata(
            columns=self.tableau.columns,
            lhs_idx=tuple(self._lhs_idx),
            rhs_cols=tuple(self._rhs_cols),
            single_col=tuple(self._single_col),
            fds_by_col={c: list(ks) for c, ks in self._fds_by_col.items()},
        )

    # -- merging helpers -------------------------------------------------------

    def _merge_pair(
        self,
        k: int,
        leader: int,
        i: int,
        result: ChaseResult,
        record_steps: bool,
    ) -> bool:
        """Apply the FD-rule to one row pair; returns False on
        contradiction (recorded on ``result``)."""
        tableau = self.tableau
        lead_row = tableau.raw_row(leader)
        row = tableau.raw_row(i)
        f = self.fds[k]
        lhs_idx = self._lhs_idx[k]
        for attr, j in self._rhs_cols[k]:
            merged, conflict = tableau.merge(
                lead_row[j], row[j], leader, i, j, lhs_idx, f
            )
            if conflict is not None:
                result.consistent = False
                result.contradiction = Contradiction(
                    fd=f, attribute=attr, values=conflict, row_a=leader, row_b=i
                )
                if record_steps:
                    result.steps.append(
                        ChaseStep(fd=f, attribute=attr, row_a=leader, row_b=i)
                    )
                return False
            if merged:
                result.fd_merges += 1
                if record_steps:
                    result.steps.append(
                        ChaseStep(fd=f, attribute=attr, row_a=leader, row_b=i)
                    )
        return True

    # -- the initial full pass -------------------------------------------------

    def process_all(self, result: ChaseResult, record_steps: bool = False) -> None:
        """Seed the partitions with every current *live* row (one full
        pass; retracted rows must never become leaders or merge
        partners, or a fresh chase would resurrect their groundings)."""
        tableau = self.tableau
        find = tableau.symbols.find
        is_retracted = tableau.is_retracted
        for k in range(len(self.fds)):
            if not self._rhs_cols[k]:
                continue
            single = self._single_col[k]
            buckets = self._buckets[k]
            if single is not None:
                # read the shared-class partition directly: only classes
                # held by ≥2 rows can violate the FD, and the tableau
                # tracks exactly those
                vi = self._value_index[single]
                for root in sorted(self._shared[single]):
                    members = vi.get(root)
                    if members is None or len(members) < 2:
                        continue
                    ordered = sorted(members)
                    leader = ordered[0]
                    buckets[root] = leader
                    for i in ordered[1:]:
                        if not self._merge_pair(k, leader, i, result, record_steps):
                            return
                continue
            lhs_idx = self._lhs_idx[k]
            for i in range(len(tableau)):
                if is_retracted(i):
                    continue
                row = tableau.raw_row(i)
                key = tuple(find(row[j]) for j in lhs_idx)
                leader = buckets.get(key)
                if leader is None:
                    buckets[key] = i
                    continue
                if not self._merge_pair(k, leader, i, result, record_steps):
                    return

    # -- incremental passes ----------------------------------------------------

    def process_dirty(
        self,
        dirty: Dict[int, Optional[Set[int]]],
        result: ChaseResult,
        record_steps: bool = False,
    ) -> None:
        """Re-examine only the dirty rows, and only under the FDs whose
        lhs mentions a changed column.

        Bucket entries are validated on read: a leader must still be a
        live row holding the looked-up key.  Before retraction existed
        this was a tautology (classes never shrank, so roots were never
        recycled), but a dissolution revives old roots as new singleton
        classes — a stale leader under a revived key must be swept
        aside, and every row that can legitimately hold the revived key
        is in the dirty worklist, so replacing the entry loses nothing.
        """
        tableau = self.tableau
        find = tableau.symbols.find
        raw_row = tableau.raw_row
        is_retracted = tableau.is_retracted
        fds_by_col = self._fds_by_col
        n_fds = len(self.fds)
        empty: PyTuple[int, ...] = ()
        for i, cols in dirty.items():
            if is_retracted(i):
                continue
            if cols is None:
                affected: Iterable[int] = range(n_fds)
            elif len(cols) == 1:
                # the overwhelmingly common event: one column moved
                (c,) = cols
                affected = fds_by_col.get(c, empty)
            else:
                seen: Set[int] = set()
                merged: List[int] = []
                for c in cols:
                    for k in fds_by_col.get(c, empty):
                        if k not in seen:
                            seen.add(k)
                            merged.append(k)
                merged.sort()
                affected = merged
            if not affected:
                continue
            row = tableau.raw_row(i)
            for k in affected:
                rhs_cols = self._rhs_cols[k]
                if not rhs_cols:
                    continue
                single = self._single_col[k]
                buckets = self._buckets[k]
                if single is not None:
                    root = find(row[single])
                    members = self._value_index[single].get(root)
                    if members is None or len(members) < 2:
                        continue
                    leader = buckets.get(root)
                    if leader is not None and leader != i and (
                        is_retracted(leader)
                        or find(raw_row(leader)[single]) != root
                    ):
                        leader = None  # stale entry from a dissolved class
                    if leader is None or leader == i:
                        # First touch of this class under this FD, a
                        # stale leader just swept aside, or a dirty row
                        # re-acquiring a root it led before a
                        # dissolution (its self-entry says nothing
                        # about the rebuilt class): the bucket may hold
                        # rows this one has never been compared
                        # against.  Sweep the whole (snapshotted) class
                        # once, then lead it.  While the tableau only
                        # grows, a dirty row never re-finds itself as
                        # leader — a row is dirty in this column only
                        # when its class was absorbed, which changes
                        # its root — so the self-entry sweep costs
                        # nothing outside retraction.
                        buckets[root] = i
                        for m in sorted(members):
                            if m == i:
                                continue
                            if not self._merge_pair(k, i, m, result, record_steps):
                                return
                        continue
                    if not self._merge_pair(k, leader, i, result, record_steps):
                        return
                    continue
                lhs_idx = self._lhs_idx[k]
                key = tuple(find(row[j]) for j in lhs_idx)
                leader = buckets.get(key)
                if leader is not None and leader != i and (
                    is_retracted(leader)
                    or tuple(find(raw_row(leader)[j]) for j in lhs_idx) != key
                ):
                    leader = None  # stale entry from a dissolved class
                if leader is None:
                    buckets[key] = i
                    continue
                if leader == i:
                    continue
                if not self._merge_pair(k, leader, i, result, record_steps):
                    return


def _run_fd_fixpoint(
    tableau: ChaseTableau,
    chaser: _FDRuleIndex,
    result: ChaseResult,
    budget: _Budget,
    record_steps: bool = False,
    initial: bool = False,
) -> None:
    """Drive the FD-rule to fixpoint through the dirty worklist."""
    if initial:
        budget.tick()
        tableau.drain_dirty()
        chaser.process_all(result, record_steps=record_steps)
        if not result.consistent:
            return
    while True:
        dirty = tableau.drain_dirty()
        if not dirty:
            return
        budget.tick()
        chaser.process_dirty(dirty, result, record_steps=record_steps)
        if not result.consistent:
            return


def _bulk_module(tableau: ChaseTableau, bulk: Optional[bool]):
    """Resolve the ``bulk`` routing argument: the bulk module when the
    from-scratch kernel should run, else ``None``.  ``None`` (auto)
    requires structural eligibility *and* the size cutoff; ``True``
    forces the kernel (it raises on ineligible tableaux); ``False``
    pins the row-at-a-time path.  Imported lazily — the bulk module
    imports this one."""
    if bulk is False:
        return None
    from repro.chase import bulk as bulk_module

    if bulk is None and not bulk_module.bulk_eligible(tableau):
        return None
    return bulk_module


def chase_fds(
    tableau: ChaseTableau,
    fd_list: Iterable[FD],
    max_passes: int = DEFAULT_MAX_PASSES,
    record_steps: bool = False,
    bulk: Optional[bool] = None,
) -> ChaseResult:
    """Chase with the FD-rule only, to fixpoint (Honeyman's test).

    Fresh columnar tableaux above :data:`repro.chase.bulk.
    BULK_MIN_ROWS` rows are routed through the column-major bulk
    kernel (``bulk=None``, the auto default); pass ``bulk=False`` to
    pin the row-at-a-time engine (benchmark baselines) or ``bulk=True``
    to force the kernel regardless of size.  Both paths produce
    observationally identical tableaux.

    ``record_steps=True`` logs every merge so contradictions can be
    explained (:func:`explain_contradiction`).
    """
    fds = tuple(fd_list)
    bulk_module = _bulk_module(tableau, bulk)
    if bulk_module is not None:
        # a caller that enabled the merge log expects every merge
        # provenanced; the kernel batch-records on its behalf
        return bulk_module.chase_fds_bulk(
            tableau,
            fds,
            log_merges=tableau.merge_log_enabled,
            record_steps=record_steps,
        )
    result = ChaseResult(tableau=tableau, consistent=True)
    budget = _Budget(DEFAULT_MAX_ROWS, max_passes)
    chaser = _FDRuleIndex(tableau, fds)
    _run_fd_fixpoint(
        tableau, chaser, result, budget, record_steps=record_steps, initial=True
    )
    return result


class IncrementalFDChaser:
    """Persistent FD-chase driver for one tableau across many updates.

    :func:`chase_fds` builds its per-FD partitions, runs to fixpoint,
    and throws the partitions away.  A query service that appends rows
    one at a time would pay the full seeding pass again on every
    update.  This driver keeps the :class:`_FDRuleIndex` (and with it
    the tableau's value indexes) alive between calls:

    * the **first** :meth:`run` performs the full seeding pass and
      drives the fixpoint, exactly like :func:`chase_fds`;
    * every **later** :meth:`run` drives only the dirty-row worklist —
      rows appended via :meth:`~repro.chase.tableau.ChaseTableau.add_row`
      / ``add_padded`` or touched by merges since the previous call —
      so chasing one inserted tuple against an already-chased tableau
      costs the cascade it actually triggers, not a rescan;
    * :meth:`rechase_scoped` is the **delete-side** counterpart:
      retract one row (undoing exactly the unions that depended on it,
      via the tableau's merge log) and re-derive its footprint through
      the same dirty-row fixpoint — cost proportional to the affected
      set, not the tableau.

    The soundness argument is the engine's usual pair of invariants
    (bucket leaders are valid when read; any row whose key changed is
    dirty): appends preserve them because the index and the tableau
    share one union-find whose classes never shrink, and retraction
    preserves them because every row a dissolved class touched is
    re-seeded as dirty and stale bucket entries are swept on read
    (see :class:`_FDRuleIndex`).  The driver enables the tableau's
    merge log at construction, so a tableau chased here from birth is
    always retractable; pass ``log_merges=False`` to skip the log (and
    its per-union cost) when the tableau will never serve a retraction
    — :meth:`rechase_scoped` then reports the log incomplete.

    A contradiction **poisons** the tableau: merges up to the point of
    failure have already been applied, so the pair can no longer serve
    queries.  :attr:`poisoned` latches and every later :meth:`run`
    raises ``InconsistentStateError`` — rebuild a fresh tableau (and a
    fresh driver) from the underlying state instead.
    """

    __slots__ = ("tableau", "fds", "max_passes", "_index", "_seeded",
                 "_poisoned", "_log_merges")

    def __init__(
        self,
        tableau: ChaseTableau,
        fd_list: Iterable[FD],
        max_passes: int = DEFAULT_MAX_PASSES,
        log_merges: bool = True,
        _template: Optional[_RuleMetadata] = None,
        _handoff=None,
    ):
        self.tableau = tableau
        self.fds = tuple(fd_list)
        self.max_passes = max_passes
        self._log_merges = log_merges
        if log_merges:
            tableau.enable_merge_log()
        buckets = None
        seeded = False
        if _handoff is not None:
            # adopt a tableau the bulk kernel already chased: seed the
            # per-FD partitions from the kernel's buckets and skip the
            # full seeding pass — the tableau is at fixpoint, so the
            # first run() only has to drain rows appended since.  The
            # kernel must have run over this very tableau and FD list
            # (the bucket shapes are positional).
            if _handoff.tableau is not tableau:
                raise ValueError("bulk handoff is for a different tableau")
            if _handoff.fds != self.fds:
                raise ValueError("bulk handoff was chased under different FDs")
            buckets = _handoff.handoff_buckets()
            seeded = True
        self._index = _FDRuleIndex(
            tableau, self.fds, template=_template, buckets=buckets
        )
        self._seeded = seeded
        self._poisoned = False

    def metadata(self) -> _RuleMetadata:
        """The static per-FD column metadata, detached from the tableau
        — what a service should retain across invalidations to make
        later rebuilds cheap (retaining the driver itself would pin the
        dead tableau)."""
        return self._index.metadata()

    def rebound(self, tableau: ChaseTableau) -> "IncrementalFDChaser":
        """A fresh driver for a rebuilt tableau over the same universe.

        Reuses this driver's per-FD column metadata (the static part of
        its rule index) instead of re-deriving it per FD — the cheap
        path for services that rebuild their tableaus from
        their backing state.  The new driver is unseeded and unpoisoned
        regardless of this one's history.
        """
        return IncrementalFDChaser(
            tableau,
            self.fds,
            max_passes=self.max_passes,
            log_merges=self._log_merges,
            _template=self._index.metadata(),
        )

    @property
    def poisoned(self) -> bool:
        """True once a run hit a contradiction; the tableau holds
        partial merges and must be rebuilt."""
        return self._poisoned

    def run(self, record_steps: bool = False) -> ChaseResult:
        """Drive the FD-rule to fixpoint (full pass on the first call,
        dirty worklist only afterwards)."""
        if self._poisoned:
            raise InconsistentStateError(
                "tableau was poisoned by an earlier contradiction; "
                "rebuild it from the state before chasing again"
            )
        result = ChaseResult(tableau=self.tableau, consistent=True)
        budget = _Budget(DEFAULT_MAX_ROWS, self.max_passes)
        _run_fd_fixpoint(
            self.tableau,
            self._index,
            result,
            budget,
            record_steps=record_steps,
            initial=not self._seeded,
        )
        self._seeded = True
        if not result.consistent:
            self._poisoned = True
        return result

    def rechase_scoped(
        self,
        row: int,
        impact=None,
        record_steps: bool = False,
    ) -> ChaseResult:
        """Retract one tableau row and re-derive only its footprint.

        :meth:`~repro.chase.tableau.ChaseTableau.retract_row` dissolves
        the classes whose unions depended on the row and re-seeds the
        affected rows into the dirty worklist; this then drives the
        ordinary incremental fixpoint, so untouched partitions, value
        indexes, and occurrence entries stay live.  Pass a precomputed
        :class:`~repro.chase.tableau.RetractionImpact` to avoid
        recomputing it (the service sizes its rebuild fallback off the
        impact first).

        Retracting a tuple of a satisfying state leaves it satisfying
        and the rechase re-derives only unions the remaining rows
        justify, so a consistent tableau stays consistent — a
        contradiction here indicates the tableau was corrupted and is
        reported (and poisons the driver) exactly like :meth:`run`.
        """
        if self._poisoned:
            raise InconsistentStateError(
                "tableau was poisoned by an earlier contradiction; "
                "rebuild it from the state before retracting"
            )
        if not self._seeded:
            raise InconsistentStateError(
                "rechase_scoped needs a chased tableau: call run() first"
            )
        self.tableau.retract_row(row, impact)
        return self.run(record_steps=record_steps)


def explain_contradiction(result: ChaseResult) -> str:
    """A human-readable account of how the chase reached its
    contradiction (requires a run with ``record_steps=True``)."""
    if result.consistent:
        return "no contradiction: the state is satisfying"
    lines = ["chase steps leading to the contradiction:"]
    if not result.steps:
        lines.append("  (run the chase with record_steps=True for the full chain)")
    for step in result.steps:
        lines.append("  " + step.describe(result.tableau))
    if result.contradiction is not None:
        lines.append(f"CONTRADICTION: {result.contradiction}")
    return "\n".join(lines)


class _ProjectionCache:
    """Version-keyed cache of resolved projections for the JD-rule.

    All entries are valid exactly for one tableau version; the first
    access after the tableau changed resets the cache.  Binary-JD
    (MVD) chases hit the same component projections many times per
    pass, so sharing them across JDs is the main saving.
    """

    __slots__ = ("tableau", "_version", "_proj", "_existing")

    def __init__(self, tableau: ChaseTableau):
        self.tableau = tableau
        self._version: Optional[PyTuple[int, int]] = None
        self._proj: Dict[PyTuple[str, ...], Set[PyTuple[int, ...]]] = {}
        self._existing: Optional[Set[PyTuple[int, ...]]] = None

    def _sync(self) -> None:
        v = self.tableau.version
        if v != self._version:
            self._version = v
            self._proj = {}
            self._existing = None

    def _live_resolved(self) -> List[PyTuple[int, ...]]:
        """Resolved rows minus retracted slots (retracted rows must not
        feed the JD-rule's joins or its duplicate check)."""
        tableau = self.tableau
        resolved = tableau.resolved_rows()
        if tableau.live_row_count() == len(resolved):
            return resolved
        is_retracted = tableau.is_retracted
        return [row for i, row in enumerate(resolved) if not is_retracted(i)]

    def existing_rows(self) -> Set[PyTuple[int, ...]]:
        """The set of resolved full rows (JD-rule duplicate check)."""
        self._sync()
        if self._existing is None:
            self._existing = set(self._live_resolved())
        return self._existing

    def projection(self, attrs: PyTuple[str, ...]) -> Set[PyTuple[int, ...]]:
        """Distinct resolved rows projected on the given columns.

        Resolves only the *requested* columns, straight off the raw
        rows — a projection over two attributes of a wide universe
        used to pay for resolving every column of every live row
        (via ``resolved_rows``) before throwing most of it away.
        ``existing_rows`` still wants the full-width resolution and
        keeps the memoized path.
        """
        self._sync()
        cached = self._proj.get(attrs)
        if cached is None:
            tableau = self.tableau
            idx = [tableau.column_index(a) for a in attrs]
            find = tableau.symbols.find
            raw_row = tableau.raw_row
            if tableau.live_row_count() == len(tableau):
                live: Iterable[int] = range(len(tableau))
            else:
                is_retracted = tableau.is_retracted
                live = (
                    i for i in range(len(tableau)) if not is_retracted(i)
                )
            cached = {
                tuple(find(raw_row(i)[j]) for j in idx) for i in live
            }
            self._proj[attrs] = cached
        return cached


def _apply_jd_rule(
    tableau: ChaseTableau,
    jd: JoinDependency,
    budget: _Budget,
    result: ChaseResult,
    projections: _ProjectionCache,
) -> bool:
    """Close the tableau under one application round of the JD-rule.

    Joins the per-component projections incrementally (hash join) from
    the version-keyed projection cache and adds every row not already
    present.  Returns True when new rows were added.
    """
    cols = tableau.columns
    if jd.universe != tableau.universe:
        raise ValueError(
            f"JD over {jd.universe} cannot be chased on a tableau over "
            f"{tableau.universe}"
        )
    existing = projections.existing_rows()

    components = list(jd.components)
    # Join the per-component projections incrementally (hash join),
    # keeping the attribute order of the universe throughout.
    sofar_attrs: List[str] = [a for a in cols if a in components[0]]
    sofar: Set[PyTuple[int, ...]] = projections.projection(tuple(sofar_attrs))
    for comp in components[1:]:
        comp_attrs = [a for a in cols if a in comp]
        comp_rows = projections.projection(tuple(comp_attrs))
        common = [a for a in sofar_attrs if a in comp]
        comp_pos = {a: k for k, a in enumerate(comp_attrs)}
        index: Dict[PyTuple[int, ...], List[PyTuple[int, ...]]] = {}
        for crow in comp_rows:
            key = tuple(crow[comp_pos[a]] for a in common)
            index.setdefault(key, []).append(crow)
        sofar_pos = {a: k for k, a in enumerate(sofar_attrs)}
        extra_attrs = [a for a in comp_attrs if a not in sofar_pos]
        joined: Set[PyTuple[int, ...]] = set()
        for prow in sofar:
            key = tuple(prow[sofar_pos[a]] for a in common)
            for crow in index.get(key, ()):
                joined.add(prow + tuple(crow[comp_pos[a]] for a in extra_attrs))
            budget.check_rows(len(joined))
        sofar = joined
        sofar_attrs = sofar_attrs + extra_attrs
        if not sofar:
            return False

    # Components cover the universe, but the incremental order may have
    # permuted the columns; restore universe order before comparing.
    pos = {a: k for k, a in enumerate(sofar_attrs)}
    order = [pos[a] for a in cols]
    added = False
    new_rows = []
    for prow in sofar:
        full = tuple(prow[k] for k in order)
        if full in existing:
            continue
        new_rows.append(full)
        added = True
        budget.check_rows(len(existing) + len(new_rows))
    # Adding rows invalidates the cache `existing` came from, so defer
    # mutation until membership testing is over.
    for full in new_rows:
        tableau.add_row(full, RowOrigin("jd", detail=str(jd)))
    if added:
        result.jd_rows_added += 1
    return added


def chase(
    tableau: ChaseTableau,
    fd_list: Iterable[FD] = (),
    jds: Iterable[JoinDependency] = (),
    mvds: Iterable[MVD] = (),
    max_rows: int = DEFAULT_MAX_ROWS,
    max_passes: int = DEFAULT_MAX_PASSES,
    bulk: Optional[bool] = None,
) -> ChaseResult:
    """The full chase: FD-rule to fixpoint, then JD/MVD rules, repeated
    until nothing changes or a contradiction surfaces.

    The *initial* FD fixpoint of an eligible fresh tableau runs on the
    bulk kernel (same routing as :func:`chase_fds`); the incremental
    index that drives the post-JD FD fixpoints is then seeded from the
    kernel's partitions instead of a full re-scan.

    Each JD remembers the tableau version it last ran against and is
    skipped while the tableau is unchanged — a fixpoint round over n
    JDs that adds nothing costs n version comparisons, not n joins.
    """
    fds = tuple(fd_list)
    all_jds: List[JoinDependency] = list(jds)
    for m in mvds:
        all_jds.append(m.as_jd())
    result = ChaseResult(tableau=tableau, consistent=True)
    budget = _Budget(max_rows, max_passes)
    projections = _ProjectionCache(tableau)
    jd_seen: Dict[int, PyTuple[int, int]] = {}

    bulk_module = _bulk_module(tableau, bulk)
    if bulk_module is not None:
        kernel = bulk_module.BulkFDChaser(
            tableau, fds, log_merges=tableau.merge_log_enabled
        )
        bulk_result = kernel.run()
        result.fd_merges += bulk_result.fd_merges
        if not bulk_result.consistent:
            result.consistent = False
            result.contradiction = bulk_result.contradiction
            return result
        if not all_jds:
            return result
        chaser = _FDRuleIndex(tableau, fds, buckets=kernel.handoff_buckets())
    else:
        chaser = _FDRuleIndex(tableau, fds)
        _run_fd_fixpoint(tableau, chaser, result, budget, initial=True)
        if not result.consistent:
            return result

    while True:
        grew = False
        for k, jd in enumerate(all_jds):
            if jd_seen.get(k) == tableau.version:
                continue
            budget.tick()
            if _apply_jd_rule(tableau, jd, budget, result, projections):
                grew = True
                # Re-close under the FDs right away: merging only ever
                # shrinks the joins the remaining JDs are about to see.
                _run_fd_fixpoint(tableau, chaser, result, budget)
                if not result.consistent:
                    return result
            else:
                # Only a no-op application proves this JD is at fixpoint
                # for the current version; after adding rows it must run
                # again once every other rule has caught up.
                jd_seen[k] = tableau.version
        if not grew:
            return result


def chase_state(
    state,
    fd_list: Iterable[FD] = (),
    jds: Iterable[JoinDependency] = (),
    mvds: Iterable[MVD] = (),
    **kwargs,
) -> ChaseResult:
    """Convenience: build ``I(p)`` from a state and chase it."""
    tableau = ChaseTableau.from_state(state)
    return chase(tableau, fd_list=fd_list, jds=jds, mvds=mvds, **kwargs)
