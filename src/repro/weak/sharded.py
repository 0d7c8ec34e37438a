"""Independence-aware sharded weak-instance maintenance.

The paper's central payoff (Theorems 2–3) is that an *independent*
schema makes constraint enforcement **local**: every relation's
implied constraints ``Σi`` are covered by its own embedded FDs ``Hi``,
so a single-relation update is checkable against that relation alone.
:class:`ShardedWeakInstanceService` turns the theorem into the serving
architecture:

* **One shard per relation scheme.**  Each :class:`_SchemeShard` owns
  an ``_FDIndex``-backed local checker (a
  :class:`~repro.core.maintenance.MaintenanceChecker` over the
  single-scheme restriction, O(1) per insert per cover FD) and its own
  per-scheme :class:`~repro.weak.service.LiveTableau` chased only
  under the scheme's maintenance cover ``Hi``.  An insert or delete
  touches exactly one shard: no global chase, no global merge log, and
  no cache invalidation outside the shard.
* **A window planner.**  A query over attributes ``X`` is answered
  from the shards alone when that is provably equivalent to the global
  chase: every scheme that *could* contribute an ``X``-total row — a
  row of ``rj`` only ever becomes total on attributes inside
  ``cl_F(Rj)`` — must contain ``X`` outright, in which case its rows'
  ``X``-projections are fixed constants and the global window is
  exactly the deduplicated union of the direct shards' projections.
  (The guard is necessary: in ``AB(A,B); CA(C,A); CB(C,B)`` with
  ``C→A, C→B`` — an independent schema — the window over ``AB``
  contains facts joined *through* ``C``, so ``X ⊆ Ri`` alone does not
  license a local answer.)
* **A lazily-synced global composer.**  Everything else goes through a
  global :class:`~repro.weak.service.LiveTableau` over the full
  schema, built lazily and kept current by replaying the shards'
  operation journals (appends chase incrementally, deletes retract
  provenance-scoped) — one batched fixpoint per sync instead of one
  per insert.  Because every shard validated its own updates,
  Theorem 3 guarantees the composed state is satisfying: the composer
  never validates, it only derives.  When a journal overflows (or the
  composer was never built), the resync is a from-scratch rebuild of
  the union state — which runs on the column-major bulk chase kernel
  (:mod:`repro.chase.bulk`), so even the worst-case resync pays the
  set-at-a-time price.
* **One record per shard.**  A :class:`_SchemeShard` also holds the
  shard's lock, status and — on a durable service — store, WAL and
  session table; every layer reads shard state from it, and a rebuild
  under the same name (repair, failover, evolution) keeps the record.

Non-independent schemas are rejected at construction with the
analysis report (Lemma 3 / Theorem 4 counterexample) attached — use
:class:`~repro.weak.service.WeakInstanceService` with
``method="chase"`` for those.

Observationally the service is identical to
``WeakInstanceService(method="chase")`` and to rebuilding from scratch
per query (the randomized oracle suite in
``tests/test_weak_sharded.py`` pins all three against each other); the
difference is the cost model: updates are O(local) and scheme-local
windows never pay for other shards' traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
    Union,
)

from repro.chase.tableau import ChaseTableau
from repro.core.independence import IndependenceReport, analyze, reanalyze
from repro.core.maintenance import InsertOutcome, MaintenanceChecker
from repro.data.relations import RelationInstance, RowLike
from repro.data.states import DatabaseState
from repro.data.tuples import Tuple
from repro.deps.fd import FD
from repro.deps.fdset import FDSet, as_fdset
from repro.exceptions import (
    EvolutionRejectedError,
    InconsistentStateError,
    NotIndependentError,
    SchemaError,
    ShardQuarantinedError,
)
from repro.schema.attributes import AttributeSet, AttrsLike
from repro.schema.database import DatabaseSchema
from repro.schema.evolution import EvolutionOp
from repro.schema.relation import RelationScheme
from repro.weak.service import LiveTableau, ServiceStats, WindowQueryAPI


@dataclass
class ShardedServiceStats(ServiceStats):
    """Counters of :class:`ShardedWeakInstanceService`, extending the
    base service's (``as_dict`` enumerates dataclass fields, so these
    flow into the CLI ``stats`` op automatically).  The inherited
    tableau-lifecycle counters aggregate over every live tableau the
    service holds — all shards plus the composer."""

    #: windows answered from shard projections alone (planner fast path)
    shard_windows: int = 0
    #: windows composed through the global tableau
    global_windows: int = 0
    #: composer catch-ups that replayed at least one journaled op
    composer_syncs: int = 0
    #: journaled ops replayed into the composer across all syncs
    composer_synced_ops: int = 0
    #: journals that outgrew their bound (the next sync rebuilds the
    #: composer from state instead of replaying)
    journal_overflows: int = 0
    #: query leaf scans answered from direct shards (planner fast path)
    query_shard_scans: int = 0
    #: query leaf scans that had to sync and read the global composer
    query_composer_scans: int = 0
    #: schema evolutions applied (each bumps the schema epoch)
    evolutions_applied: int = 0
    #: schema evolutions refused (independence broken or data refuted)
    evolutions_rejected: int = 0
    #: Loop verdicts re-derived by incremental re-checks
    independence_recheck_schemes: int = 0
    #: Loop verdicts reused unchanged by incremental re-checks
    independence_reused_schemes: int = 0
    #: shards rebuilt by migrations (structural or cover change)
    migration_shards_rebuilt: int = 0
    #: shards a migration left serving untouched
    migration_shards_kept: int = 0
    #: mid-migration ops replayed from migration journals onto fresh shards
    migration_journal_replays: int = 0


@dataclass(frozen=True)
class WindowPlan:
    """The planner's (memoized) decision for one attribute target."""

    #: answerable from the direct shards alone
    local: bool
    #: schemes whose attribute sets contain the target
    direct: PyTuple[str, ...]


@dataclass(frozen=True)
class EvolutionResult:
    """What one applied evolution did, layer by layer."""

    op: str
    epoch_from: int
    epoch_to: int
    #: schemes whose Loop verdict the incremental re-check re-derived
    rechecked: PyTuple[str, ...]
    #: schemes whose verdict was reused unchanged
    reused: PyTuple[str, ...]
    #: shards rebuilt (new-epoch names)
    rebuilt: PyTuple[str, ...]
    #: shards that kept serving untouched (new-epoch names)
    kept: PyTuple[str, ...]
    #: mid-migration ops replayed from migration journals
    journal_replays: int

    def summary(self) -> str:
        return (
            f"epoch {self.epoch_from} -> {self.epoch_to}: {self.op}; "
            f"rechecked {len(self.rechecked)} scheme(s) "
            f"({', '.join(self.rechecked) or 'none'}), reused "
            f"{len(self.reused)}; rebuilt {len(self.rebuilt)} shard(s) "
            f"({', '.join(self.rebuilt) or 'none'}), kept {len(self.kept)}; "
            f"replayed {self.journal_replays} mid-migration op(s)"
        )


@dataclass(frozen=True)
class _EpochView:
    """A retired schema epoch, kept for version-pinned reads.

    ``frozen`` holds the final rows of every old scheme whose live
    shard no longer matches it (dropped, renamed, re-attributed);
    schemes untouched by the migration are read from the live shards
    at query time, so post-evolution writes to them stay visible
    through the old version — the co-existing-versions contract."""

    schema: DatabaseSchema
    fds: FDSet
    frozen: Dict[str, List[Tuple]]


#: per-shard health states (the ``health()`` surface)
SHARD_SERVING = "serving"
SHARD_DEGRADED = "degraded"        # read-only: ENOSPC, probing for recovery
SHARD_QUARANTINED = "quarantined"  # persistent I/O failure: reads+writes refused
SHARD_REPAIRING = "repairing"      # repair() is rebuilding it from disk
#: states whose shard must not answer reads (a degraded shard is
#: read-only but still readable)
_UNREADABLE = (SHARD_QUARANTINED, SHARD_REPAIRING)


class _SchemeShard:
    """One relation scheme's maintenance, failure and availability unit.

    Wraps the single-scheme restriction of the independence report: a
    local ``MaintenanceChecker`` (``_FDIndex`` per cover FD) plus a
    per-scheme :class:`LiveTableau` chased under ``Hi``.  Mutations
    bump :attr:`version` and append to the journal the global composer
    replays; beyond :data:`JOURNAL_LIMIT` pending entries the journal
    collapses into a "composer must rebuild" flag, so an endless
    update stream that never asks a global question holds O(1) memory
    here.  Beside that: the write lock, status and last error, and the
    durable part (store, WAL, void flag, session table, demoted store;
    ``None`` on an in-memory service).
    """

    #: journal entries kept before collapsing into a full-resync flag
    JOURNAL_LIMIT = 32768

    __slots__ = (
        "scheme",
        "name",
        "cover",
        "checker",
        "live",
        "stats",
        "version",
        "_journal",
        "_needs_resync",
        "lock", "status", "error",
        "store", "wal", "void", "sessions", "demoted",
    )

    def __init__(
        self,
        scheme: RelationScheme,
        restriction: IndependenceReport,
        stats: ShardedServiceStats,
    ):
        self.scheme = scheme
        self.name = scheme.name
        self.cover: FDSet = restriction.fds
        self.checker = MaintenanceChecker(
            restriction.schema, self.cover, method="local", report=restriction
        )
        self.stats = stats
        self.live = LiveTableau(
            restriction.schema, self.cover, self.checker.state, stats
        )
        self.version = 0
        self._journal: List[PyTuple[str, Tuple]] = []
        # starts True: the composer starts stale, so journaling before
        # its first build would only retain tuples a drain discards —
        # _sync_composer re-arms journaling once the composer is live
        self._needs_resync = True
        self.lock = threading.RLock()
        self.status = SHARD_SERVING
        #: the last failure reason ("" while none is recorded)
        self.error = ""
        self.store = None
        self.wal = None
        #: opened with no readable chain at all: the in-memory rows are
        #: not authoritative, so a failover must rebuild from a replica
        self.void = False
        #: exactly-once session table, per shard: it fails over with the chain
        self.sessions: Optional[Dict[str, dict]] = None
        #: the store a failover demoted, for the default rejoin
        self.demoted = None

    def adopt(self, fresh: "_SchemeShard") -> None:
        """Take over the maintenance state of a same-named shard rebuilt
        off to the side; lock, status and the durable part stay, and the
        version continues so stamped caches see the change."""
        self.scheme = fresh.scheme
        self.cover = fresh.cover
        self.checker = fresh.checker
        self.live = fresh.live
        self.version += 1
        self._needs_resync = True
        self._journal.clear()

    # -- journal ---------------------------------------------------------------

    def _journal_op(self, op: str, t: Tuple) -> None:
        if self._needs_resync:
            # the composer will rebuild from state anyway (stale,
            # freshly loaded, or overflowed): journaling would retain
            # tuples only for a drain to discard
            return
        self._journal.append((op, t))
        if len(self._journal) > self.JOURNAL_LIMIT:
            self._needs_resync = True
            self._journal.clear()
            self.stats.journal_overflows += 1

    def drain_journal(self) -> Optional[List[PyTuple[str, Tuple]]]:
        """Ops since the last drain, or ``None`` when replay is no
        longer possible (overflow or load) and the composer must
        rebuild from state."""
        if self._needs_resync:
            self._needs_resync = False
            self._journal.clear()
            return None
        ops, self._journal = self._journal, []
        return ops

    # -- mutations -------------------------------------------------------------

    def insert(self, row: RowLike, drive: bool = True) -> InsertOutcome:
        """Validate against the shard's ``Hi`` indexes and commit —
        the Theorem 3 O(1) maintenance check.  ``drive=False`` defers
        the shard fixpoint so a batch caller can run it once for many
        appended rows (:meth:`ShardedWeakInstanceService.insert_many`)."""
        outcome = self.checker.insert(self.name, row)
        if not outcome.accepted:
            self.stats.inserts_rejected += 1
            return outcome
        self.stats.inserts_accepted += 1
        if outcome.reason:  # duplicate: nothing changed
            self.stats.duplicate_inserts += 1
            return outcome
        self.version += 1
        self._journal_op("+", outcome.tuple)
        if self.live.live:
            self.live.append(self.name, outcome.tuple)
            if drive:
                self.live.drive()
        return outcome

    def delete(self, row: RowLike) -> bool:
        t = self.checker.coerce_tuple(self.name, row)
        if not self.checker.delete(self.name, t):
            return False
        self.stats.deletes += 1
        self.version += 1
        self._journal_op("-", t)
        self.live.retract(self.name, t)
        return True

    def load_fresh(self, fresh: Sequence[Tuple]) -> None:
        """Atomically load pre-deduplicated, not-yet-present tuples
        (the shard checker validates them against its indexes)."""
        if not fresh:
            return
        self.checker.load(
            DatabaseState(self.checker.schema, {self.name: list(fresh)})
        )
        self.version += 1
        self.live.invalidate()
        # bulk loads skip the journal: the composer rebuilds instead
        self._needs_resync = True
        self._journal.clear()

    def rollback_fresh(self, fresh: Sequence[Tuple]) -> None:
        """Undo a committed :meth:`load_fresh` (multi-shard load
        atomicity: a later shard's rejection unwinds earlier shards).
        Deletions are always safe, so this cannot fail."""
        for t in fresh:
            self.checker.delete(self.name, t)
        self.version += 1
        self.live.invalidate()

    # -- reads -----------------------------------------------------------------

    def relation(self) -> RelationInstance:
        return self.checker.state()[self.name]


class ShardedWeakInstanceService(WindowQueryAPI):
    """A weak-instance query service sharded by relation scheme.

    Shares the :class:`~repro.weak.service.WeakInstanceService`
    interface (``load`` / ``insert`` / ``delete`` / ``window`` /
    ``derivable`` / batch variants / ``state`` / ``stats``) and its
    answers, but confines every update to the inserted or deleted
    tuple's own shard (see the module docstring).  Requires an
    independent schema; pass a precomputed ``report`` to skip
    re-analysis (the CLI analyzes once for its up-front diagnostic and
    hands the report down).
    """

    #: bound on the memoized window plans and merged multi-shard
    #: windows (FIFO / LRU respectively)
    WINDOW_CACHE_LIMIT = LiveTableau.DEFAULT_WINDOW_CACHE_LIMIT

    def __init__(
        self,
        schema: DatabaseSchema,
        fds: Union[FDSet, Iterable[FD], str],
        report: Optional[IndependenceReport] = None,
        stats: Optional[ShardedServiceStats] = None,
    ):
        self.schema = schema
        self.fds = as_fdset(fds)
        if report is None:
            # build_counterexample stays on: on rejection the raised
            # error carries the Lemma 3 / Theorem 4 witness state, and
            # on acceptance no witness is constructed anyway
            report = analyze(schema, self.fds)
        if not report.independent:
            err = NotIndependentError(
                "sharded maintenance requires an independent schema "
                "(Theorem 3 locality does not hold); analysis:\n"
                + report.summary()
            )
            err.report = report
            raise err
        self.report = report
        # a caller-supplied stats object lets wrappers substitute an
        # extended dataclass (the durable layer's WAL counters live in
        # a ShardedServiceStats subclass) while every shard and the
        # composer still share the one instance
        self.stats = ShardedServiceStats() if stats is None else stats
        self._shards: Dict[str, _SchemeShard] = {
            scheme.name: self._build_shard(scheme, report) for scheme in schema
        }
        self._composer = LiveTableau(schema, self.fds, self.state, self.stats)
        #: cl_F(Ri) per scheme — the planner's reachability bound
        self._closures: Dict[str, AttributeSet] = {
            s.name: self.fds.closure(s.attributes) for s in schema
        }
        self._plans: Dict[AttributeSet, WindowPlan] = {}
        # merged multi-shard windows, keyed by target with the shard
        # version vector they were computed at
        self._merged_cache: Dict[
            AttributeSet, PyTuple[PyTuple[int, ...], RelationInstance]
        ] = {}
        # how many shards are quarantined or repairing: reads check
        # shard status only while it is nonzero, so the all-serving
        # read path stays O(1).  Kept by set_status under _status_lock.
        self._out_of_service = 0
        self._status_lock = threading.Lock()
        #: the schema epoch — bumped by every applied evolution; query
        #: caches key on it so old-epoch results never serve the new one
        self.schema_version = 0
        #: retired epochs kept for version-pinned reads (bounded FIFO)
        self._epochs: Dict[int, _EpochView] = {}
        self.epoch_retention = 2
        # mid-migration write tap: scheme name → ops accepted on the
        # old shard while its replacement is being built (None: no
        # migration in flight)
        self._migration_tap: Optional[Dict[str, List[PyTuple[str, Tuple]]]] = None
        #: migration state for health(): shard name → phase string
        self._migrating: Dict[str, str] = {}

    @classmethod
    def from_state(
        cls,
        state: DatabaseState,
        fds: Union[FDSet, Iterable[FD], str],
        report: Optional[IndependenceReport] = None,
        **options,
    ) -> "ShardedWeakInstanceService":
        service = cls(state.schema, fds, report=report, **options)
        service.load(state)
        return service

    @property
    def method(self) -> str:
        """Insert validation is always the Theorem 3 local check."""
        return "local"

    def maintenance_cover(self, scheme_name: str) -> FDSet:
        """The embedded cover ``Hi`` the scheme's shard enforces."""
        return self._shard(scheme_name).cover

    def _shard(self, scheme_name: str) -> _SchemeShard:
        shard = self._shards.get(scheme_name)
        if shard is None:
            # raise the schema's own unknown-scheme error
            self.schema[scheme_name]
            raise SchemaError(f"no shard for scheme {scheme_name!r}")
        return shard

    def _build_shard(
        self,
        scheme: RelationScheme,
        report: IndependenceReport,
        rows: Iterable[RowLike] = (),
    ) -> _SchemeShard:
        """Build one shard — at construction, for a repair or failover
        reload, and for an evolution's new epoch — with ``rows``
        validated through its fresh checker (raises
        :class:`InconsistentStateError` when they violate the cover)."""
        shard = _SchemeShard(
            scheme, report.scheme_restriction(scheme.name), self.stats
        )
        rows = list(rows)
        if rows:
            shard.checker.load(
                DatabaseState(shard.checker.schema, {scheme.name: rows})
            )
        return shard

    def shard_lock(self, scheme_name: str) -> threading.RLock:
        """The lock serializing writes (and snapshot reads) of one
        shard — the front end's per-shard write discipline.  The same
        object for the shard's whole life under its name."""
        return self._shard(scheme_name).lock

    # -- availability ------------------------------------------------------------

    def set_status(self, scheme_name: str, status: str, error: str = "") -> str:
        """Move one shard to ``status`` (recording ``error``; serving
        clears it) and return the previous status.  Reads that would
        consult a quarantined or repairing shard — directly, or through
        the composer, which joins facts across *all* shards — raise
        :class:`ShardQuarantinedError` instead of serving stale rows."""
        shard = self._shard(scheme_name)
        with self._status_lock:
            previous = shard.status
            shard.status = status
            if error:
                shard.error = error
            elif status == SHARD_SERVING:
                shard.error = ""
            self._out_of_service += (status in _UNREADABLE) - (previous in _UNREADABLE)
        return previous

    def primary_of(self, scheme_name: str) -> str:
        """The label of the store serving a shard (``"primary"`` until
        a failover re-points it, and on an in-memory service)."""
        store = self._shard(scheme_name).store
        return "primary" if store is None else store.label

    def health(self) -> Dict[str, object]:
        """Per-shard status and last error, the store serving each
        shard, the schema epoch, and any in-flight migration."""
        shards = {name: shard.status for name, shard in self._shards.items()}
        status = (
            "serving"
            if all(s == SHARD_SERVING for s in shards.values())
            else "degraded"
        )
        return {
            "status": status,
            "shards": shards,
            "errors": {
                name: shard.error
                for name, shard in self._shards.items()
                if shard.error
            },
            "primaries": {name: self.primary_of(name) for name in self._shards},
            "epoch": self.schema_version,
            "migration": self.migration_status(),
        }

    def _check_available(self, names: Iterable[str]) -> None:
        if not self._out_of_service:
            return
        for name in names:
            status = self._shards[name].status
            if status in _UNREADABLE:
                raise ShardQuarantinedError(name, status)

    # -- loading ---------------------------------------------------------------

    def load(self, state: DatabaseState) -> None:
        """Load a base state shard by shard (atomic across shards: a
        rejected relation unwinds the already-committed ones, so a
        violating state changes nothing)."""
        per_fresh: Dict[str, List[Tuple]] = {}
        for scheme, relation in state:
            shard = self._shard(scheme.name)
            seen: set = set()
            fresh: List[Tuple] = []
            for t in relation:
                if t in seen or shard.checker.contains(scheme.name, t):
                    continue
                seen.add(t)
                fresh.append(t)
            per_fresh[scheme.name] = fresh
        committed: List[str] = []
        try:
            for name, fresh in per_fresh.items():
                self._shards[name].load_fresh(fresh)
                committed.append(name)
        except InconsistentStateError:
            for name in committed:
                self._shards[name].rollback_fresh(per_fresh[name])
            raise
        self._composer.invalidate()
        # with the composer stale, journaling is pure waste until the
        # next sync re-arms it (drain resets the flag)
        for shard in self._shards.values():
            shard._needs_resync = True
            shard._journal.clear()

    def reload_shard(self, scheme_name: str, rows: Iterable[RowLike]) -> None:
        """Replace one shard's state wholesale with ``rows`` — the
        durable layer's repair and failover path.  A fresh checker and
        tableau are built (the rows re-validated through the fresh
        checker), so whatever in-memory state the old shard accumulated
        before it was quarantined cannot leak into the repaired one;
        the shard record itself — lock, status, store — stays."""
        shard = self._shard(scheme_name)
        shard.adopt(self._build_shard(shard.scheme, self.report, rows))
        self._composer.invalidate()
        self._merged_cache.clear()

    # -- schema evolution --------------------------------------------------------

    def _capture_rows(self, scheme_name: str) -> List[Dict[str, object]]:
        attrs = self._shards[scheme_name].scheme.attributes.names
        return [
            {a: t.value(a) for a in attrs}
            for t in self._shards[scheme_name].relation()
        ]

    def evolve(
        self,
        op: EvolutionOp,
        during: Optional[Callable[["ShardedWeakInstanceService"], None]] = None,
        hook: Optional[Callable[[str], None]] = None,
        pre_commit: Optional[
            Callable[[DatabaseSchema, FDSet, IndependenceReport], None]
        ] = None,
    ) -> EvolutionResult:
        """Apply one schema-evolution op with zero downtime.

        Protocol (every mutation before the final swap lands only on
        *fresh* objects, so any failure — rejection, injected crash,
        ``pre_commit`` error — leaves the old epoch fully serving):

        1. **Re-check** — :func:`~repro.core.independence.reanalyze`
           re-derives the Loop verdict only for closure-reachable
           schemes; a non-independent result raises
           :class:`EvolutionRejectedError` with the counterexample
           report attached.
        2. **Scoped rebuild** — only shards that are structurally
           redefined, newly produced, or whose maintenance cover
           changed are rebuilt (through the bulk chase kernel); every
           other shard is *kept*, untouched and serving throughout.
        3. **Migration journal** — writes accepted while a replacement
           is mid-build land on the still-serving old shard and in a
           per-shard migration journal (``during`` fires here: it is
           the seam tests and the server use to interleave traffic);
           the journal then replays onto the fresh shard, re-validated
           under the new cover.  A mid-migration delete on a
           *transformed* source falls back to re-capturing the
           transform (a projection's support count is not tracked).
        4. **Commit** — ``pre_commit`` (the durable layer's schema-WAL
           + manifest write) runs last before the in-memory swap; then
           the epoch bumps, planner/merged/query caches reset, the
           composer rebuilds over the new schema, and the retired
           epoch's changed relations are frozen for version-pinned
           reads.

        ``hook`` receives ``evolve.begin`` / ``evolve.mid-rebuild`` /
        ``evolve.journal-replay`` (the durable layer threads its crash
        points through it).
        """

        def fire(point: str) -> None:
            if hook is not None:
                hook(point)

        fire("evolve.begin")
        new_schema, new_fds_raw = op.apply(self.schema, self.fds)
        new_fds = as_fdset(new_fds_raw)
        delta = reanalyze(
            self.report,
            new_schema,
            new_fds,
            op.changed_attributes(self.schema, self.fds),
            op.structural_schemes(self.schema),
        )
        self.stats.independence_recheck_schemes += len(delta.rechecked)
        self.stats.independence_reused_schemes += len(delta.reused)
        if not delta.independent:
            self.stats.evolutions_rejected += 1
            raise EvolutionRejectedError(
                f"evolution rejected ({op.describe()}): evolved schema is "
                "not independent; old epoch left intact\n"
                + delta.report.summary(),
                report=delta.report,
            )
        new_report = delta.report
        new_covers = new_report.cover_assignment or {}
        old_covers = self.report.cover_assignment or {}

        sources = tuple(op.structural_schemes(self.schema))
        old_names = set(self._shards)
        rebuild: List[str] = []
        kept: List[str] = []
        for name in new_schema.names:
            if (
                name not in old_names
                or name in sources
                or old_covers.get(name) != new_covers.get(name)
            ):
                rebuild.append(name)
            else:
                kept.append(name)

        # arm the migration journal before capturing, so a concurrent
        # write between capture and replay is never lost (replay is
        # idempotent for the overlap: duplicate inserts dedup, absent
        # deletes no-op)
        tap: Dict[str, List[PyTuple[str, Tuple]]] = {
            name: []
            for name in set(sources) | (set(rebuild) & old_names)
        }
        self._migration_tap = tap
        try:
            capture = {src: self._capture_rows(src) for src in sources}
            migrated = op.migrate_relations(self.schema, capture)

            fresh: Dict[str, _SchemeShard] = {}

            def build(name: str, rows: Iterable[RowLike]) -> None:
                # re-validation through a fresh checker is what turns an
                # add-fd into a decidable request: the data either
                # satisfies the grown cover or refutes the evolution
                self._migrating[name] = "rebuilding"
                try:
                    fresh[name] = self._build_shard(
                        new_schema[name], new_report, rows
                    )
                except InconsistentStateError as exc:
                    self.stats.evolutions_rejected += 1
                    raise EvolutionRejectedError(
                        f"evolution rejected ({op.describe()}): stored rows "
                        f"of {name!r} violate the evolved constraints "
                        f"({exc}); old epoch left intact",
                        reason=name,
                    ) from exc
                self._migrating[name] = "built"

            for name in rebuild:
                self._migrating[name] = "rebuilding"
                fire("evolve.mid-rebuild")
                # a cover-only change keeps the scheme: its rows are
                # re-validated as they stand
                build(
                    name,
                    migrated[name]
                    if name in migrated
                    else list(self._shards[name].relation().tuples),
                )

            if during is not None:
                during(self)

            fire("evolve.journal-replay")

            def replay(name: str, src: str, row: RowLike) -> None:
                # a mid-migration write re-validated under the new cover
                self._migrating[name] = "replaying"
                outcome = fresh[name].insert(row)
                if not outcome.accepted:
                    self.stats.evolutions_rejected += 1
                    raise EvolutionRejectedError(
                        f"evolution rejected ({op.describe()}): "
                        f"mid-migration write on {src!r} violates the "
                        f"evolved constraints of {name!r} "
                        f"({outcome.reason}); old epoch left intact",
                        reason=name,
                    )

            replays = 0
            tapped = [o for src in sources for o, _ in tap[src]]
            if "-" in tapped or (len(sources) > 1 and tapped):
                # re-capture the transform wholesale: projections have
                # no per-row support counts, so a mid-migration delete
                # on a source cannot be replayed row by row, and a join
                # (merge) of one tapped row against the other members'
                # *empty* relations would drop the row
                capture = {src: self._capture_rows(src) for src in sources}
                for name, rows in op.migrate_relations(
                    self.schema, capture
                ).items():
                    build(name, rows)
            else:
                for src in sources:
                    src_attrs = self.schema[src].attributes.names
                    for _o, t in tap[src]:
                        row = {a: t.value(a) for a in src_attrs}
                        for name, rows in op.migrate_relations(
                            self.schema, {src: [row]}
                        ).items():
                            if name not in fresh:
                                continue
                            for r in rows:
                                replays += 1
                                replay(name, src, r)
            for name in (set(rebuild) & old_names) - set(sources):
                # same-scheme rebuild: the journal replays verbatim
                for o, t in tap[name]:
                    replays += 1
                    if o == "+":
                        replay(name, name, t)
                    else:
                        self._migrating[name] = "replaying"
                        fresh[name].delete(t)

            if pre_commit is not None:
                pre_commit(new_schema, new_fds, new_report)

            # -- the swap: from here on the new epoch is authoritative
            old_schema, old_fds = self.schema, self.fds
            # freeze before the swap rewrites same-named records: a
            # relation whose name or attributes changed is read through
            # the old version from these rows; one that survives as it
            # was keeps serving the old version from the live shard
            frozen: Dict[str, List[Tuple]] = {
                name: list(shard.relation().tuples)
                for name, shard in self._shards.items()
                if name not in new_schema
                or new_schema[name].attributes != shard.scheme.attributes
            }
            self._epochs[self.schema_version] = _EpochView(
                old_schema, old_fds, frozen
            )
            while len(self._epochs) > self.epoch_retention:
                self._epochs.pop(next(iter(self._epochs)))

            new_shards: Dict[str, _SchemeShard] = {}
            for name in new_schema.names:
                shard = self._shards.get(name)
                if shard is None:
                    shard = fresh[name]
                    shard.version = 1
                elif name in fresh:
                    # a same-named rebuild keeps the record (lock,
                    # status, store): only its maintenance state swaps
                    shard.adopt(fresh[name])
                shard._needs_resync = True
                shard._journal.clear()
                new_shards[name] = shard
            with self._status_lock:
                self._shards = new_shards
                self._out_of_service = sum(
                    shard.status in _UNREADABLE for shard in new_shards.values()
                )
            self.schema = new_schema
            self.fds = new_fds
            self.report = new_report
            self.schema_version += 1
            self._closures = {
                s.name: new_fds.closure(s.attributes) for s in new_schema
            }
            self._plans.clear()
            self._merged_cache.clear()
            self._composer = LiveTableau(
                new_schema, new_fds, self.state, self.stats
            )
            self.stats.evolutions_applied += 1
            self.stats.migration_shards_rebuilt += len(fresh)
            self.stats.migration_shards_kept += len(kept)
            self.stats.migration_journal_replays += replays
            return EvolutionResult(
                op=op.describe(),
                epoch_from=self.schema_version - 1,
                epoch_to=self.schema_version,
                rechecked=delta.rechecked,
                reused=delta.reused,
                rebuilt=tuple(sorted(fresh)),
                kept=tuple(kept),
                journal_replays=replays,
            )
        finally:
            self._migration_tap = None
            self._migrating = {}

    def migration_status(self) -> Dict[str, object]:
        """Live migration state for ``health()``/the CLI ``schema`` op:
        the current epoch, the retained pinnable epochs, and any shard
        currently mid-migration with its phase."""
        return {
            "epoch": self.schema_version,
            "retained_epochs": sorted(self._epochs),
            "migrating": dict(self._migrating),
        }

    # -- version-pinned reads ----------------------------------------------------

    def _epoch_view(self, version: int) -> _EpochView:
        view = self._epochs.get(version)
        if view is None:
            raise SchemaError(
                f"unknown schema version {version} (current "
                f"{self.schema_version}, retained {sorted(self._epochs)})"
            )
        return view

    def _epoch_state(self, version: int) -> DatabaseState:
        """The pinned epoch's state: frozen rows for relations a later
        migration changed (earliest freeze at or after the pinned
        version — the relation's content when it stopped being live),
        live shard rows for relations still compatible — so writes to
        untouched schemes stay visible through old versions."""
        view = self._epochs[version]
        rows: Dict[str, List[Tuple]] = {}
        for scheme in view.schema:
            name = scheme.name
            found: Optional[List[Tuple]] = None
            for v in sorted(self._epochs):
                if v < version:
                    continue
                frozen = self._epochs[v].frozen.get(name)
                if frozen is not None and (
                    v == version
                    or self._epochs[v].schema[name].attributes
                    == scheme.attributes
                ):
                    found = frozen
                    break
            if found is None:
                live = self._shards.get(name)
                if (
                    live is not None
                    and live.scheme.attributes == scheme.attributes
                ):
                    found = list(live.relation().tuples)
            if found is None:  # pragma: no cover - defensive
                raise SchemaError(
                    f"schema version {version} is no longer fully "
                    f"retained (relation {name!r} was migrated away)"
                )
            rows[name] = list(found)
        return DatabaseState(view.schema, rows)

    # -- updates ---------------------------------------------------------------

    def _tap_op(self, scheme_name: str, op: str, t: Tuple) -> None:
        """Record one committed op in the migration journal while the
        scheme's replacement shard is mid-build (writes keep landing on
        the still-serving old shard; the journal replays them onto the
        fresh one before the epoch swap)."""
        tap = self._migration_tap
        if tap is not None and scheme_name in tap:
            tap[scheme_name].append((op, t))

    def insert(self, scheme_name: str, row: RowLike) -> InsertOutcome:
        """Validate and commit one insertion against its own shard —
        no other shard, and not the global tableau, is touched."""
        outcome = self._shard(scheme_name).insert(row)
        if outcome.accepted and not outcome.reason:
            self._tap_op(scheme_name, "+", outcome.tuple)
        return outcome

    def delete(self, scheme_name: str, row: RowLike) -> bool:
        """Delete a tuple from its shard; returns whether it existed."""
        shard = self._shard(scheme_name)
        t = shard.checker.coerce_tuple(scheme_name, row)
        if not shard.delete(t):
            return False
        self._tap_op(scheme_name, "-", t)
        return True

    def insert_many(
        self, ops: Iterable[PyTuple[str, RowLike]]
    ) -> List[InsertOutcome]:
        """Insert a batch, driving each touched shard's fixpoint once
        instead of once per insert (validation is per-tuple O(1)
        either way)."""
        outcomes: List[InsertOutcome] = []
        touched: Dict[str, _SchemeShard] = {}
        for scheme_name, row in ops:
            shard = self._shard(scheme_name)
            outcome = shard.insert(row, drive=False)
            outcomes.append(outcome)
            if outcome.accepted and not outcome.reason:
                self._tap_op(scheme_name, "+", outcome.tuple)
                touched[scheme_name] = shard
        for shard in touched.values():
            if shard.live.live:  # a stale tableau rebuilds when read
                shard.live.drive()
        return outcomes

    # -- the window planner ----------------------------------------------------

    def _plan(self, target: AttributeSet) -> WindowPlan:
        plan = self._plans.get(target)
        if plan is not None:
            return plan
        if not target <= self.schema.universe:
            raise SchemaError(
                f"window attributes {target - self.schema.universe} are "
                f"outside the universe {self.schema.universe}"
            )
        direct = tuple(
            s.name for s in self.schema if target <= s.attributes
        )
        if direct:
            direct_set = set(direct)
            # sound iff no scheme can *derive* an X-total row it does
            # not store outright: a row of rj only ever grounds
            # attributes inside cl_F(Rj)
            local = all(
                s.name in direct_set or not target <= self._closures[s.name]
                for s in self.schema
            )
        else:
            local = False
        plan = WindowPlan(local=local, direct=direct)
        self._plans[target] = plan
        if len(self._plans) > self.WINDOW_CACHE_LIMIT:
            # FIFO bound (no LRU refresh on hit): plans are pure
            # functions of the schema and cheap to recompute, so
            # evicting a hot one costs one closure-subset pass.  The
            # eviction tolerates a concurrent evictor (the server's
            # shard-parallel readers may plan at once; losing the race
            # just means the bound is enforced by the other thread).
            try:
                self._plans.pop(next(iter(self._plans)), None)
            except (StopIteration, RuntimeError):
                pass
        return plan

    # -- the global composer ---------------------------------------------------

    def _sync_composer(self) -> None:
        """Bring the global tableau up to date with the shards by
        replaying their journals (or by scheduling a rebuild when a
        journal collapsed or the composer was never built)."""
        composer = self._composer
        if not composer.live:
            # nothing to replay into: drain (and discard) so the
            # rebuild from state() does not see the ops twice
            for shard in self._shards.values():
                shard.drain_journal()
            return
        pending: List[PyTuple[str, List[PyTuple[str, Tuple]]]] = []
        rebuild = False
        for shard in self._shards.values():
            ops = shard.drain_journal()
            if ops is None:
                rebuild = True
            elif ops:
                pending.append((shard.name, ops))
        if rebuild:
            # the caller's window()/representative() call rebuilds the
            # composer (ensure) immediately after this returns, so the
            # journals drain_journal just re-armed are genuinely useful
            # for the next sync — do not disarm them here
            composer.invalidate()
            return
        if not pending:
            return
        self.stats.composer_syncs += 1
        appended = False
        for name, ops in pending:
            self.stats.composer_synced_ops += len(ops)
            for op, t in ops:
                if op == "+":
                    composer.append(name, t)
                    appended = True
                else:
                    composer.retract(name, t)
        if appended and composer.live:
            if not composer.drive():  # pragma: no cover - Theorem 3
                # every replayed insert was locally validated, so the
                # composed state is satisfying and the chase cannot
                # contradict; reaching this means an engine bug
                raise InconsistentStateError(
                    "composer chase contradicted locally-validated shards"
                )

    # -- queries ---------------------------------------------------------------

    def window(
        self, attrset: AttrsLike, version: Optional[int] = None
    ) -> RelationInstance:
        """The derivable ``X``-facts of the current state — from the
        direct shards alone when the planner proves that equivalent,
        otherwise from the journal-synced global composer.

        ``version`` pins the answer to a retained schema epoch: the
        window is derived one-shot from that epoch's state under its
        own FDs (correct, not cached — pinned reads are the transition
        escape hatch, not the fast path)."""
        if version is not None and version != self.schema_version:
            view = self._epoch_view(version)
            target = AttributeSet(attrset)
            if not target <= view.schema.universe:
                raise SchemaError(
                    f"window attributes {target - view.schema.universe} are "
                    f"outside version {version}'s universe "
                    f"{view.schema.universe}"
                )
            self._check_available(self._shards)
            self.stats.window_queries += 1
            from repro.weak.representative import window as one_shot_window

            return one_shot_window(self._epoch_state(version), view.fds, target)
        target = AttributeSet(attrset)
        self.stats.window_queries += 1
        plan = self._plan(target)
        if not plan.local:
            # a composed answer joins facts through every shard, so any
            # unavailable shard poisons it
            self._check_available(self._shards)
            self.stats.global_windows += 1
            self._sync_composer()
            return self._composer.window(target)
        # local plan: only the direct shards matter — the closure guard
        # proved no other shard can contribute, so quarantines elsewhere
        # do not block this window
        self._check_available(plan.direct)
        self.stats.shard_windows += 1
        if len(plan.direct) == 1:
            return self._shards[plan.direct[0]].live.window(target)
        versions = tuple(self._shards[n].version for n in plan.direct)
        cached = self._merged_cache.get(target)
        if cached is not None and cached[0] == versions:
            self.stats.window_cache_hits += 1
            # refresh LRU position, like LiveTableau's cache (insertion
            # order doubles as LRU order)
            del self._merged_cache[target]
            self._merged_cache[target] = cached
            return cached[1]
        seen: Dict[PyTuple[object, ...], Tuple] = {}
        for name in plan.direct:
            # internal consultation, not a served query: shard-cache
            # hits here must not count (one query would score several)
            for t in self._shards[name].live.window(target, count_hits=False):
                seen.setdefault(tuple(t.value(a) for a in target), t)
        merged = RelationInstance(target, list(seen.values()))
        self._merged_cache[target] = (versions, merged)
        if len(self._merged_cache) > self.WINDOW_CACHE_LIMIT:
            self._merged_cache.pop(next(iter(self._merged_cache)))
            self.stats.window_cache_evictions += 1
        return merged

    def representative(self) -> ChaseTableau:
        """The globally chased tableau ``I(p)`` (journal-synced first;
        read-only, like the base service's).  Raises
        :class:`ShardQuarantinedError` while any shard is out of
        service — the global tableau is only meaningful over all of
        them."""
        self._check_available(self._shards)
        self._sync_composer()
        return self._composer.ensure()

    # -- query-engine hooks ------------------------------------------------------

    def _query_route(
        self, target: AttributeSet, always_compose: bool = False
    ) -> PyTuple[str, PyTuple[str, ...]]:
        """Routing for one scan target: the PR 4 closure guard
        (:meth:`_plan`) decides whether the ``[target]``-window is
        answerable from the direct shards alone; otherwise — or under
        ``always_compose``, the benchmark baseline — the leaf reads
        the journal-synced global composer and the result's validity
        depends on *every* shard."""
        if not always_compose:
            plan = self._plan(target)
            if plan.local:
                self._check_available(plan.direct)
                return ("shards", plan.direct)
        else:
            # surface the same universe check _plan would have run
            if not target <= self.schema.universe:
                raise SchemaError(
                    f"window attributes {target - self.schema.universe} are "
                    f"outside the universe {self.schema.universe}"
                )
        # composer answers depend on every shard
        self._check_available(self._shards)
        return ("composer", tuple(self._shards))

    def _query_stamps(self, names: Sequence[str]) -> PyTuple[int, ...]:
        return tuple(self._shards[n].version for n in names)

    def _query_scan(
        self,
        target: AttributeSet,
        bindings: Sequence[PyTuple[str, object]],
        route: str,
        shards: Sequence[str],
    ) -> RelationInstance:
        if route == "composer":
            self.stats.query_composer_scans += 1
            self._sync_composer()
            return self._composer.filtered_window(target, bindings)
        self.stats.query_shard_scans += 1
        if len(shards) == 1:
            return self._shards[shards[0]].live.filtered_window(target, bindings)
        # several schemes store the target outright: dedup-union of the
        # shard projections, exactly like the window() merge path
        seen: Dict[PyTuple[object, ...], Tuple] = {}
        for name in shards:
            for t in self._shards[name].live.filtered_window(target, bindings):
                seen.setdefault(tuple(t.value(a) for a in target), t)
        return RelationInstance(target, list(seen.values()))

    def query(self, query, version: Optional[int] = None) -> RelationInstance:
        """Evaluate a relational query (see
        :meth:`~repro.weak.service.WindowQueryAPI.query`); ``version``
        pins evaluation to a retained epoch's state and FDs via the
        naive from-scratch evaluator (pinned reads bypass every cache
        by construction)."""
        if version is not None and version != self.schema_version:
            view = self._epoch_view(version)
            self._check_available(self._shards)
            from repro.query.naive import evaluate_naive

            return evaluate_naive(query, self._epoch_state(version), view.fds)
        return self._query_engine().run(query)

    # -- introspection ----------------------------------------------------------

    def state(self) -> DatabaseState:
        """Immutable snapshot of the union of the shard states."""
        return DatabaseState(
            self.schema,
            {
                name: list(shard.relation().tuples)
                for name, shard in self._shards.items()
            },
        )

    def total_tuples(self) -> int:
        return sum(s.checker.total_tuples() for s in self._shards.values())

    @property
    def live(self) -> bool:
        """Is the *global* tableau current?  (Shards maintain their own
        tableaus; this mirrors the base service's notion.)"""
        return self._composer.live

    def shard_names(self) -> PyTuple[str, ...]:
        return tuple(self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardedWeakInstanceService<shards={len(self._shards)}, "
            f"tuples={self.total_tuples()}, composer_live={self.live}>"
        )
