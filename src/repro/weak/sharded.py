"""Independence-aware sharded weak-instance maintenance.

The paper's central payoff (Theorems 2–3) is that an *independent*
schema makes constraint enforcement **local**: every relation's
implied constraints ``Σi`` are covered by its own embedded FDs ``Hi``,
so a single-relation update is checkable against that relation alone.
:class:`ShardedWeakInstanceService` turns the theorem into the serving
architecture:

* **One shard per relation scheme, and a shard is its relation.**
  Each :class:`_SchemeShard` owns an ``_FDIndex``-backed
  :class:`~repro.core.maintenance.MaintenanceChecker` over the
  single-scheme restriction (O(1) per insert per cover FD).  Condition
  (1) puts ``Hi`` inside ``Ri``, so a validated relation is its own
  chase fixpoint: the shard serves windows straight from its rows.  An
  insert or delete touches exactly one shard: no chase, no global
  merge log, and no cache invalidation outside the shard.
* **Windows as lookup joins over the shards.**  On an independent
  schema every row of the chased representative instance is one stored
  tuple extended through the embedded covers (Sagiv, JACM 1991), and
  each extension step is a probe into an FD index a shard already
  keeps.  The planner (:mod:`repro.weak.plans`) compiles a target
  ``X``, once per schema version, into a union over the *starts* — the
  schemes whose closure reaches ``X``; a row of no other scheme ever
  becomes ``X``-total — each extended through the cover lookups that
  reach ``X``, with starts whose rows other starts already produce
  pruned away.  A start that stores ``X`` outright needs no lookup: it
  is a projection of its rows.  (Storing ``X`` is not enough on its
  own: in ``AB(A,B); CA(C,A); CB(C,B)`` with ``C→A, C→B`` — an
  independent schema — the window over ``AB`` also holds facts joined
  *through* ``C``, which the start ``CB`` derives by looking ``A`` up
  in ``CA``.)  Plans run over shard state only — value buckets and FD
  indexes — so only a plan's own shards can block an answer, and an
  unfiltered result is cached under those shards' versions alone.
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
per query (the randomized oracle suites in ``tests/test_weak_sharded.py``
and ``tests/test_window_plans.py`` pin them against each other); the
difference is the cost model: updates are O(local), no read chases
anything, and a window never pays for shards outside its plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    KeysView,
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
from repro.weak.plans import WindowPlan, compile_plan, run_plan
from repro.weak.representative import representative_instance
from repro.weak.representative import window as one_shot_window
from repro.weak.service import LiveTableau, ServiceStats, WindowQueryAPI


@dataclass
class ShardedServiceStats(ServiceStats):
    """Counters of :class:`ShardedWeakInstanceService`, extending the
    base service's (``as_dict`` enumerates dataclass fields, so these
    flow into the CLI ``stats`` op automatically).  The inherited
    tableau-lifecycle counters stay 0: the sharded service chases
    nothing; the window-cache counters cover every cache."""

    #: windows answered by projecting shards that store the target
    shard_windows: int = 0
    #: windows answered by a plan that joins shards through lookups
    joined_windows: int = 0
    #: query leaf scans (every one runs its target's plan)
    query_shard_scans: int = 0
    #: always 0 — there is no global composer any more; kept so readers
    #: of composer shares and sync rates keep their keys
    query_composer_scans: int = 0
    composer_syncs: int = 0
    composer_synced_ops: int = 0
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


def _fifo_put(cache: dict, key, value) -> bool:
    """Store ``key`` and evict the oldest entry past
    ``ShardedWeakInstanceService.WINDOW_CACHE_LIMIT`` (no LRU refresh
    on hit); returns whether one was evicted.  Tolerates a concurrent
    evictor: the server's readers of disjoint shards may share a cache,
    and losing the race leaves the bound to the other thread."""
    cache[key] = value
    if len(cache) <= ShardedWeakInstanceService.WINDOW_CACHE_LIMIT:
        return False
    try:
        cache.pop(next(iter(cache)), None)
    except (StopIteration, RuntimeError):
        return False
    return True


def _within(target: AttributeSet, universe: AttributeSet) -> AttributeSet:
    """``target``, or :class:`SchemaError` when it leaves ``universe``."""
    if not target <= universe:
        raise SchemaError(
            f"window attributes {target - universe} are outside the "
            f"universe {universe}"
        )
    return target


class _SchemeShard:
    """One relation scheme's maintenance, failure and availability unit.

    Wraps a local ``MaintenanceChecker`` (``_FDIndex`` per cover FD)
    over the single-scheme restriction.  Its relation is its own chase
    fixpoint, so windows over ``X ⊆ Ri`` are projections of the rows;
    window plans probe its FD indexes and the value index
    :meth:`bucket` builds per attribute on first use.  Mutations bump
    :attr:`version`, the stamp cached plan results are keyed on.
    Beside that: the write lock, status and last error, and the
    durable part (store, WAL, void flag, session table, demoted store;
    ``None`` on an in-memory service).
    """

    __slots__ = (
        "scheme", "name", "cover", "checker", "stats", "version",
        "_value_index",
        "lock", "status", "error",
        "store", "wal", "void", "sessions", "demoted",
    )

    def __init__(
        self,
        scheme: RelationScheme,
        restriction: IndependenceReport,
        stats: ShardedServiceStats,
    ):
        # the checker's scheme object (a memoized analysis may hand back
        # an equal copy): every stored tuple shares its AttributeSet
        self.scheme = restriction.schema[scheme.name]
        self.name = scheme.name
        self.cover: FDSet = restriction.fds
        self.checker = MaintenanceChecker(
            restriction.schema, self.cover, method="local", report=restriction
        )
        self.stats = stats
        self.version = 0
        # (version, target → window): windows of one version only
        # attribute → (column, value → stored tuples in insertion
        # order), for the attributes a filter has bound so far
        self._value_index: Dict[str, PyTuple[int, Dict[object, List[Tuple]]]] = {}
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
        self._value_index = {}
        self.version += 1

    # -- mutations -------------------------------------------------------------

    def insert(self, row: RowLike) -> InsertOutcome:
        """Validate against the shard's ``Hi`` indexes and commit —
        the Theorem 3 O(1) check is all the work an insert does."""
        outcome = self.checker.insert(self.name, row)
        if not outcome.accepted:
            self.stats.inserts_rejected += 1
            return outcome
        self.stats.inserts_accepted += 1
        if outcome.reason:  # duplicate: nothing changed
            self.stats.duplicate_inserts += 1
            return outcome
        self.version += 1
        t = outcome.tuple
        for col, buckets in self._value_index.values():
            buckets.setdefault(t.values[col], []).append(t)
        return outcome

    def delete(self, row: RowLike) -> bool:
        t = self.checker.coerce_tuple(self.name, row)
        if not self.checker.delete(self.name, t):
            return False
        self.stats.deletes += 1
        self.version += 1
        for col, buckets in self._value_index.values():
            bucket = buckets[t.values[col]]
            bucket.remove(t)
            if not bucket:
                del buckets[t.values[col]]
        return True

    def load_fresh(self, rows: Sequence[RowLike]) -> List[Tuple]:
        """Atomically validate and load ``rows`` (present ones are
        skipped); returns the tuples added."""
        fresh = self.checker.load(
            DatabaseState(self.checker.schema, {self.name: list(rows)})
        )[self.name]
        if fresh:
            self.version += 1
            self._value_index = {}
        return fresh

    def rollback_fresh(self, fresh: Sequence[Tuple]) -> None:
        """Undo a committed :meth:`load_fresh` (multi-shard load
        atomicity: a later shard's rejection unwinds earlier shards).
        Deletions are always safe, so this cannot fail."""
        for t in fresh:
            self.checker.delete(self.name, t)
        self.version += 1
        self._value_index = {}

    # -- reads -----------------------------------------------------------------

    def rows(self) -> KeysView[Tuple]:
        """The stored tuples in insertion order (a live view)."""
        return self.checker.rows(self.name)

    def project(
        self, target: AttributeSet, rows: Optional[Iterable[Tuple]] = None
    ) -> RelationInstance:
        """``π_target`` (``target ⊆ Ri``) of ``rows``, stored tuples of
        this shard — by default all of them."""
        rows = self.rows() if rows is None else rows
        if target == self.scheme.attributes:
            # the stored tuples already are the facts, and distinct
            return RelationInstance(target, rows)
        cols = [self.scheme.attributes.names.index(a) for a in target]
        # value rows in natural order: the relation dedups them and
        # builds no Tuple until its reader iterates
        return RelationInstance(
            target, [tuple([t.values[c] for c in cols]) for t in rows]
        )

    def matching(self, bindings: Sequence[PyTuple[str, object]]) -> List[Tuple]:
        """The stored tuples holding every ``(attribute, value)`` of
        ``bindings`` (attributes of the scheme), read from the smallest
        bound value bucket."""
        rows = min((self.bucket(a, v) for a, v in bindings), key=len)
        if len(bindings) == 1:
            return rows
        names = self.scheme.attributes.names
        checks = [(names.index(a), v) for a, v in bindings]
        return [t for t in rows if all(t.values[c] == v for c, v in checks)]

    def bucket(self, attr: str, value: object) -> List[Tuple]:
        """The stored tuples holding ``value`` at ``attr``; the
        attribute is indexed on its first binding."""
        entry = self._value_index.get(attr)
        if entry is None:
            col = self.scheme.attributes.names.index(attr)
            entry = self._value_index[attr] = (col, {})
            for t in self.rows():
                entry[1].setdefault(t.values[col], []).append(t)
        return entry[1].get(value, [])


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

    #: FIFO bound on the memoized window plans and on their cached
    #: unfiltered results
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
        # a ShardedServiceStats subclass) while every shard still
        # shares the one instance
        self.stats = ShardedServiceStats() if stats is None else stats
        self._shards: Dict[str, _SchemeShard] = {
            scheme.name: self._build_shard(scheme, report) for scheme in schema
        }
        self._plans: Dict[AttributeSet, WindowPlan] = {}
        # unfiltered plan results, keyed by target with the version
        # vector of the plan's shards they were computed at
        self._results: Dict[
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
        shard.load_fresh(list(rows))
        return shard

    def shard_lock(self, scheme_name: str) -> threading.RLock:
        """The lock serializing writes (and snapshot reads) of one
        shard — the front end's per-shard write discipline.  The same
        object for the shard's whole life under its name."""
        return self._shard(scheme_name).lock

    # -- availability ------------------------------------------------------------

    def set_status(self, scheme_name: str, status: str, error: str = "") -> str:
        """Move one shard to ``status`` (recording ``error``; serving
        clears it) and return the previous status.  Reads whose plan
        reads a quarantined or repairing shard raise
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
        committed: List[PyTuple[_SchemeShard, List[Tuple]]] = []
        try:
            for scheme, relation in state:
                shard = self._shard(scheme.name)
                committed.append((shard, shard.load_fresh(relation.tuples)))
        except InconsistentStateError:
            for shard, fresh in committed:
                shard.rollback_fresh(fresh)
            raise

    def reload_shard(self, scheme_name: str, rows: Iterable[RowLike]) -> None:
        """Replace one shard's state wholesale with ``rows`` — the
        durable layer's repair and failover path.  A fresh checker is
        built (the rows re-validated through it), so whatever in-memory
        state the old shard accumulated before it was quarantined
        cannot leak into the repaired one;
        the shard record itself — lock, status, store — stays."""
        shard = self._shard(scheme_name)
        shard.adopt(self._build_shard(shard.scheme, self.report, rows))

    # -- schema evolution --------------------------------------------------------

    def _capture_rows(self, scheme_name: str) -> List[Dict[str, object]]:
        shard = self._shards[scheme_name]
        names = shard.scheme.attributes.names
        # the first capture runs before any shard lock is held, while
        # writers may still mutate the shard: copy the live view in one
        # step before iterating it
        return [dict(zip(names, t.values)) for t in list(shard.rows())]

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
           changed are rebuilt (their rows re-validated through a
           fresh checker); every other shard is *kept*, untouched and
           serving throughout.
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
           the epoch bumps, the plan, result and query caches reset,
           and the retired epoch's changed relations are frozen for
           version-pinned reads.

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
                    else list(self._shards[name].rows()),
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
                name: list(shard.rows())
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
            self._plans.clear()
            self._results.clear()
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
                    found = list(live.rows())
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
        """Insert a batch, one O(1) local check per tuple."""
        return [self.insert(scheme_name, row) for scheme_name, row in ops]

    # -- the window planner ----------------------------------------------------

    def _plan(self, target: AttributeSet) -> WindowPlan:
        plan = self._plans.get(target)
        if plan is None:
            _within(target, self.schema.universe)
            plan = compile_plan(
                target,
                self.schema,
                {name: shard.cover for name, shard in self._shards.items()},
            )
            # plans are pure functions of the schema: an evicted hot
            # plan costs one recompile
            _fifo_put(self._plans, target, plan)
        return plan

    def _plan_window(self, plan: WindowPlan, count_hits: bool) -> RelationInstance:
        """The unfiltered window of ``plan``, cached under the versions
        of the plan's own shards (a write elsewhere keeps it);
        ``count_hits=False`` keeps a query leaf's read out of
        ``window_cache_hits``."""
        target = plan.target
        versions = self._query_stamps(plan.shards)
        cached = self._results.get(target)
        if cached is not None and cached[0] == versions:
            if count_hits:
                self.stats.window_cache_hits += 1
            return cached[1]
        if len(plan.starts) == 1 and plan.local:
            facts = self._shards[plan.starts[0].shard].project(target)
        else:
            facts = RelationInstance(target, run_plan(plan, self._shards))
        if _fifo_put(self._results, target, (versions, facts)):
            self.stats.window_cache_evictions += 1
        return facts

    # -- queries ---------------------------------------------------------------

    def window(
        self, attrset: AttrsLike, version: Optional[int] = None
    ) -> RelationInstance:
        """The derivable ``X``-facts of the current state, from the
        target's compiled plan over the shards.

        ``version`` pins the answer to a retained schema epoch: the
        window is derived one-shot from that epoch's state under its
        own FDs (correct, not cached — pinned reads are the transition
        escape hatch, not the fast path)."""
        if version is not None and version != self.schema_version:
            view = self._epoch_view(version)
            target = _within(AttributeSet(attrset), view.schema.universe)
            self._check_available(self._shards)
            self.stats.window_queries += 1
            return one_shot_window(self._epoch_state(version), view.fds, target)
        plan = self._plan(AttributeSet(attrset))
        # only the plan's shards can contribute: quarantines elsewhere
        # do not block this window
        self._check_available(plan.shards)
        self.stats.window_queries += 1
        if plan.local:
            self.stats.shard_windows += 1
        else:
            self.stats.joined_windows += 1
        return self._plan_window(plan, count_hits=True)

    def representative(self) -> ChaseTableau:
        """The chased tableau ``I(p)`` of the current state, built one
        shot (nothing serves from it).  Raises
        :class:`ShardQuarantinedError` while any shard is out of
        service — the global tableau is only meaningful over all of
        them."""
        self._check_available(self._shards)
        return representative_instance(self.state(), self.fds)

    # -- query-engine hooks ------------------------------------------------------

    def _query_route(self, target: AttributeSet) -> PyTuple[str, PyTuple[str, ...]]:
        """Every scan runs its target's plan; the result's validity
        depends on the plan's shards only."""
        plan = self._plan(target)  # also the universe check
        self._check_available(plan.shards)
        return ("shards", plan.shards)

    def _query_stamps(self, names: Sequence[str]) -> PyTuple[int, ...]:
        return tuple([self._shards[n].version for n in names])

    def _query_scan(
        self,
        target: AttributeSet,
        bindings: Sequence[PyTuple[str, object]],
        route: str,
        shards: Sequence[str],
    ) -> RelationInstance:
        self.stats.query_shard_scans += 1
        plan = self._plan(target)
        if not bindings:
            return self._plan_window(plan, count_hits=False)
        if len(plan.starts) == 1 and plan.local:
            shard = self._shards[plan.starts[0].shard]
            return shard.project(target, shard.matching(bindings))
        return RelationInstance(target, run_plan(plan, self._shards, bindings))

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
            {name: list(shard.rows()) for name, shard in self._shards.items()},
        )

    def total_tuples(self) -> int:
        return sum(s.checker.total_tuples() for s in self._shards.values())

    def shard_names(self) -> PyTuple[str, ...]:
        return tuple(self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardedWeakInstanceService<shards={len(self._shards)}, "
            f"tuples={self.total_tuples()}>"
        )
