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
* **One record per shard, and the shard owns its log.**  A
  :class:`_SchemeShard` also holds the shard's lock, status, store,
  WAL and session table; a rebuild under the same name (repair,
  failover, evolution) keeps the record.  What varies is the log, per
  the single-pipeline view of Herrmann et al. (arXiv:1608.05564):
  without a ``root`` the shards keep none (in-memory serving); with a
  ``root`` each shard appends to its own local WAL and snapshots
  beside it (:mod:`repro.weak.durable` holds that on-disk format and
  the protocol notes); with ``replicas`` that WAL is shipped
  (:mod:`repro.weak.replication`).  Theorem 3 is what lets every
  shard be its own commit and failure domain: no cross-shard
  invariant constrains the interleaving, so there is no global log.

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

import errno as _errno
import functools
import json
import logging
import os
import pathlib
import random
import shutil
import threading
import time
from collections.abc import Iterator
from contextlib import ExitStack
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
    ReplicationError,
    ReproError,
    SchemaError,
    SessionSequenceError,
    ShardQuarantinedError,
)
from repro.schema.attributes import AttributeSet, AttrsLike
from repro.schema.database import DatabaseSchema
from repro.schema.evolution import EvolutionOp, evolution_op_from_json
from repro.schema.relation import RelationScheme
from repro.weak import replication
from repro.weak.durable import (
    _SNAPSHOT_TMP,
    SCHEMA_LOG_NAME,
    SHARD_DEGRADED,
    SHARD_QUARANTINED,
    SHARD_REPAIRING,
    SHARD_SERVING,
    DurableUnavailableError,
    FaultHook,
    ShardChain,
    ShardStore,
    StoreIO,
    _encode_record,
    _fds_from_json,
    _fds_to_json,
    _read_manifest,
    _schema_from_json,
    _schema_log_records,
    _schema_to_json,
    _sessions_to_snapshot,
    _ShardWal,
    _snapshot_payload,
    _write_fsync,
    _write_manifest,
    read_chain,
)
from repro.weak.plans import WindowPlan, compile_plan, run_plan
from repro.weak.representative import representative_instance
from repro.weak.representative import window as one_shot_window
from repro.weak.service import LiveTableau, ServiceStats, WindowQueryAPI

_log = logging.getLogger(__name__)


@dataclass
class ShardedServiceStats(ServiceStats):
    """Counters of :class:`ShardedWeakInstanceService`, extending the
    base service's (``as_dict`` enumerates dataclass fields, so these
    flow into the CLI ``stats`` op automatically — tests wait on
    counters, not on sleeps).  The inherited tableau-lifecycle counters
    stay 0: the sharded service chases nothing; the window-cache
    counters cover every cache.  The log counters stay 0 without a
    store."""

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
    #: WAL records staged (accepted, non-duplicate mutations)
    wal_records_appended: int = 0
    #: group commits that wrote at least one record
    wal_commits: int = 0
    #: fsync() calls issued on WAL files (one per dirty WAL per commit)
    wal_fsyncs: int = 0
    #: bytes written to WAL files
    wal_bytes_written: int = 0
    #: WAL records re-applied while recovering (the journal replays)
    wal_records_replayed: int = 0
    #: per-shard snapshots written
    snapshots_written: int = 0
    #: shards whose recovery started from a snapshot file
    snapshot_loads: int = 0
    #: service opens that recovered existing on-disk state
    recoveries: int = 0
    #: transient I/O errors absorbed by the bounded-backoff retry loop
    io_retries: int = 0
    #: shards quarantined by a persistent (non-ENOSPC) I/O failure
    shards_quarantined: int = 0
    #: shards degraded to read-only by persistent ENOSPC
    shards_degraded: int = 0
    #: shards healed — by :meth:`ShardedWeakInstanceService.repair` or by a
    #: successful degraded-mode recovery probe
    shards_recovered: int = 0
    #: WAL corruption events: a bad region *followed by valid frames*
    #: (a torn tail — the expected crash residue — does not count)
    wal_corrupt_frames: int = 0
    #: bytes dropped from WALs by mid-file corruption (bad region plus
    #: the stranded records after it; torn tails do not count)
    wal_truncated_bytes: int = 0
    #: recoveries that fell back past a bad snapshot to an older
    #: generation (acknowledged records may have rolled back — logged)
    snapshot_fallbacks: int = 0
    #: schema-evolution records committed to ``schema.log``
    evolutions_logged: int = 0
    #: shards rolled forward at recovery (their snapshot predated the
    #: manifest epoch: the logged op's migration was re-applied)
    evolution_rollforwards: int = 0
    #: duplicate sessioned submissions answered from the dedup table
    #: instead of re-applied (the exactly-once hits)
    session_dedup_hits: int = 0
    #: live entries across every shard's session table
    session_records: int = 0
    #: WAL frames acknowledged by replicas (counted once per replica)
    replica_frames_shipped: int = 0
    #: WAL bytes acknowledged by replicas
    replica_bytes_shipped: int = 0
    #: ships a replica refused with an I/O error (target marked behind)
    replica_ship_failures: int = 0
    #: anti-entropy catch-ups that shipped a missing WAL suffix
    replica_catchups: int = 0
    #: anti-entropy catch-ups that fell back to a full snapshot copy
    replica_snapshot_copies: int = 0
    #: snapshot installs shipped to replicas (primary snapshot cycles)
    replica_snapshot_installs: int = 0
    #: shards failed over to a promoted replica
    failovers: int = 0
    #: demoted stores re-registered as replicas
    rejoins: int = 0


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
    Beside that: the write lock, status and last error, the durable
    part (store, WAL, void flag, session table, demoted store; ``None``
    on an in-memory service) and the replicated part — one target per
    replica, the frames and WAL end offset shipped so far, the
    replication epoch, and the replica lock held across replica I/O
    (:mod:`repro.weak.replication`).
    """

    __slots__ = (
        "scheme", "name", "cover", "checker", "stats", "version",
        "_value_index",
        "lock", "status", "error",
        "store", "wal", "void", "sessions", "demoted",
        "targets", "shipped_frames", "shipped_offset", "replication_epoch",
        "replica_lock",
    )

    def __init__(
        self,
        scheme: RelationScheme,
        restriction: IndependenceReport,
        stats: ShardedServiceStats,
        replicas: Sequence[ShardStore] = (),
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
        #: replica label → shipping state; a promotion removes one
        self.targets = {store.label: replication._Target(store) for store in replicas}
        #: cumulative frames shipped — the monotone measure lag is
        #: computed against (snapshot truncations reset offsets, never
        #: this) — and the WAL end offset the last ship reached
        self.shipped_frames = 0
        self.shipped_offset = 0
        #: bumped by every promotion
        self.replication_epoch = 0
        self.replica_lock = threading.RLock()

    def adopt(self, fresh: "_SchemeShard") -> None:
        """Take over the maintenance state of a same-named shard rebuilt
        off to the side; lock, status, the durable and the replicated
        part stay, and the version continues so stamped caches see the
        change."""
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


def _attach(shard: _SchemeShard, store: ShardStore) -> None:
    """Point a shard at ``store`` — at open, for a migrated-in scheme,
    and when a failover promotes a replica — with a fresh WAL on it
    (a session table survives: it moves with the in-memory state)."""
    store.shard_dir(shard.name).mkdir(parents=True, exist_ok=True)
    shard.store = store
    shard.wal = _ShardWal(store.wal_path(shard.name), store.io)
    if shard.sessions is None:
        shard.sessions = {}


def _fails_over(method):
    """Make one public entry point survive a shard quarantine: promote
    a replica and retry the call once.  A degrade is left alone (ENOSPC
    probes heal themselves), and with no replica to promote the
    original :class:`~repro.exceptions.ShardQuarantinedError` stands."""

    @functools.wraps(method)
    def entry(self, *args, **kwargs):
        # a one-shot iterator argument must survive into the retry
        args = tuple(list(a) if isinstance(a, Iterator) else a for a in args)
        try:
            return method(self, *args, **kwargs)
        except ShardQuarantinedError as exc:
            shard = self._shards.get(exc.shard)
            if exc.status != SHARD_QUARANTINED or shard is None or not shard.targets:
                raise
            try:
                self.failover(exc.shard)
            except (ReplicationError, ShardQuarantinedError):
                raise exc from None
            return method(self, *args, **kwargs)

    return entry


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

    ``root`` gives every shard a log: per-shard WAL + snapshots under
    that directory (:mod:`repro.weak.durable`); an existing store
    **recovers** — snapshot plus WAL-tail replay per shard, then one
    atomic load, no chase.  ``auto_commit`` decides whether
    :meth:`insert`, :meth:`delete` and :meth:`insert_many` commit (and
    maybe snapshot) the touched shards before returning or only stage
    for :meth:`commit_shards`, as the ``apply_*`` calls always do.
    Without a ``root`` nothing is staged; sessions, snapshots,
    ``repair``, ``failover`` and ``rejoin`` then raise
    :class:`~repro.exceptions.ReproError`.  ``replicas`` (paths or
    :class:`~repro.weak.durable.ShardStore` objects) receive every
    fsynced WAL blob and snapshot install before the commit returns
    (:mod:`repro.weak.replication`).
    """

    #: FIFO bound on the memoized window plans and on their cached
    #: unfiltered results
    WINDOW_CACHE_LIMIT = LiveTableau.WINDOW_CACHE_LIMIT
    DEFAULT_SNAPSHOT_INTERVAL = 4096
    #: snapshot files kept per shard (the newest plus K-1 predecessors
    #: in a rename chain) — the rollback depth of ``repair``
    SNAPSHOT_GENERATIONS = 3
    #: transient-I/O-error retries before a shard degrades/quarantines
    IO_RETRIES = 2
    #: first retry backoff in seconds (doubles per attempt)
    IO_BACKOFF = 0.005
    #: retry jitter as a fraction of each backoff step: the sleep is
    #: ``backoff * 2**attempt * (1 + jitter * U[0,1))`` — without it,
    #: shards that failed together retry together and stampede a
    #: recovering disk in lockstep
    IO_JITTER = 0.5
    #: retired epochs kept for version-pinned reads
    EPOCH_RETENTION = 2

    def __init__(
        self,
        schema: DatabaseSchema,
        fds: Union[FDSet, Iterable[FD], str],
        root: Optional[Union[str, os.PathLike]] = None,
        report: Optional[IndependenceReport] = None,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
        auto_commit: bool = True,
        fault_hook: Optional[FaultHook] = None,
        io: Optional[StoreIO] = None,
        replicas: Sequence[Union[str, os.PathLike, ShardStore]] = (),
    ):
        self.root = None if root is None else pathlib.Path(root)
        self.snapshot_interval = snapshot_interval
        self.auto_commit = auto_commit
        self.fault_hook = fault_hook
        self.io = io if io is not None else StoreIO()
        self._rng = random.Random()
        self.stats = ShardedServiceStats()
        self._crashed = False
        # innermost lock (shard lock -> WAL io_lock -> this) for
        # staging and shared counters, never held across I/O
        self._stage_lock = threading.Lock()
        # labeled like primary_of()'s default; None: the shards keep no log
        self._store = (
            None if root is None else ShardStore(self.root, self.io, label="primary")
        )
        if replicas and self._store is None:
            raise ReproError("replicas copy the shards' logs: pass a root")
        # paths get a default-IO store; a duplicate label gets an index
        # suffix.  Every shard record is built with a target per store.
        self._replica_stores: List[ShardStore] = []
        for index, replica in enumerate(replicas):
            store = replica if isinstance(replica, ShardStore) else ShardStore(replica)
            if any(s.label == store.label for s in self._replica_stores):
                store.label = f"{store.label}-{index}"
            self._replica_stores.append(store)
        manifest = None if self._store is None else _read_manifest(self.root)
        epoch = int(manifest.get("epoch", 0)) if manifest else 0
        if epoch > 0 and manifest.get("schema"):
            # the store evolved past the catalog it was created with:
            # the manifest's schema + FDs are authoritative (the
            # constructor's schema only names the original epoch)
            evolved = _schema_from_json(manifest["schema"])
            evolved_fds = _fds_from_json(manifest.get("fds", []))
            if evolved != schema or evolved_fds != as_fdset(fds):
                schema, fds, report = evolved, evolved_fds, None
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
        # read path stays O(1).  Kept by _set_status under _status_lock.
        self._out_of_service = 0
        self._status_lock = threading.Lock()
        #: the schema epoch — bumped by every applied evolution; query
        #: caches key on it so old-epoch results never serve the new one
        self.schema_version = epoch
        #: retired epochs kept for version-pinned reads (bounded FIFO)
        self._epochs: Dict[int, _EpochView] = {}
        # mid-migration write tap: scheme name → ops accepted on the
        # old shard while its replacement is being built (None: no
        # migration in flight)
        self._migration_tap: Optional[Dict[str, List[PyTuple[str, Tuple]]]] = None
        #: migration state for health(): shard name → phase string
        self._migrating: Dict[str, str] = {}
        if self._store is None:
            return
        names = sorted(self._shards)
        if manifest is not None and sorted(manifest.get("schemes", [])) != names:
            raise ReproError(
                f"durable directory {self.root} was written for schemes "
                f"{manifest.get('schemes')}, not {names}"
            )
        # a migrated-in scheme's directory may not exist yet (crash
        # between manifest commit and finalize): attaching creates it
        for shard in self._shards.values():
            _attach(shard, self._store)
        if manifest is None:
            _write_manifest(self.io, self.root, self.schema, self.fds, 0)
            return
        self._recover()
        # a shard that opened with no readable chain at all can be
        # rebuilt from a replica right now instead of waiting for the
        # first write to trip over it
        void = [n for n in names if self._shards[n].void and self._shards[n].targets]
        for name in void:
            try:
                self.failover(name)
            except (ReplicationError, ShardQuarantinedError) as exc:
                _log.warning(
                    "startup failover of void shard %s failed: %s",
                    name, exc,
                )

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
            scheme,
            report.scheme_restriction(scheme.name),
            self.stats,
            self._replica_stores,
        )
        shard.load_fresh(list(rows))
        return shard

    def shard_lock(self, scheme_name: str) -> threading.RLock:
        """The lock serializing writes (and snapshot reads) of one
        shard — the front end's per-shard write discipline.  The same
        object for the shard's whole life under its name."""
        return self._shard(scheme_name).lock

    # -- layout and recovery ----------------------------------------------------

    def shard_store(self, name: str) -> Optional[ShardStore]:
        """The store holding one shard's chain: the service's own, or
        a promoted replica's after a failover (a name with no shard —
        a retired scheme — maps to the service's own)."""
        shard = self._shards.get(name)
        return self._store if shard is None else shard.store

    def wal_path(self, name: str) -> pathlib.Path:
        return self.shard_store(name).wal_path(name)

    def snapshot_path(self, name: str, generation: int = 0) -> pathlib.Path:
        return self.shard_store(name).snapshot_path(name, generation)

    def _require_store(self, what: str) -> None:
        if self._store is None:
            raise ReproError(f"{what} requires a durable service")

    def _read_chain(self, name: str, store: ShardStore) -> ShardChain:
        """:func:`~repro.weak.durable.read_chain`, plus logging and
        counting a snapshot fallback and mid-file WAL corruption, and
        cutting the WAL back to its intact prefix (appends after a bad
        tail would be lost)."""
        chain = read_chain(store, name, self.SNAPSHOT_GENERATIONS)
        for bad in (e for e in chain.snapshots if not e["ok"]):
            _log.warning("shard %s: bad snapshot generation %d: %s",
                         name, bad["generation"], bad["error"])
        if chain.generation:
            self.stats.snapshot_fallbacks += 1
            _log.warning(
                "shard %s: snapshot generation 0 unreadable; recovered "
                "from generation %d (acknowledged records after that "
                "snapshot are lost)",
                name, chain.generation,
            )
        scan = chain.scan
        if scan.corrupt:
            self.stats.wal_corrupt_frames += scan.corrupt_regions
            self.stats.wal_truncated_bytes += scan.tail_bytes
            _log.warning(
                "shard %s WAL: mid-file corruption — %d bad region(s), %d "
                "intact record(s) stranded after it, %d byte(s) dropped "
                "(replay keeps the intact prefix; `repro verify-store` "
                "shows the damage)",
                name, scan.corrupt_regions, scan.stranded_records,
                scan.tail_bytes,
            )
        if scan.tail_bytes:
            store.io.truncate(store.wal_path(name), scan.good_offset)
        return chain

    def _adopt_chain(self, name: str, chain: ShardChain) -> List[Dict[str, object]]:
        """Take over a chain's session table and replay bookkeeping for
        one shard; returns its rows, attribute-keyed, for the caller to
        load — in one atomic load at open, or through ``reload_shard``
        (a fresh shard build that re-validates the rows)."""
        shard = self._shard(name)
        self.stats.session_records += len(chain.sessions) - len(shard.sessions)
        shard.sessions = chain.sessions
        self.stats.wal_records_replayed += len(chain.scan.ops)
        shard.wal.records_since_snapshot = len(chain.scan.ops)
        # chain values are in canonical attribute order (Tuple.values),
        # NOT declared column order: key the rows by attribute so a
        # load cannot permute them
        attr_names = shard.scheme.attributes.names
        return [dict(zip(attr_names, values)) for values in chain.rows]

    def _roll_forward(
        self, record: Dict[str, object], chains: Dict[str, ShardChain]
    ) -> Dict[str, List[Dict[str, object]]]:
        """Re-apply the last committed evolution's migration to every
        shard whose on-disk snapshot predates the manifest epoch.

        The crash window this covers is between the manifest replace
        (the commit point) and the finalize step that snapshots every
        migrated shard: the retired source directories are still on
        disk (finalize removes them only after the migrated snapshots
        are durable), so the deterministic ``migrate_relations``
        transform re-derives exactly the rows the crashed process had
        built.  ``chains`` are the current shards' chains, already
        read; only retired sources are read here.  Returns ``{scheme:
        attribute-keyed rows}`` for the rolled-forward shards only."""
        try:
            op = evolution_op_from_json(record["op"])
            old_schema = _schema_from_json(record["old_schema"])
        except (KeyError, ReproError) as exc:  # pragma: no cover - defensive
            _log.warning("unusable schema.log record (%s); skipping "
                         "roll-forward", exc)
            return {}
        sources = list(op.structural_schemes(old_schema))
        if not sources:
            return {}  # cover-only op (add-fd/drop-fd): rows unchanged
        targets = sorted(
            op.migrate_relations(old_schema, {s: [] for s in sources})
        )
        behind = [
            name
            for name in targets
            if name in chains
            and (
                chains[name].generation is None
                or chains[name].epoch < self.schema_version
            )
        ]
        if not behind:
            return {}
        capture: Dict[str, List[Dict[str, object]]] = {}
        for src in sources:
            chain = chains.get(src) or self._read_chain(src, self._store)
            attrs = old_schema[src].attributes.names
            capture[src] = [dict(zip(attrs, values)) for values in chain.rows]
        migrated = op.migrate_relations(old_schema, capture)
        self.stats.evolution_rollforwards += len(behind)
        _log.warning(
            "recovery roll-forward to epoch %d: shard(s) %s re-migrated "
            "from the retired sources (%s)",
            self.schema_version, ", ".join(behind), op.describe(),
        )
        return {name: migrated.get(name, []) for name in behind}

    def _recover(self) -> None:
        """Read every shard's chain once, then one atomic load.

        Replay is pure set arithmetic on value tuples; the single
        :meth:`_load` that follows builds the shard indexes, which
        every window reads — neither recovery nor serving ever chases.
        A shard whose newest snapshot is corrupt falls back to the next
        good generation (logged and counted — acknowledged records may
        roll back, which beats the alternative of not opening at all);
        a shard with *no* good generation but corrupt ones opens
        quarantined and void, for ``repair`` or a failover.

        On an evolved store, shards whose snapshot predates the
        manifest epoch are **rolled forward** first
        (:meth:`_roll_forward`), then snapshotted at the new epoch and
        the retired source directories removed — the finalize the
        crashed evolution never completed.
        """
        chains = {
            name: self._read_chain(name, shard.store)
            for name, shard in self._shards.items()
        }
        rolled: Dict[str, List[Dict[str, object]]] = {}
        log = self.root / SCHEMA_LOG_NAME
        if self.schema_version > 0 and log.exists():
            # the newest schema.log record is the evolution to finish
            records, _good = _schema_log_records(self.io.read_bytes(log))
            if records and int(records[-1].get("epoch", 0)) == self.schema_version:
                rolled = self._roll_forward(records[-1], chains)
        relations: Dict[str, List[Dict[str, object]]] = {}
        for name, shard in self._shards.items():
            # a crash before the snapshot rename leaves a tmp: discard it
            (shard.store.shard_dir(name) / _SNAPSHOT_TMP).unlink(missing_ok=True)
            if name in rolled:
                relations[name] = rolled[name]
                continue
            chain = chains[name]
            if chain.void:
                # every generation corrupt: open the shard quarantined
                # (the healthy shards keep serving; repair can retry
                # once the operator restores a snapshot file — or a
                # failover can rebuild from a replica's chain, which is
                # why the shard is remembered as void: its in-memory
                # rows are empty, not authoritative)
                self._set_status(
                    name,
                    SHARD_QUARANTINED,
                    f"no readable snapshot generation "
                    f"({chain.bad_generations} corrupt)",
                )
                shard.void = True
                relations[name] = []
                continue
            if chain.generation is not None:
                self.stats.snapshot_loads += 1
            relations[name] = self._adopt_chain(name, chain)
        self.stats.recoveries += 1
        if any(relations.values()):
            self._load(DatabaseState(self.schema, relations))
        # finalize an interrupted evolution: epoch-stamped snapshots for
        # the rolled-forward shards first, retired directories last (the
        # same write order the crashed evolve was following)
        for name in sorted(rolled):
            self._snapshot_locked(name)
        if self.schema_version > 0:
            stores, live = (self._store, *self._replica_stores), self._shards
            retired = {n for s in stores for n in s.retired_dirs(live)}
            for name in sorted(retired):
                self._retire(name)

    # -- availability and the crash latch ------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _ensure_open(self) -> None:
        if self._crashed:
            raise DurableUnavailableError(
                "durable service crashed; re-open the directory with a "
                "fresh service"
            )

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _set_status(self, name: str, status: str, error: str = "") -> None:
        """Move one shard to ``status`` (recording ``error``; serving
        clears it), counting quarantines, degrades and heals.  Reads
        whose plan reads a quarantined or repairing shard raise
        :class:`ShardQuarantinedError` instead of serving stale rows."""
        shard = self._shard(name)
        with self._status_lock:
            previous = shard.status
            shard.status = status
            if error:
                shard.error = error
            elif status == SHARD_SERVING:
                shard.error = ""
            self._out_of_service += (status in _UNREADABLE) - (previous in _UNREADABLE)
        if status != previous:
            if status == SHARD_QUARANTINED:
                self.stats.shards_quarantined += 1
            elif status == SHARD_DEGRADED:
                self.stats.shards_degraded += 1
            elif status == SHARD_SERVING and previous in (
                SHARD_DEGRADED, SHARD_QUARANTINED, SHARD_REPAIRING
            ):
                self.stats.shards_recovered += 1

    def shard_status(self, name: str) -> str:
        """One shard's health state (:data:`SHARD_SERVING` /
        :data:`SHARD_DEGRADED` / :data:`SHARD_QUARANTINED` /
        :data:`SHARD_REPAIRING`)."""
        return self._shard(name).status

    def primary_of(self, scheme_name: str) -> str:
        """The label of the store serving a shard (``"primary"`` until
        a failover re-points it, and on an in-memory service)."""
        store = self._shard(scheme_name).store
        return "primary" if store is None else store.label

    def health(self) -> Dict[str, object]:
        """Per-shard status and last error, the store serving each
        shard, the schema epoch, any in-flight migration, and
        replication lag; ``crashed`` as the overall status once the
        service crashed."""
        shards = {name: shard.status for name, shard in self._shards.items()}
        if self._crashed:
            status = "crashed"
        elif all(s == SHARD_SERVING for s in shards.values()):
            status = "serving"
        else:
            status = "degraded"
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
            "replication": self.replication_status(),
        }

    def _check_available(self, names: Iterable[str]) -> None:
        if not self._out_of_service:
            return
        for name in names:
            status = self._shards[name].status
            if status in _UNREADABLE:
                raise ShardQuarantinedError(name, status)

    def _shard_fault(self, name: str, exc: OSError) -> ShardQuarantinedError:
        """Record a persistent I/O failure on one shard: ENOSPC
        degrades to read-only (recovery probes may heal it), anything
        else quarantines (``repair`` or a failover heals it).  Returns
        the typed error for the caller to raise — the rest of the
        service keeps serving."""
        if getattr(exc, "errno", None) == _errno.ENOSPC:
            status = SHARD_DEGRADED
        else:
            status = SHARD_QUARANTINED
        reason = f"{type(exc).__name__}: {exc}"
        self._set_status(name, status, reason)
        _log.warning("shard %s %s after persistent I/O failure: %s",
                     name, status, reason)
        return ShardQuarantinedError(name, status, reason)

    def _check_writable(self, name: str) -> _SchemeShard:
        """Gate one shard's write path on its health and return its
        record.  A degraded (read-only) shard gets a recovery probe
        first — if the disk took the backlog, the shard returns to
        serving and the write proceeds."""
        shard = self._shard(name)
        if shard.status == SHARD_SERVING:
            return shard
        if shard.status == SHARD_DEGRADED and self.probe(name):
            return shard
        raise ShardQuarantinedError(name, shard.status, shard.error)

    def probe(self, name: str) -> bool:
        """Recovery probe for a degraded shard: try to flush its
        restaged WAL backlog (with the usual retry budget).  Success
        returns the shard to serving; failure leaves it degraded (or
        quarantines it, if the error stopped being ENOSPC)."""
        shard = self._shard(name)
        with shard.lock:
            if shard.status != SHARD_DEGRADED:
                return shard.status == SHARD_SERVING
            try:
                self._commit_wal(shard)
            except ShardQuarantinedError:
                return False
            self._set_status(name, SHARD_SERVING)
            _log.info("shard %s recovered by probe (backlog flushed)", name)
            return True

    # -- staging and group commit ------------------------------------------------

    def _stage(self, fresh: Sequence[PyTuple[_SchemeShard, bytes]]) -> None:
        """Buffer encoded records for their shards' next commits (the
        caller holds the shard locks: per-shard WAL order is apply order)."""
        with self._stage_lock:
            for shard, record in fresh:
                shard.wal.stage(record)
            self.stats.wal_records_appended += len(fresh)

    def _commit_wal(self, shard: _SchemeShard) -> PyTuple[int, int]:
        """Drain, write, and fsync one WAL as a single critical
        section under its I/O lock; returns ``(bytes, records)``.

        The drain happens *inside* the lock, so the invariant every
        committer relies on holds: whoever acquires the lock and finds
        the buffer empty knows the previous holder already fsynced —
        an empty buffer under the lock means "durable", never
        "drained but still in flight".

        An :class:`OSError` from the disk is retried with bounded
        exponential backoff, each attempt first cutting the file back
        to its pre-attempt length (a half-written blob must not stack
        under its own retry).  A persistent failure restages the blob,
        degrades or quarantines the shard (:meth:`_shard_fault`), and
        raises :class:`~repro.exceptions.ShardQuarantinedError` — it
        never latches the whole service."""
        name, wal = shard.name, shard.wal
        with wal.io_lock:
            with self._stage_lock:
                blob, count = wal.take_pending()
            if not blob:
                return 0, 0
            self._fault("commit.begin")
            attempt = 0
            while True:
                start = wal.size()
                try:
                    wal.write(blob, self.fault_hook)
                    self._fault("commit.pre-fsync")
                    wal.fsync()
                    break
                except OSError as exc:
                    wal.rollback_to(start)
                    if attempt >= self.IO_RETRIES:
                        # back to the front of the buffer: a probe,
                        # repair, or the shard's next commit sees it
                        # (nothing acknowledged is ever dropped from
                        # memory while the shard is sick)
                        with self._stage_lock:
                            wal.restage_front(blob, count)
                        raise self._shard_fault(name, exc) from exc
                    self.stats.io_retries += 1
                    # jittered exponential backoff: shards that failed
                    # together must not retry in lockstep against the
                    # same recovering disk
                    time.sleep(
                        self.IO_BACKOFF
                        * (2 ** attempt)
                        * (1.0 + self.IO_JITTER * self._rng.random())
                    )
                    attempt += 1
            if attempt:
                # the disk answered again: a degraded shard that just
                # flushed its backlog through here is healthy
                _log.info("shard %s WAL commit succeeded after %d retr%s",
                          name, attempt, "y" if attempt == 1 else "ies")
            self.stats.wal_fsyncs += 1
            # ship while still holding the WAL's I/O lock: frames reach
            # every replica in exactly WAL order, and before the commit
            # returns — acked ⟹ durable-on-quorum
            if shard.targets:
                self._fault("ship.begin")
                replication.ship(self, shard, blob, start, count)
            self._fault("commit.post-fsync")
        return len(blob), count

    def commit(self) -> None:
        """:meth:`commit_shards` over every shard."""
        self.commit_shards(tuple(self._shards))

    @_fails_over
    def commit_shards(self, names: Iterable[str]) -> None:
        """The one commit path: drain, write, and fsync the named
        shards' staged records in the *calling* thread.  When it
        returns, every record staged on these shards before the call
        is durable (written by this call, or by whichever concurrent
        committer beat it to the WAL's I/O lock).  A sick shard's
        error is raised after the other shards committed; a name an
        evolution retired is skipped (the new snapshot holds its data).
        Without a store nothing is ever staged: it returns at once.

        This is the independence argument applied to the log itself:
        Theorem 3 says no cross-shard invariant constrains the
        interleaving, so shards need no global commit order and no
        shared committer — workers of the front end commit the shards
        they own concurrently, overlapping their fsyncs."""
        self._ensure_open()
        if self._store is None:
            return
        written = records = 0
        failure: Optional[ShardQuarantinedError] = None
        try:
            for name in sorted(set(names)):
                shard = self._shards.get(name)
                if shard is None:
                    continue
                try:
                    wrote, count = self._commit_wal(shard)
                except ShardQuarantinedError as exc:
                    failure = failure if failure is not None else exc
                    continue
                written += wrote
                records += count
        except BaseException:
            self._crashed = True
            raise
        if records:
            self.stats.wal_commits += 1
            self.stats.wal_bytes_written += written
        if failure is not None:
            raise failure

    # -- snapshots ---------------------------------------------------------------

    @_fails_over
    def snapshot(self, name: Optional[str] = None) -> None:
        """Write a snapshot of one shard (or all) and truncate its WAL.

        Takes the shard lock, commits the shard's still-staged records
        first (so the snapshot never reflects an operation the WAL
        lacks — the suffix-loss invariant recovery relies on), then
        writes tmp → fsync → rename → directory fsync → truncate.
        """
        self._ensure_open()
        self._require_store("snapshot")
        names = [name] if name is not None else sorted(self._shards)
        for shard_name in names:
            with self.shard_lock(shard_name):
                self._check_writable(shard_name)
                # this shard's staged records must hit the WAL before
                # the snapshot reflects them (the suffix-loss
                # invariant); other shards' backlogs are their own
                # problem — per-shard commit keeps the failure domains
                # separate
                self.commit_shards([shard_name])
                try:
                    self._snapshot_locked(shard_name)
                except OSError as exc:
                    raise self._shard_fault(shard_name, exc) from exc
                except BaseException:
                    self._crashed = True
                    raise

    def _snapshot_locked(self, name: str) -> None:
        """Snapshot one shard and cut its WAL.  The caller holds the
        shard lock with nothing staged, so no commit can write to this
        WAL before the cut, which the WAL's I/O lock orders after any
        in-flight commit; other shards are not involved."""
        shard = self._shard(name)
        rows = [list(t.values) for t in shard.rows()]
        self._fault("snapshot.begin")
        payload = _snapshot_payload(
            name,
            shard.scheme.attributes.names,
            rows,
            self.schema_version,
            sessions=_sessions_to_snapshot(shard.sessions)
            if shard.sessions
            else None,
        )
        shard.store.write_snapshot(
            name, payload, self.SNAPSHOT_GENERATIONS, self._fault
        )
        self._fault("snapshot.installed")
        with shard.wal.io_lock:  # no commit may write between snapshot and cut
            shard.wal.truncate()
            # replicas must see the same install+truncate, or their
            # chains diverge at the next shipped frame (base offset
            # restarts at zero); still under the WAL's I/O lock so
            # no frame can interleave between truncate and ship
            if shard.targets:
                replication.ship_snapshot(self, shard, payload)
        with self._stage_lock:  # snapshots of two shards may finish together
            self.stats.snapshots_written += 1
        self._fault("snapshot.done")

    def maybe_snapshot(self, names: Optional[Iterable[str]] = None) -> None:
        """Snapshot every shard (or just ``names``) whose WAL has
        outgrown ``snapshot_interval`` records since its last
        snapshot.  Non-serving shards are skipped — their snapshot
        happens when a probe or ``repair`` heals them — and so are
        names an evolution retired (the new epoch's snapshot holds
        their rows, exactly as :meth:`commit_shards` skips them)."""
        if self._store is None:
            return
        shards = self._shards
        for name in (shards if names is None else set(names)):
            shard = shards.get(name)
            if (
                shard is not None
                and shard.status == SHARD_SERVING
                and shard.wal.records_since_snapshot >= self.snapshot_interval
            ):
                self.snapshot(name)

    # -- mutations ---------------------------------------------------------------

    def _tap_op(self, scheme_name: str, op: str, t: Tuple) -> None:
        """Record one applied op in the migration journal while the
        scheme's replacement shard is mid-build (writes keep landing on
        the still-serving old shard; the journal replays them onto the
        fresh one before the epoch swap)."""
        tap = self._migration_tap
        if tap is not None and scheme_name in tap:
            tap[scheme_name].append((op, t))

    def _session_hit(
        self, shard: _SchemeShard, kind: str, session: PyTuple[str, int], t
    ):
        """Exactly-once gate, under the shard lock (``t`` is the
        submission's coerced tuple).  Returns the
        original ``(outcome, staged)`` for a duplicate of the
        session's recorded operation, ``None`` for a fresh sequence —
        and ``None`` for a same-seq retry whose original changed
        nothing (re-executing a no-op is the identity, and after a
        failover it may be the retry that actually applies the write).
        Raises :class:`~repro.exceptions.SessionSequenceError` when the
        sequence is behind the high-water mark."""
        sid, seq = str(session[0]), int(session[1])
        entry = shard.sessions.get(sid)
        if entry is None or seq > entry["seq"]:
            return None
        recorded_kind = entry.get("kind")
        if seq < entry["seq"] or recorded_kind not in (None, kind):
            raise SessionSequenceError(sid, seq, entry["seq"])
        result = entry.get("result")
        if result is None and recorded_kind is None:
            return None
        self.stats.session_dedup_hits += 1
        if result is None:
            # recovered from disk: the stamp proves the original applied
            # and is durable, but the live outcome object died with the
            # old process — reconstruct the only answer it can have had
            result = True if kind == "-" else InsertOutcome(
                accepted=True, scheme=shard.name, tuple=t, method=self.method,
            )
        return result, entry["staged"]

    @_fails_over
    def apply_insert(
        self, scheme_name: str, row, session: Optional[PyTuple[str, int]] = None
    ) -> PyTuple[InsertOutcome, bool]:
        """Validate, apply, and stage one insert; returns the outcome
        plus whether a record was staged (``False`` for rejected or
        duplicate inserts, and without a store); durable once
        :meth:`commit_shards` of the shard returns.  The front end
        batches these; direct callers want :meth:`insert`.  A session
        duplicate returns the original's ``staged``, so it is acked
        after a commit too.

        ``session`` is an exactly-once stamp ``(session_id, seq)``: a
        duplicate of the session's recorded operation returns the
        original outcome without re-applying, the stamp rides in the
        WAL frame (and snapshot), so the guarantee survives restarts
        and failovers."""
        return self._apply("+", scheme_name, row, session)

    @_fails_over
    def apply_delete(
        self, scheme_name: str, row, session: Optional[PyTuple[str, int]] = None
    ) -> PyTuple[bool, bool]:
        """Apply and stage one delete; ``staged`` is ``False`` when the
        tuple was absent (nothing to log).  ``session`` as in
        :meth:`apply_insert`."""
        return self._apply("-", scheme_name, row, session)

    def _apply(
        self, kind: str, scheme_name: str, row, session: Optional[PyTuple[str, int]]
    ):
        """One mutation (``kind`` is the frame op) under the shard
        lock: coerce, the exactly-once gate, encode, apply, stage if
        it changed something, and record the session's outcome."""
        self._ensure_open()
        shard = self._check_writable(scheme_name)
        logged = self._store is not None
        if session is not None and not logged:
            raise ReproError(
                "exactly-once sessions require a durable service (the "
                "stamp lives in the WAL frame)"
            )
        with shard.lock:
            t = shard.checker.coerce_tuple(scheme_name, row)
            meta = None
            if session is not None:
                hit = self._session_hit(shard, kind, session, t)
                if hit is not None:
                    return hit
                meta = {"sid": str(session[0]), "seq": int(session[1])}
            # encode from the coerced tuple *before* applying, so a
            # non-serializable value rejects cleanly instead of
            # leaving an applied-but-unloggable operation behind
            record = _encode_record(kind, t.values, meta) if logged else None
            if kind == "+":
                result = shard.insert(t)
                effectful = result.accepted and not result.reason
                if effectful:
                    t = result.tuple
            else:
                result = effectful = shard.delete(t)
            if effectful:
                self._tap_op(scheme_name, kind, t)
                if logged:
                    self._stage([(shard, record)])
            if session is not None:
                # an operation that changed nothing (rejected or
                # duplicate insert, absent delete) records no kind: it
                # needs no durable stamp, re-executing it is harmless
                sid = str(session[0])
                table = shard.sessions
                if sid not in table:
                    self.stats.session_records += 1
                table[sid] = {
                    "seq": int(session[1]),
                    "kind": kind if effectful else None,
                    "result": result,
                    "staged": effectful,
                }
        return result, effectful and logged

    def _finish(self, staged: bool, names: Iterable[str]) -> None:
        """With ``auto_commit``, commit and maybe snapshot the touched
        shards — only those: another shard's backlog cannot fail it."""
        if staged and self.auto_commit:
            self.commit_shards(names)
            self.maybe_snapshot(names)

    def insert(
        self, scheme_name: str, row: RowLike, session: Optional[PyTuple[str, int]] = None
    ) -> InsertOutcome:
        """Validate and apply one insertion against its own shard — no
        other shard is touched; durable on return with ``auto_commit``."""
        outcome, staged = self.apply_insert(scheme_name, row, session=session)
        self._finish(staged, [scheme_name])
        return outcome

    def delete(
        self, scheme_name: str, row: RowLike, session: Optional[PyTuple[str, int]] = None
    ) -> bool:
        """Delete a tuple from its shard; returns whether it existed.
        Durable on return with ``auto_commit``."""
        existed, staged = self.apply_delete(scheme_name, row, session=session)
        self._finish(staged, [scheme_name])
        return existed

    @_fails_over
    def apply_insert_many(
        self, ops: Iterable[PyTuple[str, RowLike]]
    ) -> PyTuple[List[InsertOutcome], bool]:
        """Batch insert, one O(1) local check per tuple: each touched
        shard gated and locked once for the whole batch, every accepted
        row staged — the amortization the front end's group-commit loop
        rides.  Returns the outcomes plus whether anything was staged."""
        self._ensure_open()
        ops = [(name, row) for name, row in ops]
        # gate every touched shard before anything applies: a batch
        # containing a quarantined shard fails whole and clean, so the
        # front end can retry it minus the sick shard's operations
        shards = {
            name: self._check_writable(name)
            for name in sorted({name for name, _ in ops})
        }
        outcomes: List[InsertOutcome] = []
        fresh: List[PyTuple[_SchemeShard, bytes]] = []
        with ExitStack() as stack:
            for shard in shards.values():
                stack.enter_context(shard.lock)
            coerced = [
                (shards[name], shards[name].checker.coerce_tuple(name, row))
                for name, row in ops
            ]
            if self._store is None:
                records = [None] * len(coerced)
            else:
                records = [_encode_record("+", t.values) for _, t in coerced]
            for (shard, t), record in zip(coerced, records):
                outcome = shard.insert(t)
                outcomes.append(outcome)
                if outcome.accepted and not outcome.reason:
                    self._tap_op(shard.name, "+", outcome.tuple)
                    if record is not None:
                        fresh.append((shard, record))
            if fresh:
                self._stage(fresh)
        return outcomes, bool(fresh)

    def insert_many(
        self, ops: Iterable[PyTuple[str, RowLike]]
    ) -> List[InsertOutcome]:
        """Batch insert; durable on return with ``auto_commit``."""
        ops = list(ops)
        outcomes, staged = self.apply_insert_many(ops)
        self._finish(staged, {name for name, _ in ops})
        return outcomes

    # -- loading ---------------------------------------------------------------

    def load(self, state: DatabaseState) -> None:
        """Load a base state shard by shard (atomic across shards: a
        rejected relation unwinds the already-committed ones, so a
        violating state changes nothing).  With a store the load then
        snapshots every shard — bulk ingests skip the WAL entirely (one
        snapshot is cheaper and the load is already atomic on disk once
        every shard's snapshot is installed)."""
        self._ensure_open()
        shards = self._shards
        with ExitStack() as stack:
            for name in sorted(shards):
                stack.enter_context(shards[name].lock)
            self._load(state)
            if self._store is None:
                return
            # records staged before the load must reach the WALs
            # before the snapshots reflect them (the suffix rule)
            self.commit()
            try:
                for name in sorted(shards):
                    self._snapshot_locked(name)
            except BaseException:
                self._crashed = True
                raise

    def _load(self, state: DatabaseState) -> None:
        """The in-memory half of :meth:`load` (and recovery's one
        atomic load)."""
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
        repair and failover path.  A fresh checker is built (the rows
        re-validated through it), so whatever in-memory state the old
        shard accumulated before it was quarantined cannot leak into
        the repaired one; the shard record itself — lock, status,
        store — stays."""
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
    ) -> EvolutionResult:
        """Apply one schema-evolution op with zero downtime.

        Protocol (every mutation before the final swap lands only on
        *fresh* objects, so any failure before it — rejection, injected
        crash, an I/O error at the commit point — leaves the old epoch
        fully serving):

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
        4. **Commit** — with a store, the commit point: the
           ``schema.log`` record (epoch, the serialized op, the old and
           new catalogs) is appended and fsynced, then the manifest is
           replaced atomically (:meth:`_log_evolution`).  Then the
           in-memory swap: the epoch bumps, the plan, result and query
           caches reset, and the retired epoch's changed relations are
           frozen for version-pinned reads.
        5. **Finalize** — with a store: a log attached to every added
           scheme's shard, epoch-stamped snapshots for every rebuilt
           shard, retired shards closed and their directories removed
           last (:meth:`_finalize_evolution`).  A crash anywhere after
           the manifest replace is recovered by :meth:`_recover`'s
           roll-forward.

        The crash points ``evolve.begin`` / ``evolve.mid-rebuild`` /
        ``evolve.journal-replay`` fire through ``fault_hook`` on every
        service, the commit point's and the finalize's only with a
        store.  Raises :class:`~repro.exceptions.EvolutionRejectedError`
        (old epoch fully intact, still serving) on a refused evolution,
        and :class:`~repro.exceptions.ShardQuarantinedError` when any
        shard is not serving — migration needs every failure domain
        healthy.  Any other failure latches ``crashed`` on a service
        with a store (the global catalog is suspect; a reopen recovers
        whichever epoch the manifest names) and leaves an in-memory
        service serving the old epoch.
        """
        self._ensure_open()
        before = dict(self._shards)
        for name, shard in sorted(before.items()):
            if shard.status != SHARD_SERVING:
                raise ShardQuarantinedError(name, shard.status, shard.error)
        # flush the staged backlog first: the migration captures shard
        # state, and everything acknowledged must be on disk before the
        # old epoch's WALs stop being authoritative
        self.commit()
        try:
            self._fault("evolve.begin")
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
                    # re-validation through a fresh checker is what turns
                    # an add-fd into a decidable request: the data either
                    # satisfies the grown cover or refutes the evolution
                    self._migrating[name] = "rebuilding"
                    try:
                        fresh[name] = self._build_shard(
                            new_schema[name], new_report, rows
                        )
                    except InconsistentStateError as exc:
                        self.stats.evolutions_rejected += 1
                        raise EvolutionRejectedError(
                            f"evolution rejected ({op.describe()}): stored "
                            f"rows of {name!r} violate the evolved "
                            f"constraints ({exc}); old epoch left intact",
                            reason=name,
                        ) from exc
                    self._migrating[name] = "built"

                for name in rebuild:
                    self._migrating[name] = "rebuilding"
                    self._fault("evolve.mid-rebuild")
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

                self._fault("evolve.journal-replay")

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
                    # on a source cannot be replayed row by row, and a
                    # join (merge) of one tapped row against the other
                    # members' *empty* relations would drop the row
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

                if self._store is not None:
                    self._log_evolution(op, new_schema, new_fds)

                # -- the swap: from here on the new epoch is authoritative
                old_schema, old_fds = self.schema, self.fds
                # freeze before the swap rewrites same-named records: a
                # relation whose name or attributes changed is read
                # through the old version from these rows; one that
                # survives as it was keeps serving the old version from
                # the live shard
                frozen: Dict[str, List[Tuple]] = {
                    name: list(shard.rows())
                    for name, shard in self._shards.items()
                    if name not in new_schema
                    or new_schema[name].attributes != shard.scheme.attributes
                }
                self._epochs[self.schema_version] = _EpochView(
                    old_schema, old_fds, frozen
                )
                while len(self._epochs) > self.EPOCH_RETENTION:
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
                        shard.status in _UNREADABLE
                        for shard in new_shards.values()
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
                result = EvolutionResult(
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
            if self._store is not None:
                self._finalize_evolution(result, before)
            return result
        except EvolutionRejectedError:
            raise  # clean refusal: nothing written, old epoch serving
        except BaseException:
            if self._store is not None:
                self._crashed = True
            raise

    def _log_evolution(
        self, op: EvolutionOp, new_schema: DatabaseSchema, new_fds: FDSet
    ) -> None:
        """An evolution's commit point: the ``schema.log`` record,
        appended and fsynced, then the manifest replace.  Before the
        replace the store recovers the old epoch, after it the new."""
        epoch = self.schema_version + 1
        payload = {
            "epoch": epoch,
            "op": op.to_json(),
            "old_schema": _schema_to_json(self.schema),
            "schema": _schema_to_json(new_schema),
            "fds": _fds_to_json(new_fds),
        }
        record = _encode_record(
            "schema", [json.dumps(payload, separators=(",", ":"))]
        )
        self._fault("evolve.pre-wal")
        _write_fsync(self.io, self.root / SCHEMA_LOG_NAME, record, "ab")
        self.stats.evolutions_logged += 1
        self._fault("evolve.post-wal")
        _write_manifest(self.io, self.root, new_schema, new_fds, epoch)
        self._fault("evolve.manifest")

    def _finalize_evolution(
        self, result: EvolutionResult, before: Dict[str, _SchemeShard]
    ) -> None:
        """Post-commit disk reshaping, in crash-safe order: attach new
        shards to the store, snapshot every rebuilt shard at the new
        epoch (truncating its old-epoch WAL), and only then close and
        remove the shards of ``before`` the evolution retired — so
        recovery always still has the sources it would need to
        re-derive an unsnapshotted migrated shard."""
        shards = self._shards
        for name in sorted(set(shards) - set(before)):
            _attach(shards[name], self._store)
        for name in result.rebuilt:
            with shards[name].lock:
                # flush any mid-migration staged records (old-epoch
                # values; the epoch-stamped snapshot below supersedes
                # them and truncates the WAL)
                self.commit_shards([name])
                self._snapshot_locked(name)
        for name in sorted(set(before) - set(shards)):
            shard = before[name]
            self._drop_staged(shard.wal)
            shard.wal.close()
            self._retire(
                name, shard.store, *(t.store for t in shard.targets.values())
            )
        self._fault("evolve.done")

    def _retire(self, name: str, *stores: ShardStore) -> None:
        """Forget a scheme an evolution retired, on every store: remove
        ``shards/<name>/`` from the primary root, every replica root
        and ``stores`` (the retired record's own store and its targets'
        — a promoted replica's and a rejoined one's after a failover).
        The evolution's finalize and the recovery sweep both end here."""
        stores += (self._store, *self._replica_stores)
        for store in {store.root: store for store in stores}.values():
            shutil.rmtree(store.shard_dir(name), ignore_errors=True)

    def _drop_staged(self, wal: _ShardWal) -> int:
        """Discard a shard's staged, not yet written records; returns
        how many.  Callers either persist the in-memory state another
        way (a snapshot) or drop an unacknowledged suffix on purpose."""
        with self._stage_lock:
            return wal.take_pending()[1]

    def migration_status(self) -> Dict[str, object]:
        """Live migration state for ``health()``/the CLI ``schema`` op:
        the current epoch, the retained pinnable epochs, and any shard
        currently mid-migration with its phase."""
        return {
            "epoch": self.schema_version,
            "retained_epochs": sorted(self._epochs),
            "migrating": dict(self._migrating),
        }

    # -- self-healing ------------------------------------------------------------

    def repair(self, name: str) -> Dict[str, object]:
        """Heal one shard online: roll back to the newest good
        snapshot generation, replay the WAL's intact tail, bulk-load
        the result into a fresh shard (re-validated through its
        checker; no chase), write a clean snapshot, and
        return the shard to serving.  Every other shard keeps serving
        throughout — repair holds only this shard's lock.

        Returns a report dict (generation used, rows recovered, WAL
        records replayed, corruption counters).  Raises
        :class:`~repro.exceptions.ShardQuarantinedError` if the disk
        still refuses the clean snapshot (the shard stays quarantined)
        and :class:`ReproError` if no snapshot generation is readable
        but corrupt ones exist."""
        self._ensure_open()
        self._require_store("repair")
        shard = self._shard(name)
        with shard.lock:
            previous = shard.status
            self._set_status(name, SHARD_REPAIRING, shard.error)
            try:
                with shard.wal.io_lock:
                    # in-memory backlog is unacknowledged by definition
                    # (an acked record is fsynced): dropping it is the
                    # legal suffix loss
                    dropped = self._drop_staged(shard.wal)
                    chain = self._read_chain(name, shard.store)
                    if chain.void:
                        raise ReproError(
                            f"shard {name!r}: no readable snapshot "
                            f"generation ({chain.bad_generations} corrupt); "
                            f"restore one from backup, then repair again"
                        )
                    self.reload_shard(name, self._adopt_chain(name, chain))
                # a clean snapshot collapses the repaired state into
                # generation 0 and truncates the WAL — the next open
                # recovers the healed state directly
                self._snapshot_locked(name)
            except OSError as exc:
                raise self._shard_fault(name, exc) from exc
            except BaseException:
                # validation failure (corrupt rows violating the cover)
                # or anything unexpected: stay quarantined, report why
                self._set_status(
                    name, SHARD_QUARANTINED, shard.error or "repair failed"
                )
                raise
            self._set_status(name, SHARD_SERVING)
            shard.void = False
        report = {
            "shard": name,
            "previous_status": previous,
            "generation": chain.generation,
            "rows": len(chain.rows),
            "wal_records_replayed": len(chain.scan.ops),
            "staged_records_dropped": dropped,
            "wal_corrupt_regions": chain.scan.corrupt_regions,
            "wal_stranded_records": chain.scan.stranded_records,
        }
        _log.info("shard %s repaired: %s", name, report)
        return report

    # -- replication: failover and rejoin ----------------------------------------

    def failover(self, name: str, label: Optional[str] = None) -> Dict[str, object]:
        """Promote a replica to primary for one shard (the
        most-caught-up one, or the ``label``-named one) by swapping
        the shard's store for the replica's.

        Live path (the shard quarantined while this process holds its
        state): the in-memory shard — which contains every acked write
        and possibly a few unacked ones, both legal — is collapsed
        into a clean snapshot on the promoted store.  Void path (the
        shard opened with no readable chain): the promoted chain is
        read and bulk-loaded through :meth:`reload_shard`
        (re-validated, not chased), session table included.  Either
        way the shard ends SERVING on the replica's files, the planner
        re-routes, the replication epoch bumps, and the demoted store
        is remembered for :meth:`rejoin`.

        Raises :class:`~repro.exceptions.NoPromotableReplicaError`
        (shard state untouched) when no replica has a readable chain."""
        self._ensure_open()
        self._require_store("failover")
        shard = self._shard(name)
        with shard.lock:
            was_void = shard.void
            with shard.wal.io_lock:
                self._fault("failover.begin")
                promoted = replication.promote(shard, label)
                # the staged backlog is applied in memory; the post-swap
                # snapshot below persists it (void shards have no
                # backlog — they refused every write)
                self._drop_staged(shard.wal)
                shard.wal.close()
                demoted = shard.store
                _attach(shard, promoted.store)
                shard.demoted = demoted
            replayed = 0
            if was_void:
                chain = self._read_chain(name, shard.store)
                self.reload_shard(name, self._adopt_chain(name, chain))
                replayed = len(chain.scan.ops)
                shard.void = False
            with shard.replica_lock:
                shard.replication_epoch += 1
                epoch = shard.replication_epoch
            self._set_status(name, SHARD_SERVING)
            try:
                # clean snapshot on the promoted store: captures the
                # authoritative state, truncates the new WAL, and ships
                # the install to the remaining replicas (re-alignment)
                self._snapshot_locked(name)
            except OSError as exc:
                raise self._shard_fault(name, exc) from exc
            self.stats.failovers += 1
            report = {
                "shard": name,
                "promoted": promoted.store.label,
                "demoted": demoted.label,
                "replication_epoch": epoch,
                "rebuilt_from_chain": was_void,
                "wal_records_replayed": replayed,
            }
            _log.warning(
                "shard %s failed over to replica %s (replication epoch %d, "
                "%s rebuild, %d WAL records replayed)",
                name, promoted.store.label, epoch,
                "void-chain" if was_void else "live", replayed,
            )
            self._fault("failover.promoted")
            return report

    def rejoin(
        self,
        name: str,
        store: Optional[Union[str, os.PathLike, ShardStore]] = None,
    ) -> Dict[str, object]:
        """Bring a store (default: the one demoted by the last
        failover of this shard) back as a replica, after anti-entropy
        catch-up — ship the missing WAL suffix when its chain is a
        prefix of the primary's, snapshot-copy past anything else."""
        self._ensure_open()
        self._require_store("rejoin")
        shard = self._shard(name)
        if store is None:
            store = shard.demoted
            if store is None:
                raise ReplicationError(
                    f"shard {name!r}: no demoted store recorded; pass the "
                    f"store to rejoin"
                )
        elif not isinstance(store, ShardStore):
            store = ShardStore(store)
        with shard.lock:
            # the chain must be complete before it is copied
            self.commit_shards([name])
            with shard.wal.io_lock:
                self._fault("rejoin.begin")
                before = store.chain_summary(name)
                replication.add_target(self, shard, store)
                shard.demoted = None
                self.stats.rejoins += 1
                self._fault("rejoin.done")
        _log.info("shard %s: store %s rejoined as replica", name, store.label)
        return {
            "shard": name,
            "label": store.label,
            "chain_before": before,
            "chain_after": store.chain_summary(name),
        }

    def replication_status(self) -> Dict[str, object]:
        """Per-shard replication surface: epoch, per-replica lag
        (frames behind, seconds since last ack), acked offsets, and
        the current primary label."""
        shards = self._shards
        return {
            "shards": {
                name: {
                    "epoch": shards[name].replication_epoch,
                    "replicas": replication.lag(shards[name]),
                    "primary": self.primary_of(name),
                }
                for name in sorted(shards)
            },
        }

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

    @_fails_over
    def window(
        self, attrset: AttrsLike, version: Optional[int] = None
    ) -> RelationInstance:
        """The derivable ``X``-facts of the current state, from the
        target's compiled plan over the shards.

        ``version`` pins the answer to a retained schema epoch: the
        window is derived one-shot from that epoch's state under its
        own FDs (correct, not cached — pinned reads are the transition
        escape hatch, not the fast path)."""
        self._ensure_open()
        return self._window(attrset, version)

    def _window(
        self, attrset: AttrsLike, version: Optional[int] = None
    ) -> RelationInstance:
        """:meth:`window` without the crash latch and failover retry —
        the server's read path."""
        if version is not None and version != self.schema_version:
            view = self._epoch_view(version)
            target = _within(AttributeSet(attrset), view.schema.universe)
            self._check_available(self._shards)
            self.stats.window_queries += 1
            return one_shot_window(self._epoch_state(version), view.fds, target)
        plan = self._plan(AttributeSet(attrset))
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
        self._ensure_open()
        self._check_available(self._shards)
        return representative_instance(self.state(), self.fds)

    # -- query-engine hooks ------------------------------------------------------

    def _query_route(self, target: AttributeSet) -> PyTuple[str, PyTuple[str, ...]]:
        """Every scan runs its target's plan, over the plan's shards."""
        plan = self._plan(target)  # also the universe check
        return ("shards", plan.shards)

    def _query_stamps(self, names: Sequence[str]) -> PyTuple[int, ...]:
        # asked on every window and query run, cached or not: only the
        # plan's shards block it, and no cache reads around them
        self._check_available(names)
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

    @_fails_over
    def query(self, query, version: Optional[int] = None) -> RelationInstance:
        """Evaluate a relational query (see
        :meth:`~repro.weak.service.WindowQueryAPI.query`); ``version``
        pins evaluation to a retained epoch's state and FDs via the
        naive from-scratch evaluator (pinned reads bypass every cache
        by construction; a reopened store retains no retired epochs)."""
        self._ensure_open()
        if version is not None and version != self.schema_version:
            view = self._epoch_view(version)
            self._check_available(self._shards)
            from repro.query.naive import evaluate_naive

            return evaluate_naive(query, self._epoch_state(version), view.fds)
        return self._query_engine().run(query)

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

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Commit anything staged and close the WAL files (idempotent;
        a crashed instance just closes its files, and a sick shard's
        backlog stays on its disk problem — best-effort flush)."""
        if not self._crashed:
            try:
                self.commit()
            except ShardQuarantinedError:
                pass  # healthy shards committed; the sick one cannot
        for shard in self._shards.values():
            if shard.wal is not None:  # None: a crash before finalize attached it
                shard.wal.close()

    def __enter__(self) -> "ShardedWeakInstanceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        staged = sum(
            s.wal.pending_records for s in self._shards.values() if s.wal
        )
        root = "" if self.root is None else f"root={str(self.root)!r}, "
        return (
            f"ShardedWeakInstanceService<{root}shards={len(self._shards)}, "
            f"tuples={self.total_tuples()}, staged={staged}, "
            f"crashed={self._crashed}>"
        )

