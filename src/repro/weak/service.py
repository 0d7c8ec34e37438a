"""A live weak-instance query service.

The one-shot functions of :mod:`repro.weak.representative` rebuild and
re-chase the whole tableau ``I(p)`` on every query — fine for a single
question, hopeless for serving traffic.  :class:`WeakInstanceService`
keeps the chased representative instance **live** across updates:

* **Inserts** are validated by a wrapped
  :class:`~repro.core.maintenance.MaintenanceChecker` and then chased
  *incrementally*: the new row is appended to the already-chased
  tableau and only the dirty-row worklist it seeds is driven to
  fixpoint (:class:`~repro.chase.engine.IncrementalFDChaser`), reusing
  the engine's per-FD partitions and the tableau's occurrence/value
  indexes.  Cost per insert is the cascade the tuple actually
  triggers, not a rescan of the state.
* **Deletes** are always safe for satisfaction (any weak instance for
  ``p`` is one for ``p`` minus a tuple) but can retract derived facts.
  The paper gives no locality result for them, so the first service
  simply invalidated the live tableau and paid a from-scratch rebuild
  on the next query.  Deletes are now *provenance-scoped*: the
  tableau's merge log knows exactly which unions the deleted row's
  merges fed (Gupta–Mumick-style delete-and-rederive), so the service
  retracts the one row, dissolves only the tainted symbol classes, and
  re-runs the incremental fixpoint over just the affected rows
  (:meth:`~repro.chase.engine.IncrementalFDChaser.rechase_scoped`).
  Cost per delete is the footprint the row actually had.  When the
  affected set exceeds :attr:`LiveTableau.DELETE_REBUILD_FRACTION` of
  the live rows — an adversarial delete whose footprint approaches the
  tableau — the service falls back to invalidate-and-rebuild, so the
  worst case never exceeds one rebuild.
* **Queries** (:meth:`window`, :meth:`derivable`) read the live
  tableau's total projection through a per-``AttributeSet`` cache.
  Every entry belongs to the current tableau version: any version bump
  prunes the superseded entries (no dead-version accumulation over
  long streams), and the cache is additionally LRU-bounded by
  :attr:`LiveTableau.WINDOW_CACHE_LIMIT`.  A scoped delete invalidates
  **selectively**: a cached window survives when none of its
  attributes touch a dissolved class's columns and the retracted row's
  projection is either non-total on it or still produced by a
  surviving row.

* **Cold loads and rebuilds** go through the column-major **bulk
  chase kernel** (:mod:`repro.chase.bulk`): the tableau is built by
  per-column batch ingest and chased set-at-a-time, with the merge log
  batch-recorded, then handed to the incremental driver with its
  per-FD partitions pre-seeded.  Every from-scratch path — first
  query, delete fallback, compaction, a poisoned tableau's recovery —
  pays the kernel price instead of the row-at-a-time seeding pass
  (``stats.bulk_loads`` counts them; tableaux below the kernel's size
  cutoff take the row-at-a-time path).

All of that tableau lifecycle — build, incremental drive, scoped
retraction, window caching — lives in :class:`LiveTableau`, the seam
between "the backing state changed" and "serve a window".
:class:`WeakInstanceService` wires one global :class:`LiveTableau` to
one global :class:`~repro.core.maintenance.MaintenanceChecker`.  The
independence-aware sharded service
(:class:`repro.weak.sharded.ShardedWeakInstanceService`) needs no
tableau at all: a validated relation of an independent schema is its
own chase fixpoint, and its cross-shard windows are lookup joins over
the shards' FD indexes (:mod:`repro.weak.plans`).

Validation semantics follow :func:`repro.weak.representative.window`:
consistency means *a weak instance for the FDs exists*, decided by the
FD-only chase — which coincides with full ``F ∪ {*D}`` satisfaction
whenever every FD is embedded in the schema (Lemma 4), the paper's
setting.  For non-embedded FDs this is deliberately weaker than
``MaintenanceChecker(method="chase").check_insert`` (which also chases
the schema's join dependency); use the checker directly when you need
the full ``Σ`` maintenance test.  With ``method="local"`` (independent
schemas, Theorem 3) insert validation is O(1) per embedded-cover FD;
with ``method="chase"`` the incremental chase itself is the validator
— a contradiction rejects the tuple and rebuilds the tableau from the
(uncommitted) state.  Both :meth:`load` paths (empty and incremental)
validate through the same FD-only chase, so acceptance never depends
on how the data was batched.

Batch entry points (:meth:`insert_many`, :meth:`window_many`,
:meth:`derivable_many`) amortize fixpoint drives and cache lookups
over a whole stream of operations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
    Union,
)

from repro.chase.bulk import BulkFDChaser, bulk_eligible, ingest_state
from repro.chase.engine import ChaseResult, IncrementalFDChaser
from repro.chase.tableau import ChaseTableau, RowOrigin
from repro.core.independence import IndependenceReport
from repro.core.maintenance import InsertOutcome, MaintenanceChecker, Method
from repro.data.relations import RelationInstance, RowLike
from repro.data.states import DatabaseState
from repro.data.values import is_null
from repro.deps.fd import FD
from repro.deps.fdset import FDSet, as_fdset
from repro.exceptions import InconsistentStateError
from repro.schema.attributes import AttributeSet, AttrsLike
from repro.schema.database import DatabaseSchema


@dataclass
class ServiceStats:
    """Operation counters (benchmark, test, and ops introspection —
    the CLI ``serve`` REPL prints these via its ``stats`` command)."""

    inserts_accepted: int = 0
    inserts_rejected: int = 0
    duplicate_inserts: int = 0
    deletes: int = 0
    rebuilds: int = 0
    incremental_chases: int = 0
    window_queries: int = 0
    window_cache_hits: int = 0
    #: deletes served by retract + scoped rechase (no rebuild)
    scoped_rechases: int = 0
    #: deletes whose affected set exceeded the fallback fraction (the
    #: live tableau was invalidated; the next query rebuilds)
    delete_fallbacks: int = 0
    #: affected-set sizes across scoped deletes (observability for the
    #: fallback heuristic)
    affected_rows_total: int = 0
    affected_rows_max: int = 0
    #: window-cache entries kept alive across scoped deletes by the
    #: selective invalidation check
    windows_retained: int = 0
    #: entries evicted by the LRU bound (not by invalidation)
    window_cache_evictions: int = 0
    #: invalidations triggered because retracted row slots outgrew the
    #: live rows (the next query rebuilds a compact tableau)
    compaction_rebuilds: int = 0
    #: from-scratch tableau builds that went through the column-major
    #: bulk chase kernel — explicit ``load()`` calls as well as the
    #: lazy rebuilds counted by ``rebuilds``, so the two counters are
    #: not subsets of each other
    bulk_loads: int = 0
    #: relational queries served (:meth:`WindowQueryAPI.query`)
    queries: int = 0
    #: queries whose shape (or its template) already had a plan
    query_plan_cache_hits: int = 0
    #: queries answered from the version-stamped result cache
    query_result_cache_hits: int = 0
    #: leaf scans whose equality filters were pushed into the
    #: tableau's per-attribute value indexes
    query_pushed_scans: int = 0

    @property
    def window_cache_misses(self) -> int:
        return self.window_queries - self.window_cache_hits

    def as_dict(self) -> Dict[str, int]:
        """Every counter, keyed by field name.

        Enumerates the *dataclass fields* (not a hand-maintained list,
        and not ``__dict__``, which would silently drop slotted or
        class-level-overridden fields), so counters added by this class
        or any subclass — the sharded service's stats extend these —
        can never be missing from the CLI ``stats`` op.
        """
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["window_cache_misses"] = self.window_cache_misses
        return d


class LiveTableau:
    """One live chased tableau with window caching and scoped deletes.

    The reusable seam between a validated backing state and served
    windows: owns the :class:`~repro.chase.tableau.ChaseTableau`, its
    persistent :class:`~repro.chase.engine.IncrementalFDChaser`, the
    ``(scheme, tuple) → row`` locators deletes use, and the
    version-disciplined window cache.  The backing state itself is
    abstracted as ``state_source`` (called on rebuild);
    :class:`WeakInstanceService` holds one over its global checker
    state.

    ``stats`` is shared with the owner: this class bumps the
    tableau-lifecycle counters (``rebuilds``, ``incremental_chases``,
    cache and scoped-delete counters); the owner bumps the operation
    counters (``inserts_*``, ``deletes``, ``window_queries``).
    """

    #: ceiling on cached windows (LRU eviction beyond it)
    WINDOW_CACHE_LIMIT = 1024
    #: rebuild-fallback threshold: a delete whose affected set exceeds
    #: this fraction of the live rows invalidates instead of rechasing,
    #: bounding the worst case at one rebuild
    DELETE_REBUILD_FRACTION = 0.5

    def __init__(
        self,
        schema: DatabaseSchema,
        fds: Iterable[FD],
        state_source: Callable[[], DatabaseState],
        stats: ServiceStats,
    ):
        self.schema = schema
        self._fd_tuple: PyTuple[FD, ...] = tuple(fds)
        self._state_source = state_source
        self.stats = stats
        self._tableau: Optional[ChaseTableau] = None
        self._chaser: Optional[IncrementalFDChaser] = None
        #: the last adopted driver's *static* per-FD column metadata,
        #: kept across invalidations so rebuilds skip re-deriving it —
        #: deliberately not the driver itself, which would pin the
        #: whole superseded tableau in memory
        self._chaser_template = None
        #: the last version stamp any superseded tableau handed out —
        #: the floor carried into the next rebuild's tableau so stamps
        #: stay monotone across rebuilds (a version-keyed cache can
        #: never mistake a fresh tableau's entry for a stale one)
        self._last_version: Optional[PyTuple[int, int]] = None
        self._stale = True
        # (scheme name, tuple) -> live tableau row, so a delete can
        # name the row to retract; rebuilt with the tableau
        self._row_of: Dict[PyTuple[str, object], int] = {}
        # windows of the *current* tableau version only (the single
        # version invariant is what keeps the cache bounded over long
        # streams); insertion order doubles as LRU order
        self._window_cache: Dict[AttributeSet, RelationInstance] = {}
        self._cache_version: Optional[PyTuple[int, int]] = None

    @property
    def live(self) -> bool:
        """Is the chased tableau current (no rebuild pending)?"""
        return not self._stale

    def row_count(self) -> Optional[int]:
        """Live rows of the current tableau (None while stale)."""
        return self._tableau.live_row_count() if self._tableau is not None else None

    # -- building ---------------------------------------------------------------

    def tableau_from(
        self, state: DatabaseState
    ) -> PyTuple[ChaseTableau, Dict[PyTuple[str, object], int]]:
        """``I(p)`` plus the (scheme, tuple) → row locator deletes use.

        Duplicate tuples within a relation collapse to one row (set
        semantics, like the checker), so retracting the locator's row
        really removes the tuple's entire contribution.  The rows go
        through the tableau's column-major ingest (the layout the bulk
        kernel wants), and the fresh tableau's version stamps are
        floored above every stamp a superseded predecessor handed out.
        """
        tableau = ChaseTableau(self.schema.universe)
        floor = (
            self._tableau.version if self._tableau is not None
            else self._last_version
        )
        if floor is not None:
            tableau.offset_version_base(floor)
        return ingest_state(self.schema, state, tableau)

    def chase_fresh(
        self, tableau: ChaseTableau
    ) -> PyTuple[Optional[IncrementalFDChaser], ChaseResult]:
        """Chase a freshly built candidate tableau to fixpoint and wrap
        it in an incremental driver (merge log on, so every delete can
        be scoped).

        Eligible tableaux run the column-major bulk kernel and the
        driver is seeded from the kernel's partitions — the cold-load
        fast path; everything else seeds the driver the row-at-a-time
        way.  On a contradiction the driver is withheld (``None``): the
        candidate is poisoned and must be discarded.
        """
        kernel = None
        if bulk_eligible(tableau):
            kernel = BulkFDChaser(tableau, self._fd_tuple, log_merges=True)
            result = kernel.run()
            if not result.consistent:
                return None, result
            self.stats.bulk_loads += 1
        chaser = IncrementalFDChaser(
            tableau,
            self._fd_tuple,
            _template=self._chaser_template,
            _handoff=kernel,
        )
        if kernel is None:
            result = chaser.run()
            if not result.consistent:
                return None, result
        return chaser, result

    def adopt(
        self,
        tableau: ChaseTableau,
        chaser: IncrementalFDChaser,
        row_of: Dict[PyTuple[str, object], int],
    ) -> None:
        self._tableau = tableau
        self._chaser = chaser
        self._chaser_template = chaser.metadata()
        self._row_of = row_of
        self._stale = False
        # never reuse windows across tableaux: a rebuilt tableau can
        # coincidentally reproduce an old version stamp
        self._window_cache.clear()
        self._cache_version = tableau.version

    def invalidate(self) -> None:
        if self._tableau is not None:
            # remember the dying tableau's last stamp so the successor
            # can floor its own stamps above it
            self._last_version = self._tableau.version
        self._tableau = None
        self._chaser = None
        self._row_of = {}
        self._stale = True
        self._window_cache.clear()
        self._cache_version = None

    def ensure(self) -> ChaseTableau:
        """The chased live tableau, rebuilding from ``state_source``
        when an update invalidated it (through the bulk kernel when
        eligible — see :meth:`chase_fresh`)."""
        if not self._stale and self._tableau is not None:
            return self._tableau
        tableau, row_of = self.tableau_from(self._state_source())
        chaser, result = self.chase_fresh(tableau)
        if chaser is None:
            # unreachable through the public APIs (the owners validate
            # every mutation), but the poisoned-state contract matters:
            # a state source that hands back a violating state must
            # surface the contradiction, not serve wrong windows
            # (pinned by a checker-stub test)
            raise InconsistentStateError(
                f"checker state stopped satisfying the FDs: {result.contradiction}"
            )
        self.adopt(tableau, chaser, row_of)
        self.stats.rebuilds += 1
        return tableau

    # -- incremental updates ----------------------------------------------------

    def append(self, scheme_name: str, t) -> None:
        """Add a validated tuple's row to the live tableau (no fixpoint
        drive — callers batch that via :meth:`drive`).  A no-op while
        stale: the next :meth:`ensure` rebuild picks the tuple up from
        the state source."""
        if self._stale or self._tableau is None:
            return
        scheme = self.schema[scheme_name]
        self._row_of[(scheme_name, t)] = self._tableau.add_padded(
            scheme.attributes, t, RowOrigin("state", scheme.name)
        )

    def run_chaser(self) -> ChaseResult:
        """Drive the fixpoint over rows appended since the last drive.

        On a contradiction the poisoned tableau is invalidated before
        the result is returned.
        """
        assert self._chaser is not None
        self.stats.incremental_chases += 1
        result = self._chaser.run()
        if not result.consistent:
            self.invalidate()
        return result

    def drive(self) -> bool:
        """Boolean convenience around :meth:`run_chaser`."""
        return self.run_chaser().consistent

    def retract(self, scheme_name: str, t) -> None:
        """Maintain the live tableau after the backing state deleted a
        tuple: retract the row and re-derive only its merge footprint,
        falling back to invalidate-and-rebuild when the affected set
        exceeds :attr:`DELETE_REBUILD_FRACTION` of the live rows or when
        the merge log cannot scope the tableau.
        """
        if self._stale or self._tableau is None:
            return  # nothing live to maintain; next query rebuilds
        idx = self._row_of.get((scheme_name, t))
        if idx is None:  # locator out of sync: be safe, rebuild
            self.invalidate()
            return
        tableau = self._tableau
        impact = tableau.retraction_impact(idx)
        threshold = self.DELETE_REBUILD_FRACTION * tableau.live_row_count()
        if not impact.complete or len(impact.affected_rows) > threshold:
            self.stats.delete_fallbacks += 1
            self.invalidate()
            return
        pre_version = tableau.version
        del self._row_of[(scheme_name, t)]
        assert self._chaser is not None
        result = self._chaser.rechase_scoped(idx, impact)
        if not result.consistent:  # pragma: no cover - deletes are safe
            # a deletion cannot make a satisfying state unsatisfying;
            # reaching this means the tableau was corrupted — recover
            # by rebuilding from the (already committed) backing state
            self.invalidate()
            return
        self.stats.scoped_rechases += 1
        n_affected = len(impact.affected_rows)
        self.stats.affected_rows_total += n_affected
        self.stats.affected_rows_max = max(self.stats.affected_rows_max, n_affected)
        # retracted slots are never reused, so a long delete stream
        # accretes dead rows (and linear scans like total_projection
        # pay for them); once they outgrow the live rows, trade one
        # lazy rebuild for a compact tableau
        live = tableau.live_row_count()
        if len(tableau) - live > max(64, live):
            self.stats.compaction_rebuilds += 1
            self.invalidate()
            return
        self._revalidate_windows(impact, pre_version)

    def _revalidate_windows(self, impact, pre_version: PyTuple[int, int]) -> None:
        """Selective window-cache invalidation after a scoped delete.

        A cached window survives iff (a) it was current immediately
        before the delete, (b) none of its attributes lie in a column a
        dissolved class touched (so every surviving row's projection is
        unchanged), and (c) the retracted row contributes nothing the
        survivors don't — it was not total on the window, or some live
        row resolves to the same constants.  Survivors are re-stamped
        to the post-delete version; everything else is dropped and
        recomputed lazily.
        """
        tableau = self._tableau
        assert tableau is not None
        survivors: Dict[AttributeSet, RelationInstance] = {}
        if self._cache_version == pre_version:
            changed_attrs = {tableau.columns[c] for c in impact.changed_cols}
            symbols = tableau.symbols
            find = symbols.find
            values = impact.resolved_values
            for target, facts in self._window_cache.items():
                if any(a in changed_attrs for a in target):
                    continue
                cols = [tableau.column_index(a) for a in target]
                vals = [values[c] for c in cols]
                if all(not is_null(v) for v in vals):
                    # the retracted row answered this window: keep the
                    # entry only if a surviving row still produces the
                    # same fact (per-column interning makes that one
                    # occurrence-bucket scan)
                    syms = [
                        symbols.interned_symbol(v, a)
                        for a, v in zip(target, vals)
                    ]
                    if any(s is None for s in syms):  # pragma: no cover
                        continue  # defensive: value untraceable, drop
                    roots = [find(s) for s in syms]
                    if tableau.live_row_matching(cols, roots) is None:
                        continue
                survivors[target] = facts
        self.stats.windows_retained += len(survivors)
        self._window_cache = survivors
        self._cache_version = tableau.version

    # -- queries ----------------------------------------------------------------

    def window(
        self, target: AttributeSet, count_hits: bool = True
    ) -> RelationInstance:
        """The ``target``-total projection of the live tableau, through
        the version-disciplined LRU cache (see the class docstring).
        Owners bump ``stats.window_queries``; this bumps the hit and
        eviction counters.  ``count_hits=False`` suppresses the hit
        counter for reads that are not a served window query (an
        unfiltered query scan) — counting them would let hits exceed
        window queries.
        """
        tableau = self.ensure()
        version = tableau.version
        cache = self._window_cache
        if version != self._cache_version:
            # an update superseded every cached window: prune wholesale
            cache.clear()
            self._cache_version = version
        else:
            facts = cache.get(target)
            if facts is not None:
                if count_hits:
                    self.stats.window_cache_hits += 1
                # refresh LRU position (dict preserves insertion order)
                del cache[target]
                cache[target] = facts
                return facts
        facts = tableau.total_projection(target)
        cache[target] = facts
        if len(cache) > self.WINDOW_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
            self.stats.window_cache_evictions += 1
        return facts

    def filtered_window(
        self, target: AttributeSet, bindings: Sequence[PyTuple[str, object]]
    ) -> RelationInstance:
        """The window with equality filters pushed into the tableau's
        per-attribute value indexes
        (:meth:`~repro.chase.tableau.ChaseTableau.total_projection_matching`).
        An unfiltered call falls through to the cached :meth:`window`;
        filtered results are not cached here — the query engine's
        version-stamped result cache owns that layer.
        """
        if not bindings:
            return self.window(target, count_hits=False)
        tableau = self.ensure()
        return tableau.total_projection_matching(target, bindings)


class WindowQueryAPI:
    """Derived query entry points shared by every service exposing
    :meth:`window` — one implementation, so the global and sharded
    services can never diverge on fact coercion or comparison."""

    def derivable(self, fact: Mapping[str, object]) -> bool:
        """Is the fact (attribute → value mapping) derivable from the
        current state under the dependencies?"""
        target = AttributeSet(list(fact))
        facts = self.window(target)
        wanted = tuple(fact[a] for a in target)
        return any(tuple(t.value(a) for a in target) == wanted for t in facts)

    def window_many(
        self, attrsets: Iterable[AttrsLike]
    ) -> List[RelationInstance]:
        """Answer several window queries against one live service."""
        return [self.window(a) for a in attrsets]

    def derivable_many(
        self, facts: Sequence[Mapping[str, object]]
    ) -> List[bool]:
        """Batch :meth:`derivable`; facts over the same attributes
        share one window lookup (and the cache)."""
        return [self.derivable(fact) for fact in facts]

    def health(self) -> Dict[str, object]:
        """Uniform health surface: in-memory services are always
        serving with no per-shard state; the sharded service and the
        server override this with real per-shard status, error detail,
        and queue depths."""
        return {"status": "serving", "shards": {}, "errors": {}}

    # -- relational queries -----------------------------------------------------
    #
    # One QueryEngine per service, created on first use (services stay
    # importable without the query package loaded).  The engine drives
    # the service back through three duck-typed hooks — _query_route /
    # _query_stamps / _query_scan — which each concrete service
    # implements over its own tableau topology.

    def _query_engine(self):
        engine = getattr(self, "_engine", None)
        if engine is None:
            from repro.query.engine import QueryEngine

            engine = QueryEngine(self)
            self._engine = engine
        return engine

    def query(self, query) -> RelationInstance:
        """Evaluate a relational query (compact text form or a
        :class:`repro.query.ast.Query`) against the current state:
        scans are ``[X]``-windows, the operators above them run as
        planned by :mod:`repro.query.planner`, and results are served
        from the version-stamped cache when no participating shard
        changed.  Returns a :class:`RelationInstance`."""
        return self._query_engine().run(query)

    def explain(self, query):
        """Like :meth:`query`, but returns the
        :class:`repro.query.engine.QueryExplain` — routing per leaf
        (the shards each scan's plan reads), pushed filters, participants' version
        stamps, and cache traffic — with the result attached."""
        return self._query_engine().explain(query)


class WeakInstanceService(WindowQueryAPI):
    """Keeps the chased representative instance live across updates.

    See the module docstring for the design.  Construct over a schema
    and FDs, :meth:`load` a base state, then interleave
    :meth:`insert`/:meth:`delete` with :meth:`window`/:meth:`derivable`
    freely — every answer is identical to re-deriving from scratch
    with :func:`repro.weak.representative.window` on the current
    state (the randomized equivalence suite pins this).
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        fds: Union[FDSet, Iterable[FD], str],
        method: Method = "chase",
        report: Optional[IndependenceReport] = None,
    ):
        self.schema = schema
        self.fds = as_fdset(fds)
        self.checker = MaintenanceChecker(schema, self.fds, method=method, report=report)
        self.stats = ServiceStats()
        #: monotone state-change stamp: the single "participant" the
        #: query engine's result cache keys on for this unsharded
        #: service (the sharded service keys on per-shard versions)
        self._mutations = 0
        self._live = LiveTableau(
            schema, self.fds, lambda: self.checker.state(), self.stats
        )

    @classmethod
    def from_state(
        cls,
        state: DatabaseState,
        fds: Union[FDSet, Iterable[FD], str],
        method: Method = "chase",
        report: Optional[IndependenceReport] = None,
    ) -> "WeakInstanceService":
        """Build a service over the state's schema and load the state."""
        service = cls(state.schema, fds, method=method, report=report)
        service.load(state)
        return service

    @property
    def method(self) -> Method:
        return self.checker.method

    # -- loading ---------------------------------------------------------------

    def load(self, state: DatabaseState) -> None:
        """Load a base state (atomic: a violating state changes nothing).

        With ``method="chase"`` the validating chase *is* the next live
        tableau, so loading costs exactly one chase of the combined
        state — on an empty service, the same as one from-scratch
        query.  The chase itself runs on the column-major bulk kernel
        whenever eligible, with the merge log batch-recorded so scoped
        deletes work on the loaded state.  Loading onto a non-empty
        service validates the *combination* of the stored and incoming
        tuples, through the same FD-only chase as every other entry
        point.
        """
        if self.method != "chase":
            self.checker.load(state)
            self._live.invalidate()
            self._mutations += 1
            return
        if self.checker.total_tuples() == 0:
            tableau, row_of = self._live.tableau_from(state)
        else:
            tableau, row_of = self._live.tableau_from(self.checker.state())
            for scheme, relation in state:
                for t in relation:
                    key = (scheme.name, t)
                    if key in row_of or self.checker.contains(scheme.name, t):
                        continue
                    row_of[key] = tableau.add_padded(
                        scheme.attributes, t, RowOrigin("state", scheme.name)
                    )
        chaser, result = self._live.chase_fresh(tableau)
        if chaser is None:
            # the candidate tableau is discarded; the previous live
            # tableau (if any) and the checker are untouched
            raise InconsistentStateError(
                f"state is not satisfying: {result.contradiction}"
            )
        self.checker.load(state, assume_valid=True)
        self._live.adopt(tableau, chaser, row_of)
        self._mutations += 1

    # -- updates -----------------------------------------------------------------

    def insert(self, scheme_name: str, row: RowLike) -> InsertOutcome:
        """Validate, commit, and incrementally chase one insertion."""
        if self.method != "local":
            return self._insert_via_chase(scheme_name, row)
        outcome = self._insert_no_chase(scheme_name, row)
        if outcome.accepted and not outcome.reason and self._live.live:
            if not self._live.drive():  # pragma: no cover - defensive
                # The checker accepted, so the FD-chase cannot contradict
                # (a weak instance exists); recover anyway by undoing the
                # commit and reporting the rejection.
                self.checker.delete(scheme_name, outcome.tuple)
                self.stats.inserts_accepted -= 1
                self.stats.inserts_rejected += 1
                return InsertOutcome(
                    accepted=False,
                    scheme=scheme_name,
                    tuple=outcome.tuple,
                    method=self.method,
                    reason="incremental chase contradicted the checker's verdict",
                )
        return outcome

    def _insert_no_chase(self, scheme_name: str, row: RowLike) -> InsertOutcome:
        """Local-method path: validate via the checker's O(1) index
        check, commit, and append the accepted row to the live tableau
        *without* driving the fixpoint (the caller batches that)."""
        assert self.method == "local"
        outcome = self.checker.insert(scheme_name, row)
        if not outcome.accepted:
            self.stats.inserts_rejected += 1
            return outcome
        self.stats.inserts_accepted += 1
        if outcome.reason:  # duplicate: nothing new to chase
            self.stats.duplicate_inserts += 1
            return outcome
        self._mutations += 1
        self._live.append(scheme_name, outcome.tuple)
        return outcome

    def _insert_via_chase(self, scheme_name: str, row: RowLike) -> InsertOutcome:
        """Chase-method insert: the incremental chase is the validator,
        so acceptance costs the triggered cascade instead of the full
        re-chase ``MaintenanceChecker.check_insert`` would run."""
        t = self.checker.coerce_tuple(scheme_name, row)
        if self.checker.contains(scheme_name, t):
            self.stats.inserts_accepted += 1
            self.stats.duplicate_inserts += 1
            return InsertOutcome(
                accepted=True,
                scheme=scheme_name,
                tuple=t,
                method="chase",
                reason="duplicate tuple: state unchanged (set semantics)",
            )
        self._live.ensure()
        self._live.append(scheme_name, t)
        result = self._live.run_chaser()
        if not result.consistent:
            # the appended row poisoned the tableau; run_chaser dropped
            # it (the tuple was never committed to the checker) and the
            # next query rebuilds lazily
            self.stats.inserts_rejected += 1
            return InsertOutcome(
                accepted=False,
                scheme=scheme_name,
                tuple=t,
                method="chase",
                violated_fd=result.contradiction.fd if result.contradiction else None,
                reason=str(result.contradiction),
            )
        self.checker.apply_insert(scheme_name, t)
        self.stats.inserts_accepted += 1
        self._mutations += 1
        return InsertOutcome(accepted=True, scheme=scheme_name, tuple=t, method="chase")

    def delete(self, scheme_name: str, row: RowLike) -> bool:
        """Delete a tuple; returns whether it existed.

        Satisfaction survives any deletion, but derived facts may not.
        Instead of invalidating the live tableau wholesale, the delete
        retracts the tuple's row and re-derives only its merge
        footprint (:meth:`LiveTableau.retract`), keeping the tableau —
        and every untouched window-cache entry — live.  Falls back to
        invalidate-and-rebuild when the affected set exceeds
        :attr:`LiveTableau.DELETE_REBUILD_FRACTION` of the live rows or
        when the merge log cannot scope the tableau.
        """
        t = self.checker.coerce_tuple(scheme_name, row)
        existed = self.checker.delete(scheme_name, t)
        if not existed:
            return False
        self.stats.deletes += 1
        self._mutations += 1
        self._live.retract(scheme_name, t)
        return True

    # -- queries ------------------------------------------------------------------

    def window(self, attrset: AttrsLike) -> RelationInstance:
        """The derivable ``X``-facts of the *current* state: the
        ``X``-total projection of the live representative instance.

        Cached per ``AttributeSet``.  The whole cache belongs to one
        tableau version: the first query after any update prunes every
        superseded entry (scoped deletes re-stamp the entries they
        prove untouched, so those survive), which keeps a long
        insert+query stream from accumulating dead versions.  An LRU
        bound (:attr:`LiveTableau.WINDOW_CACHE_LIMIT`) caps the
        footprint even at a single version.
        """
        target = AttributeSet(attrset)
        self.stats.window_queries += 1
        return self._live.window(target)

    def representative(self) -> ChaseTableau:
        """The live chased tableau ``I(p)`` (read-only: mutate it and
        the service's answers are undefined)."""
        return self._live.ensure()

    # -- query-engine hooks ------------------------------------------------------

    def _query_route(self, target: AttributeSet) -> PyTuple[str, PyTuple[str, ...]]:
        """Every scan reads the one global tableau; the pseudo-shard
        name ``"*"`` is the single result-cache participant."""
        return ("tableau", ("*",))

    def _query_stamps(self, names: Sequence[str]) -> PyTuple[int, ...]:
        return tuple(self._mutations for _ in names)

    def _query_scan(
        self,
        target: AttributeSet,
        bindings: Sequence[PyTuple[str, object]],
        route: str,
        shards: Sequence[str],
    ) -> RelationInstance:
        return self._live.filtered_window(target, bindings)

    # -- batch APIs ----------------------------------------------------------------

    def insert_many(
        self, ops: Iterable[PyTuple[str, RowLike]]
    ) -> List[InsertOutcome]:
        """Insert a batch, driving one fixpoint over all appended rows.

        With ``method="local"`` every row is validated by the O(1)
        index check before any chase work, so the whole batch needs a
        single worklist drive; with ``method="chase"`` validation *is*
        the chase and rows are processed one by one.
        """
        outcomes: List[InsertOutcome] = []
        if self.method != "local":
            for scheme_name, row in ops:
                outcomes.append(self.insert(scheme_name, row))
            return outcomes
        appended = False
        for scheme_name, row in ops:
            outcome = self._insert_no_chase(scheme_name, row)
            outcomes.append(outcome)
            if outcome.accepted and not outcome.reason and self._live.live:
                appended = True
        if appended:
            self._live.drive()
        return outcomes

    # -- introspection ----------------------------------------------------------------

    def state(self) -> DatabaseState:
        """Immutable snapshot of the current state."""
        return self.checker.state()

    def total_tuples(self) -> int:
        return self.checker.total_tuples()

    @property
    def live(self) -> bool:
        """Is the chased tableau current (no rebuild pending)?"""
        return self._live.live

    def __repr__(self) -> str:
        rows = self._live.row_count()
        return (
            f"WeakInstanceService<method={self.method}, "
            f"tuples={self.total_tuples()}, "
            f"tableau_rows={'∅' if rows is None else rows}, "
            f"live={self.live}>"
        )
