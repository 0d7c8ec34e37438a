"""A multi-client front end over the sharded weak-instance services.

:class:`WeakInstanceServer` turns the single-threaded
:class:`~repro.weak.sharded.ShardedWeakInstanceService` (or its
durable wrapper, :class:`~repro.weak.durable.DurableShardedService`)
into a concurrent request processor, leaning on the same Theorem 3
independence the sharding does:

* **Per-shard write serialization by routing.**  Writes are enqueued
  onto one of ``workers`` queues chosen by the target scheme (stable
  hash of the shard name), so every operation on a scheme is applied
  by exactly one worker thread, in submission order — per-shard
  histories are serialized *by construction*, no lock convoy.  Cross-
  shard ordering is intentionally unspecified: Theorem 3 makes the
  shards independent, so there is no cross-scheme invariant an
  interleaving could break.
* **Group-commit batching, committed per shard.**  A worker drains its
  queue opportunistically (up to ``batch_limit`` requests), applies
  contiguous insert runs through :meth:`~repro.weak.durable.
  DurableShardedService.apply_insert_many` — one fixpoint drive per
  touched shard — and then commits the batch's shards itself via
  :meth:`~repro.weak.durable.DurableShardedService.commit_shards`:
  one WAL write + ``fsync`` per dirty shard, in the worker's own
  thread.  Because each worker owns its shards outright (the routing)
  and independent shards need no global commit order (Theorem 3),
  workers' fsyncs run concurrently — and ``fsync`` releases the GIL,
  so that overlap, not CPU parallelism, is where multi-worker
  throughput comes from under CPython.
* **Snapshot-consistent reads keyed by version stamps.**  Reads run in
  the *calling* thread (they never queue behind writes) under the
  planner's locking discipline: a scheme-local window takes only that
  shard's lock; a composer window takes the global read lock plus
  every shard lock in sorted order.  Each shard's monotone ``version``
  stamp is the read token — a window computed under the locks is a
  function of one version vector, never a torn mix
  (:meth:`shard_versions` exposes the stamps for the stress tests).
  A client that saw its insert acknowledged is guaranteed to see it in
  a later read: the write is applied before the future resolves.

The server works over a plain in-memory sharded service (writes are
applied under shard locks, no tickets) or a durable one (writes are
staged to the WAL and acknowledged only after their group commit
fsyncs).  If the durable layer crashes — for real or through a fault
hook — every in-flight and subsequent write fails with
:class:`~repro.weak.durable.DurableUnavailableError`; reads keep
serving the in-memory state, mirroring a read-only degraded mode.

Two further failure-domain behaviors ride on the same routing:

* **Backpressure.**  ``max_queue`` bounds each worker's queue; when a
  worker falls behind (slow disk, quarantined shard backlog) a submit
  that cannot enqueue within ``submit_timeout`` seconds is *shed* with
  :class:`~repro.exceptions.ServiceOverloadedError` — the request was
  never applied, so the client can safely retry — instead of growing
  an unbounded queue until memory does the shedding.  ``max_queue=0``
  (the default) keeps the old unbounded ``SimpleQueue`` behavior.
* **Quarantine isolation.**  A durable shard that was quarantined (or
  degraded read-only) fails only its *own* requests with
  :class:`~repro.exceptions.ShardQuarantinedError`: the batched insert
  path gates every touched shard before applying anything, so the
  worker strips the sick shard's ops from the run and retries the
  rest, and group commit acknowledges per shard — one sick shard
  never blocks another shard's writes, reads, or durability.
  :meth:`health` surfaces the per-shard status plus queue depths.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.maintenance import InsertOutcome
from repro.data.relations import RelationInstance, RowLike
from repro.exceptions import (
    ReproError,
    SchemaError,
    ServiceOverloadedError,
    ShardQuarantinedError,
)
from repro.schema.attributes import AttributeSet, AttrsLike
from repro.weak.durable import DurableShardedService
from repro.weak.service import WindowQueryAPI
from repro.weak.sharded import ShardedWeakInstanceService


class ServerStoppedError(ReproError):
    """The request was submitted to a server that is not running."""


@dataclass
class _WriteRequest:
    kind: str  # "insert" | "delete"
    scheme: str
    row: RowLike
    #: exactly-once stamp ``(session_id, seq)`` or ``None``; stamped
    #: writes apply singly so the dedup check runs under the shard lock
    session: Optional[tuple] = None
    future: Future = field(default_factory=Future)
    result: object = None  # applied outcome, held until durable


_STOP = object()


class WeakInstanceServer(WindowQueryAPI):
    """Thread-pool request front end (module docstring has the design).

    Use as a context manager or call :meth:`start`/:meth:`stop`.
    Client-facing entry points are thread-safe: :meth:`insert` /
    :meth:`delete` (synchronous: durable-acknowledged before they
    return, when the service is durable), their ``submit_*`` variants
    (return a :class:`~concurrent.futures.Future`), and the
    :class:`~repro.weak.service.WindowQueryAPI` read surface.
    """

    #: max requests one worker drains into a single apply+commit batch
    DEFAULT_BATCH_LIMIT = 64

    def __init__(
        self,
        service: Union[DurableShardedService, ShardedWeakInstanceService],
        workers: int = 4,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        max_queue: int = 0,
        submit_timeout: Optional[float] = None,
    ):
        """``max_queue`` > 0 bounds each worker's queue at that many
        pending requests; a submit against a full queue waits up to
        ``submit_timeout`` seconds (``None``: fail immediately) and is
        then shed with :class:`ServiceOverloadedError`.  ``max_queue=0``
        keeps the queues unbounded and ``submit_timeout`` unused."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0: unbounded)")
        self.service = service
        self.workers = workers
        self.batch_limit = batch_limit
        self.max_queue = max_queue
        self.submit_timeout = submit_timeout
        self.durable = isinstance(service, DurableShardedService)
        self._inner: ShardedWeakInstanceService = (
            service.inner if self.durable else service
        )
        self._bind_shards()
        self._plan_lock = threading.Lock()
        self._global_lock = threading.RLock()
        # unbounded: SimpleQueue (C-implemented, so the per-request
        # enqueue/drain cost stays small next to the fsync the batch
        # will pay); bounded: queue.Queue, whose maxsize is what makes
        # load shedding possible at all
        self._queues: List[Union[queue.SimpleQueue, queue.Queue]] = [
            queue.Queue(maxsize=max_queue) if max_queue else queue.SimpleQueue()
            for _ in range(workers)
        ]
        self._threads: List[threading.Thread] = []
        self._running = False
        # monotonically increasing counters; written by one thread or
        # guarded by the GIL — approximate under contention, like the
        # service's own op counters
        self.requests_accepted = 0
        self.requests_shed = 0
        self.write_batches = 0
        self.batched_writes = 0
        self.reads_served = 0

    def _bind_shards(self) -> None:
        """Route and lock by the service's current shard set (at start,
        and after an evolution changed it)."""
        names = sorted(self._inner.shard_names())
        #: scheme -> worker index; the stable routing that serializes
        #: each shard's writes through exactly one worker
        self._route = {name: i % self.workers for i, name in enumerate(names)}
        #: each shard's own lock (the same object for its whole life
        #: under one name, so a rebuild never swaps it under a holder)
        self._locks = {name: self._inner.shard_lock(name) for name in names}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "WeakInstanceServer":
        if self._running:
            return self
        self._running = True
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,), name=f"weak-worker-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Drain every queue and stop the workers.  Pending writes are
        completed (and made durable) first."""
        if not self._running:
            return
        self._running = False
        for q in self._queues:
            q.put(_STOP)
        for t in self._threads:
            t.join()
        self._threads = []
        if self.durable and not self.service.crashed:
            try:
                self.service.commit()  # belt and braces: nothing staged
            except ShardQuarantinedError:
                # a sick shard's backlog stays staged on its disk
                # problem; shutdown must not fail because of it
                pass

    def __enter__(self) -> "WeakInstanceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client write surface ----------------------------------------------------

    def _submit(
        self,
        kind: str,
        scheme_name: str,
        row: RowLike,
        session: Optional[tuple] = None,
    ) -> Future:
        if not self._running:
            raise ServerStoppedError("server is not running")
        worker = self._route.get(scheme_name)
        if worker is None:
            raise SchemaError(f"no relation named {scheme_name!r} in this schema")
        if session is not None:
            if not self.durable:
                raise ReproError(
                    "exactly-once sessions require a durable service (the "
                    "stamp lives in the WAL frame)"
                )
            sid, seq = session
            session = (str(sid), int(seq))
        request = _WriteRequest(kind, scheme_name, row, session)
        if self.max_queue:
            try:
                if self.submit_timeout is None:
                    self._queues[worker].put_nowait(request)
                else:
                    self._queues[worker].put(
                        request, timeout=self.submit_timeout
                    )
            except queue.Full:
                self.requests_shed += 1
                raise ServiceOverloadedError(
                    f"worker {worker} queue full "
                    f"({self.max_queue} pending writes); request for "
                    f"{scheme_name!r} shed, not applied — safe to retry"
                ) from None
        else:
            self._queues[worker].put(request)
        self.requests_accepted += 1
        return request.future

    def submit_insert(
        self,
        scheme_name: str,
        row: RowLike,
        session: Optional[tuple] = None,
    ) -> Future:
        """Enqueue an insert; the future resolves to its
        :class:`~repro.core.maintenance.InsertOutcome` once applied
        (and fsynced, on a durable service).  ``session`` is an
        exactly-once idempotency stamp ``(session_id, seq)``: a
        duplicate submission of the stamped write (a retry after a
        lost ack) resolves to the original outcome instead of
        re-applying — durable services only."""
        return self._submit("insert", scheme_name, row, session)

    def submit_delete(
        self,
        scheme_name: str,
        row: RowLike,
        session: Optional[tuple] = None,
    ) -> Future:
        """Enqueue a delete; the future resolves to whether the tuple
        existed.  ``session`` as in :meth:`submit_insert`."""
        return self._submit("delete", scheme_name, row, session)

    def insert(
        self,
        scheme_name: str,
        row: RowLike,
        session: Optional[tuple] = None,
    ) -> InsertOutcome:
        return self.submit_insert(scheme_name, row, session).result()

    def delete(
        self,
        scheme_name: str,
        row: RowLike,
        session: Optional[tuple] = None,
    ) -> bool:
        return self.submit_delete(scheme_name, row, session).result()

    # -- worker machinery --------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        q = self._queues[index]
        while True:
            first = q.get()
            if first is _STOP:
                return
            batch = [first]
            stop_after = False
            while len(batch) < self.batch_limit:
                try:
                    nxt = q.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    # _STOP is enqueued only after _running flipped
                    # False, so it is this queue's last item: finish
                    # the drained batch, then exit.  (Re-putting it
                    # could deadlock against a full bounded queue.)
                    stop_after = True
                    break
                batch.append(nxt)
            self._process_batch(batch)
            if stop_after:
                return

    def _apply_insert_run(
        self, run: List[_WriteRequest], resolved: List[_WriteRequest]
    ) -> bool:
        """Apply one contiguous insert run on a durable service,
        stripping quarantined shards' ops and retrying the rest —
        ``apply_insert_many`` gates every touched shard *before*
        applying anything, so a :class:`ShardQuarantinedError` means
        the run was not applied at all and the healthy remainder can
        go again.  Returns whether anything was staged."""
        svc = self.service
        remaining = run
        while remaining:
            try:
                outcomes, ticket = svc.apply_insert_many(
                    [(r.scheme, r.row) for r in remaining]
                )
            except ShardQuarantinedError as exc:
                rest = [r for r in remaining if r.scheme != exc.shard]
                if len(rest) == len(remaining):
                    raise  # not this run's shard: relay to every future
                for r in remaining:
                    if r.scheme == exc.shard:
                        r.future.set_exception(exc)
                remaining = rest
            else:
                for r, outcome in zip(remaining, outcomes):
                    r.result = outcome
                    resolved.append(r)
                return ticket is not None
        return False

    def _process_batch(self, batch: List[_WriteRequest]) -> None:
        """Apply a drained batch in order: contiguous insert runs go
        through the batched apply (one drive per shard), deletes apply
        singly.  On a durable service the worker then commits the
        batch's shards itself (one fsync per dirty shard, overlapping
        other workers' commits) — success futures resolve only after
        that commit, so an acknowledged write is a durable write.  The
        commit acknowledges *per shard*: a shard whose commit fails
        (quarantine) fails only its own futures, and the rest of the
        batch stays durably acknowledged."""
        svc = self.service
        staged = False
        resolved: List[_WriteRequest] = []  # applied, awaiting durability
        index = 0
        n = len(batch)
        self.write_batches += 1
        self.batched_writes += n
        while index < n:
            request = batch[index]
            if request.kind == "insert" and request.session is None:
                end = index
                while (
                    end < n
                    and batch[end].kind == "insert"
                    and batch[end].session is None
                ):
                    end += 1
                run = batch[index:end]
                try:
                    if self.durable:
                        staged = self._apply_insert_run(run, resolved) or staged
                    else:
                        with ExitStack() as stack:
                            for name in sorted({r.scheme for r in run}):
                                stack.enter_context(self._locks[name])
                            outcomes = svc.insert_many(
                                [(r.scheme, r.row) for r in run]
                            )
                        for r, outcome in zip(run, outcomes):
                            r.result = outcome
                            resolved.append(r)
                except BaseException as exc:  # noqa: BLE001 - relayed to clients
                    for r in run:
                        if not r.future.done():
                            r.future.set_exception(exc)
                index = end
            else:
                # deletes and session-stamped inserts apply singly:
                # the exactly-once dedup check must run under the
                # shard lock with the stamp attached to its own frame
                try:
                    if self.durable:
                        if request.kind == "insert":
                            outcome, ticket = svc.apply_insert(
                                request.scheme,
                                request.row,
                                session=request.session,
                            )
                        else:
                            outcome, ticket = svc.apply_delete(
                                request.scheme,
                                request.row,
                                session=request.session,
                            )
                        staged = staged or ticket is not None
                    else:
                        with self._locks[request.scheme]:
                            outcome = svc.delete(request.scheme, request.row)
                    request.result = outcome
                    resolved.append(request)
                except BaseException as exc:  # noqa: BLE001
                    request.future.set_exception(exc)
                index += 1
        if self.durable and staged:
            by_shard: Dict[str, List[_WriteRequest]] = {}
            for r in resolved:
                by_shard.setdefault(r.scheme, []).append(r)
            for name in sorted(by_shard):
                try:
                    svc.commit_shards([name])
                    svc.maybe_snapshot([name])
                except BaseException as exc:  # noqa: BLE001 - this shard's
                    # records are not durable: fail its futures only (a
                    # crash latch fails the remaining shards' commits
                    # the same way on their own iterations)
                    for r in by_shard[name]:
                        r.future.set_exception(exc)
                    continue
                for r in by_shard[name]:
                    r.future.set_result(r.result)
            return
        for r in resolved:
            r.future.set_result(r.result)

    # -- read surface ------------------------------------------------------------

    def window(self, attrset: AttrsLike) -> RelationInstance:
        """A window query under the planner's locking discipline (see
        module docstring); safe against concurrent writers."""
        target = AttributeSet(attrset)
        self.reads_served += 1
        with self._plan_lock:
            plan = self._inner._plan(target)
        if plan.local:
            with ExitStack() as stack:
                for name in sorted(plan.direct):
                    stack.enter_context(self._locks[name])
                return self._inner.window(target)
        with self._global_lock:
            with ExitStack() as stack:
                for name in sorted(self._locks):
                    stack.enter_context(self._locks[name])
                return self._inner.window(target)

    def query(self, query):
        """A relational query under the same locking discipline as
        :meth:`window`, generalized to every scan leaf in the tree: if
        the planner routes all leaves to shards, only the union of
        their direct shards is locked; one composer leaf escalates to
        the global read lock plus every shard lock.  Execution (and
        the engine's caches) belong to the wrapped service."""
        return self._locked_query(query, explain=False)

    def explain(self, query):
        """The inner service's :meth:`~repro.weak.service.
        WindowQueryAPI.explain`, run under the same locks as
        :meth:`query`."""
        return self._locked_query(query, explain=True)

    def _locked_query(self, query, explain: bool):
        from repro.query.parser import parse_query

        q = parse_query(query)
        self.reads_served += 1
        targets = {s.attrs for s in q.scans()}
        with self._plan_lock:
            plans = [self._inner._plan(t) for t in targets]
        run = self.service.explain if explain else self.service.query
        if plans and all(p.local for p in plans):
            with ExitStack() as stack:
                for name in sorted({n for p in plans for n in p.direct}):
                    stack.enter_context(self._locks[name])
                return run(q)
        with self._global_lock:
            with ExitStack() as stack:
                for name in sorted(self._locks):
                    stack.enter_context(self._locks[name])
                return run(q)

    def state(self):
        """A consistent cross-shard snapshot of the stored state."""
        with self._global_lock:
            with ExitStack() as stack:
                for name in sorted(self._locks):
                    stack.enter_context(self._locks[name])
                return self._inner.state()

    def snapshot(self) -> None:
        """Force a snapshot of every shard (durable services only);
        safe while the workers run — the snapshot path takes each
        shard's lock and commits its pending records first."""
        if not self.durable:
            raise ReproError("snapshot requires a durable service")
        self.service.snapshot()

    def health(self) -> Dict[str, object]:
        """The wrapped service's health report (overall status,
        per-shard status, last error per sick shard) plus the server's
        own load picture: queue depths, the bound, and how many
        requests have been shed."""
        report = dict(self.service.health())
        report.update(
            running=self._running,
            workers=self.workers,
            max_queue=self.max_queue,
            queue_depths=[q.qsize() for q in self._queues],
            requests_shed=self.requests_shed,
        )
        return report

    # -- schema evolution --------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The wrapped service's current schema epoch."""
        return self.service.schema_version

    def migration_status(self) -> Dict[str, object]:
        """The wrapped service's migration state (epoch, retained
        pinned epochs, whether a migration is in flight)."""
        return self.service.migration_status()

    def evolve(self, op, during=None):
        """Apply a schema-evolution op to the live server.

        The wrapped service does the heavy lifting (incremental
        re-check, scoped rebuild, mid-migration journal); the server's
        job is the *swap window*: after the optional ``during``
        callback runs (mid-migration writes — they land in the
        journal), the calling thread takes the global read lock plus
        every shard lock, so no worker batch or reader is mid-flight
        while the journal replays and the catalog swaps (and, on a
        durable service, while the new epoch's snapshots are
        finalized — the shard locks are reentrant, so the finalize's
        own per-shard locking nests cleanly).  Once the service call
        returns, the routing table and lock map are rebuilt for the
        new shard set and the locks release — unaffected shards were
        only ever blocked for the replay-and-swap instant, not the
        rebuild.

        Raises :class:`~repro.exceptions.EvolutionRejectedError` (old
        epoch untouched, still serving) exactly like the service."""
        with ExitStack() as stack:

            def quiesce(service) -> None:
                if during is not None:
                    during(service)
                stack.enter_context(self._global_lock)
                for name in sorted(self._locks):
                    stack.enter_context(self._locks[name])

            result = self.service.evolve(op, during=quiesce)
            self._bind_shards()
        return result

    def repair(self, scheme_name: str) -> Dict[str, object]:
        """Repair one shard online (durable services only): delegates
        to :meth:`~repro.weak.durable.DurableShardedService.repair`,
        which takes the shard's own locks — the workers keep serving
        every other shard while it runs."""
        if not self.durable:
            raise ReproError("repair requires a durable service")
        return self.service.repair(scheme_name)

    def shard_versions(self) -> Dict[str, int]:
        """The monotone per-shard version stamps — the read tokens the
        stress tests use to assert no torn reads."""
        return {
            name: self._inner._shard(name).version for name in self._locks
        }

    def stats_dict(self) -> Dict[str, object]:
        """Service counters plus the server's own request counters."""
        stats = dict(self.service.stats.as_dict())
        stats.update(
            server_requests_accepted=self.requests_accepted,
            server_requests_shed=self.requests_shed,
            server_write_batches=self.write_batches,
            server_batched_writes=self.batched_writes,
            server_reads_served=self.reads_served,
            server_workers=self.workers,
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"WeakInstanceServer<workers={self.workers}, "
            f"durable={self.durable}, running={self._running}>"
        )
