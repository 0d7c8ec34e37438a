"""A multi-client front end over the sharded weak-instance service.

:class:`WeakInstanceServer` turns the single-threaded
:class:`~repro.weak.sharded.ShardedWeakInstanceService` — with or
without a log — into a concurrent request processor, leaning on the
same Theorem 3 independence the sharding does:

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
  contiguous insert runs through :meth:`~repro.weak.sharded.
  ShardedWeakInstanceService.apply_insert_many` — one lock acquisition
  per touched shard — and then commits the batch's shards itself via
  :meth:`~repro.weak.sharded.ShardedWeakInstanceService.commit_shards`:
  one WAL write + ``fsync`` per dirty shard, in the worker's own
  thread.  Because each worker owns its shards outright (the routing)
  and independent shards need no global commit order (Theorem 3),
  workers' fsyncs run concurrently — and ``fsync`` releases the GIL,
  so that overlap, not CPU parallelism, is where multi-worker
  throughput comes from under CPython.
* **Snapshot-consistent reads keyed by version stamps.**  Reads run in
  the *calling* thread (they never queue behind writes) under the
  planner's locking discipline: a window takes the locks of the shards
  its plan reads, in sorted order, and nothing else.  Each shard's
  monotone ``version`` stamp is the read token — a window computed
  under the locks is a function of one version vector, never a torn mix
  (:meth:`shard_versions` exposes the stamps for the stress tests).
  A client that saw its insert acknowledged is guaranteed to see it in
  a later read: the write is applied before the future resolves.

Every write goes the same way: applied under its shard lock, staged
when the service keeps a log, and acknowledged only after the
worker's commit of its shard (which, without a log, has nothing to
do).  If a service with a store crashes — for real or through a fault
hook — every in-flight and subsequent write fails with
:class:`~repro.weak.durable.DurableUnavailableError`; reads keep
serving the in-memory state, mirroring a read-only degraded mode.

Two further failure-domain behaviors ride on the same routing:

* **Backpressure.**  ``max_queue`` bounds each worker's queue; when a
  worker falls behind (slow disk, quarantined shard backlog) a submit
  against a full queue is *shed* at once with
  :class:`~repro.exceptions.ServiceOverloadedError` — the request was
  never applied, so the client can safely retry — instead of growing
  an unbounded queue until memory does the shedding.  ``max_queue=0``
  (the default) keeps the old unbounded ``SimpleQueue`` behavior.
* **Quarantine isolation.**  A shard that was quarantined (or
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
    return, when the service has a store), their ``submit_*`` variants
    (return a :class:`~concurrent.futures.Future`), and the
    :class:`~repro.weak.service.WindowQueryAPI` read surface.
    """

    #: max requests one worker drains into a single apply+commit batch
    DEFAULT_BATCH_LIMIT = 64

    def __init__(
        self,
        service: ShardedWeakInstanceService,
        workers: int = 4,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        max_queue: int = 0,
    ):
        """``max_queue`` > 0 bounds each worker's queue at that many
        pending requests; a submit against a full queue is shed at once
        with :class:`ServiceOverloadedError`.  ``max_queue=0`` keeps
        the queues unbounded."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0: unbounded)")
        self.service = service
        self.workers = workers
        self.batch_limit = batch_limit
        self.max_queue = max_queue
        self._bind_shards()
        self._plan_lock = threading.Lock()
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
        names = sorted(self.service.shard_names())
        #: scheme -> worker index; the stable routing that serializes
        #: each shard's writes through exactly one worker
        self._route = {name: i % self.workers for i, name in enumerate(names)}
        #: each shard's own lock (the same object for its whole life
        #: under one name, so a rebuild never swaps it under a holder)
        self._locks = {name: self.service.shard_lock(name) for name in names}

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
        if not self.service.crashed:
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
            sid, seq = session
            session = (str(sid), int(seq))
        request = _WriteRequest(kind, scheme_name, row, session)
        if self.max_queue:
            try:
                self._queues[worker].put_nowait(request)
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
        (and fsynced, with a store).  ``session`` is an
        exactly-once idempotency stamp ``(session_id, seq)``: a
        duplicate submission of the stamped write (a retry after a
        lost ack) resolves to the original outcome instead of
        re-applying — services with a store only."""
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
        """Apply one contiguous insert run, stripping quarantined
        shards' ops and retrying the rest —
        ``apply_insert_many`` gates every touched shard *before*
        applying anything, so a :class:`ShardQuarantinedError` means
        the run was not applied at all and the healthy remainder can
        go again.  Returns whether anything was staged."""
        svc = self.service
        remaining = run
        while remaining:
            try:
                outcomes, staged = svc.apply_insert_many(
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
                return staged
        return False

    def _process_batch(self, batch: List[_WriteRequest]) -> None:
        """Apply a drained batch in order: contiguous insert runs go
        through the batched apply (one lock per shard), deletes apply
        singly.  When anything was staged the worker then commits the
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
                    staged = self._apply_insert_run(run, resolved) or staged
                except BaseException as exc:  # noqa: BLE001 - relayed to clients
                    for r in run:
                        if not r.future.done():
                            r.future.set_exception(exc)
                index = end
            else:
                # deletes and session-stamped inserts apply singly:
                # the exactly-once dedup check must run under the
                # shard lock with the stamp attached to its own frame
                apply = svc.apply_insert if request.kind == "insert" else svc.apply_delete
                try:
                    request.result, staged_now = apply(
                        request.scheme, request.row, session=request.session
                    )
                    staged = staged or staged_now
                    resolved.append(request)
                except BaseException as exc:  # noqa: BLE001
                    request.future.set_exception(exc)
                index += 1
        if staged:
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
            plan = self.service._plan(target)
        return self._under_locks(plan.shards, self.service._window, target)

    def query(self, query):
        """A relational query under the same locking discipline as
        :meth:`window`, generalized to every scan leaf in the tree: the
        union of the leaves' plan shards is locked, in sorted order.
        Execution (and the engine's caches) belong to the wrapped
        service."""
        return self._locked_query(query, explain=False)

    def explain(self, query):
        """The service's :meth:`~repro.weak.service.
        WindowQueryAPI.explain`, run under the same locks as
        :meth:`query`."""
        return self._locked_query(query, explain=True)

    def _locked_query(self, query, explain: bool):
        self.reads_served += 1
        engine = self.service._query_engine()
        bound = engine.bind(query, prepare=False)
        if bound is None:  # a new shape: plans compile under the lock
            with self._plan_lock:
                bound = engine.bind(query)
        run = self.service.explain if explain else self.service.query
        return self._under_locks(bound.prepared.plan.participants, run, bound)

    def _under_locks(self, names, call, *args):
        """``call(*args)`` holding the shard locks of sorted ``names``."""
        locks = [self._locks[name] for name in names]
        for lock in locks:
            lock.acquire()
        try:
            return call(*args)
        finally:
            for lock in reversed(locks):
                lock.release()

    def state(self):
        """A consistent cross-shard snapshot of the stored state."""
        return self._under_locks(sorted(self._locks), self.service.state)

    def snapshot(self) -> None:
        """Force a snapshot of every shard (services with a store
        only); safe while the workers run — the snapshot path takes
        each shard's lock and commits its pending records first."""
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
        journal), the calling thread takes every shard lock, in sorted
        order, so no worker batch or reader is mid-flight
        while the journal replays and the catalog swaps (and, on a
        service with a store, while the new epoch's snapshots are
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
                for name in sorted(self._locks):
                    stack.enter_context(self._locks[name])

            result = self.service.evolve(op, during=quiesce)
            self._bind_shards()
        return result

    def repair(self, scheme_name: str) -> Dict[str, object]:
        """Repair one shard online (services with a store only):
        delegates to :meth:`~repro.weak.sharded.ShardedWeakInstanceService.repair`,
        which takes the shard's own locks — the workers keep serving
        every other shard while it runs."""
        return self.service.repair(scheme_name)

    def shard_versions(self) -> Dict[str, int]:
        """The monotone per-shard version stamps — the read tokens the
        stress tests use to assert no torn reads."""
        return {
            name: self.service._shard(name).version for name in self._locks
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
            f"running={self._running}>"
        )
