"""Per-shard replication: WAL shipping, failover, anti-entropy rejoin.

A shard's log (:mod:`repro.weak.durable`) made each scheme-shard an
independent *commit* domain; shipping that log makes it an independent
**availability** domain.  The argument is Theorem 3 once more: no
cross-shard invariant constrains the interleaving of updates, so a
shard's log can be shipped, acknowledged, promoted, and rejoined *per
shard* — no global view change, no distributed commit.

Replication is not a separate service but a strategy of the shard's
log: a :class:`~repro.weak.sharded.ShardedWeakInstanceService` built
with a ``root`` and ``replicas=[...]`` ships its chains, one built
without them has nothing to ship.  This module holds the shipping
side, :class:`ReplicationManager` (one per service), plus the names
older callers import (:data:`ReplicaStore`,
:data:`ReplicatedShardedService`).  Concretely:

* **WAL shipping.**  Every fsynced WAL blob is forwarded, still under
  that WAL's I/O lock, to N replica targets — each a
  :class:`~repro.weak.durable.ShardStore`, the primary's own layout
  behind the replica's **own** :class:`~repro.weak.durable.StoreIO`
  (independently fault-injectable).  A replica appends the frames at
  the expected base offset and fsyncs; the ack is recorded as a
  replication ``(epoch, offset)`` pair plus a cumulative frame count.
  The ship happens in the committing thread before the shard's commit
  returns: *acked ⟹ fsynced on the primary AND on every reachable
  replica*.
* **Replica faults never fail the primary.**  An ``OSError`` from a
  replica marks that target *behind* (counted, surfaced in
  ``health()``); the next ship — or ``rejoin`` — runs **anti-entropy
  catch-up**: ship the missing suffix when the replica's WAL is a byte
  prefix of the primary's over the same snapshot, otherwise copy the
  primary's snapshot and WAL.  Sound because WAL replay is idempotent
  over set semantics (pinned by a property test).
* **Failover.**  A persistent quarantine (status ``quarantined``)
  promotes the most-caught-up replica: the shard's store is swapped for
  the replica's, a shard whose own chain was unreadable is rebuilt from
  the promoted chain (a live one keeps its in-memory state, which
  holds every acked write), a clean snapshot on
  the new store re-aligns the other replicas, the replication epoch
  bumps, and reads re-route.  Every public write/read entry point
  retries once through a failover, so clients see a hiccup, not an
  outage; ``rejoin`` brings the demoted store back as a replica.
* **Exactly-once sessions** ride on the frame metadata: the
  ``(session_id, seq)`` stamp is in the WAL frame and the session
  table in every snapshot, so the high-water marks replicate and fail
  over *with the shard's chain* — a duplicate returns the original
  outcome, and a retry whose stamp never reached the promoted chain
  applies exactly once.

Crash points (:data:`REPLICATION_CRASH_POINTS`) fire at the shipping
and promotion boundaries; every replica file operation goes through
the replica's ``StoreIO``.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import NoPromotableReplicaError, ReplicationError
from repro.weak.durable import ShardStore
from repro.weak.sharded import ShardedWeakInstanceService

_log = logging.getLogger(__name__)

#: crash points of the replication layer, in lifecycle order; the
#: fault harness arms these exactly like the durable layer's
#: :data:`~repro.weak.durable.CRASH_POINTS`
REPLICATION_CRASH_POINTS = (
    "ship.begin",          # a fsynced blob chosen for shipping
    "failover.begin",      # quarantined primary frozen, no swap yet
    "failover.promoted",   # replica promoted, snapshot installed, routed
    "rejoin.begin",        # demoted store about to catch up
    "rejoin.done",         # anti-entropy complete, target re-registered
)

#: a replica target is a plain shard store: the primary's layout and
#: chain reader, behind the replica's own ``StoreIO``
ReplicaStore = ShardStore

#: the service given a replica list (``replicas=[...]``), under the name
#: callers of the replication layer import
ReplicatedShardedService = ShardedWeakInstanceService


@dataclass
class _Target:
    """Per-(shard, replica) shipping state inside the manager."""

    store: ShardStore
    acked_offset: int = 0
    acked_frames: int = 0
    acked_epoch: int = 0
    last_ack: Optional[float] = None
    error: Optional[str] = None
    #: True once the replica's chain has been byte-verified against
    #: the primary's; the append fast path requires it — an offset
    #: match alone cannot tell a caught-up chain from an empty WAL
    #: behind a stale snapshot
    synced: bool = False


class ReplicationManager:
    """Shipping, acks, lag, promotion, and anti-entropy for every
    shard of one :class:`~repro.weak.sharded.ShardedWeakInstanceService`.

    ``replicas`` are paths (a :class:`ShardStore` with the default
    ``StoreIO`` is built over each) or prebuilt stores; duplicate
    labels get an index suffix.  A shard's lock guards its target
    state across its replica I/O (a stalled replica stalls only that
    shard); the manager lock guards the lock table and counters.
    Shipping runs in the committing thread, under the shard WAL's I/O
    lock, so frames reach replicas in WAL order."""

    def __init__(
        self,
        service: ShardedWeakInstanceService,
        replicas: Sequence[Union[str, os.PathLike, ShardStore]] = (),
    ):
        self.service = service
        self.stores = []
        labels: set = set()
        for index, replica in enumerate(replicas):
            store = replica if isinstance(replica, ShardStore) else ShardStore(replica)
            if store.label in labels:
                store.label = f"{store.label}-{index}"
            labels.add(store.label)
            self.stores.append(store)
        self._lock = threading.Lock()
        self._shard_locks: Dict[str, threading.RLock] = {}
        self._targets: Dict[str, Dict[str, _Target]] = {}
        #: cumulative frames the primary has shipped per shard — the
        #: monotone measure lag is computed against (snapshot
        #: truncations reset offsets, never this)
        self._primary_frames: Dict[str, int] = {}
        self._primary_offset: Dict[str, int] = {}
        #: per-shard replication epoch, bumped by every promotion
        self.epochs: Dict[str, int] = {}

    # -- target bookkeeping ------------------------------------------------------

    def _targets_for(self, name: str) -> Dict[str, _Target]:
        table = self._targets.get(name)
        if table is None:
            table = {store.label: _Target(store) for store in self.stores}
            self._targets[name] = table
        return table

    def _shard_lock(self, name: str) -> threading.RLock:
        with self._lock:
            return self._shard_locks.setdefault(name, threading.RLock())

    def _count(self, **deltas: int) -> None:
        stats = self.service.stats
        with self._lock:  # shards ship concurrently; += is not atomic
            for counter, n in deltas.items():
                setattr(stats, counter, getattr(stats, counter) + n)

    def has_targets(self, name: str) -> bool:
        with self._shard_lock(name):
            return bool(self._targets_for(name))

    # -- shipping ----------------------------------------------------------------

    def ship(self, name: str, blob: bytes, base_offset: int, count: int) -> None:
        """Forward one fsynced blob to every target of the shard.
        Never raises for a replica's I/O failure."""

        def deliver(target: _Target) -> None:
            if (
                target.synced
                and target.error is None
                and target.store.wal_offset(name) == base_offset
            ):
                target.store.append(name, blob)
            else:
                # the replica missed something (an earlier failed ship,
                # a truncation, or it was never verified): re-derive its
                # chain from the primary's current bytes, which already
                # include this blob
                self._sync_target(name, target)
            self._count(replica_frames_shipped=count,
                        replica_bytes_shipped=len(blob))

        with self._shard_lock(name):
            self._primary_frames[name] = self._primary_frames.get(name, 0) + count
            self._primary_offset[name] = base_offset + len(blob)
            self._deliver(name, deliver)

    def ship_snapshot(self, name: str, payload: str) -> None:
        def deliver(target: _Target) -> None:
            target.store.install_snapshot(name, payload)
            self._count(replica_snapshot_installs=1)

        with self._shard_lock(name):
            # the primary's WAL is empty right after the truncation the
            # caller just performed; aligned replicas restart at offset 0
            self._primary_offset[name] = 0
            self._deliver(name, deliver)

    def _deliver(self, name: str, deliver) -> None:
        """Run ``deliver`` against every target of one shard (its
        lock held): a target that took it is acked, one whose disk
        refused is marked behind — a replica fault never reaches the
        primary."""
        for target in self._targets_for(name).values():
            try:
                deliver(target)
            except OSError as exc:
                self._mark_behind(name, target, exc)
            else:
                self._ack(name, target)

    def _ack(self, name: str, target: _Target) -> None:
        target.acked_offset = self._primary_offset.get(name, 0)
        target.acked_frames = self._primary_frames.get(name, 0)
        target.acked_epoch = self.epochs.get(name, 0)
        target.last_ack = time.monotonic()
        target.error = None
        target.synced = True

    def _mark_behind(self, name: str, target: _Target, exc: OSError) -> None:
        target.error = f"{type(exc).__name__}: {exc}"
        target.synced = False
        self._count(replica_ship_failures=1)
        _log.warning(
            "replica %s behind on shard %s: %s",
            target.store.label, name, target.error,
        )

    def _sync_target(self, name: str, target: _Target) -> None:
        """Anti-entropy: make one replica's chain byte-identical to
        the primary's.  Prefix-extension when possible (ship the
        missing WAL suffix), snapshot-copy otherwise.  Raises
        ``OSError`` when either side's disk refuses."""
        primary = self.service.shard_store(name)
        primary_wal = primary.read_wal(name)
        primary_snap = primary.read_snapshot(name)
        replica_snap = target.store.read_snapshot(name)
        # prefix-extension is sound only when both chains start from
        # the SAME snapshot (byte-identical, None included): a stale
        # replica snapshot under a prefix-compatible WAL would splice
        # recent frames onto old state and silently diverge
        if primary_snap == replica_snap:
            replica_wal = target.store.read_wal(name)
            if primary_wal[: len(replica_wal)] == replica_wal:
                suffix = primary_wal[len(replica_wal):]
                if suffix:
                    target.store.append(name, suffix)
                    self._count(replica_catchups=1)
                return
        # divergent (or past a truncation): snapshot-copy the chain
        if primary_snap is not None:
            target.store.install_snapshot(name, primary_snap)
        else:
            try:
                target.store.snapshot_path(name).unlink()
            except OSError:
                pass
        target.store.overwrite_wal(name, primary_wal)
        self._count(replica_snapshot_copies=1)

    # -- promotion and rejoin ----------------------------------------------------

    def promote(self, name: str, label: Optional[str] = None) -> _Target:
        """Remove and return the shard's most-caught-up usable target
        (or the named one).  Ranked by cumulative acked frames, then
        by the decoded on-disk chain — the tiebreak that decides when
        the manager's in-memory acks are cold (restart failover).
        Raises :class:`NoPromotableReplicaError` when no registered
        replica has a readable chain."""
        with self._shard_lock(name):
            table = self._targets_for(name)
            if label is not None and label not in table:
                raise NoPromotableReplicaError(name, f"no replica labeled {label!r}")
            best = None
            best_key = None
            for target in table.values() if label is None else [table[label]]:
                summary = target.store.chain_summary(name)
                if not summary["readable"]:
                    if label is not None:
                        raise NoPromotableReplicaError(
                            name, f"replica {label!r}: {summary.get('error')}"
                        )
                    continue
                key = (
                    target.acked_frames,
                    int(summary["snapshot"]),
                    summary["frames"],
                    summary["rows"],
                    target.store.label,
                )
                if best_key is None or key > best_key:
                    best, best_key = target, key
            if best is None:
                raise NoPromotableReplicaError(
                    name, "no readable chain" if table else "no replica registered"
                )
            del table[best.store.label]
            return best

    def bump_epoch(self, name: str) -> int:
        with self._shard_lock(name):
            self.epochs[name] = self.epochs.get(name, 0) + 1
            return self.epochs[name]

    def add_target(self, name: str, store: ShardStore) -> _Target:
        """Register (anti-entropy first) one store as a replica of one
        shard — the rejoin path.  Raises :class:`ReplicationError`
        when the store's disk refuses the catch-up."""
        with self._shard_lock(name):
            target = _Target(store)
            try:
                self._sync_target(name, target)
            except OSError as exc:
                raise ReplicationError(
                    f"shard {name!r}: rejoin of {store.label!r} failed: {exc}"
                ) from exc
            self._primary_offset[name] = self.service.shard_store(
                name
            ).wal_offset(name)
            self._targets_for(name)[store.label] = target
            self._ack(name, target)
            return target

    def retire(self, name: str) -> List[ShardStore]:
        """Forget a shard an evolution retired; returns the stores that
        were its targets, for the caller to clear."""
        with self._shard_lock(name):
            for table in (self._primary_frames, self._primary_offset, self.epochs):
                table.pop(name, None)
            return [t.store for t in self._targets.pop(name, {}).values()]

    # -- observability -----------------------------------------------------------

    def lag(self, name: str) -> Dict[str, Dict[str, object]]:
        """Per-replica lag for one shard: frames behind the primary's
        cumulative count, seconds since the last ack, the acked
        replication ``(epoch, offset)``, and the last error."""
        with self._shard_lock(name):
            # read under the lock: a reader that waited out an
            # in-flight ship must not see that ship's ack in its future
            now = time.monotonic()
            primary_frames = self._primary_frames.get(name, 0)
            report: Dict[str, Dict[str, object]] = {}
            for label, target in self._targets_for(name).items():
                report[label] = {
                    "lag_frames": max(0, primary_frames - target.acked_frames),
                    "seconds_since_ack": (
                        None if target.last_ack is None
                        else round(now - target.last_ack, 6)
                    ),
                    "acked_epoch": target.acked_epoch,
                    "acked_offset": target.acked_offset,
                    "error": target.error,
                }
            return report
