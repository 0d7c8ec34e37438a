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
without them has nothing to ship.  Each shard's replication state
lives on its own ``_SchemeShard`` record, beside its store and WAL:
the replica targets (label → :class:`_Target`), the frames and the
WAL end offset shipped so far, the replication epoch, and the replica
lock.  The record is built with a target for every replica of the
service, so a shard an evolution creates ships like any other, and a
retired shard's replication state goes with its record.  This module
holds the shipping side as functions over one record, plus the names
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

**Locks.**  :func:`ship` and :func:`ship_snapshot` run in the
committing thread under the shard WAL's I/O lock, so frames reach the
replicas in WAL order and no frame slips between a snapshot install
and its truncate.  Inside it, the record's ``replica_lock`` is held
across the replica I/O; it is the only lock :func:`lag` takes, so
``health()`` never waits on a primary fsync, and a stalled replica
stalls only its own shard.  The shared ``replica_*`` counters are
bumped under the service's innermost staging lock.

Crash points (:data:`REPLICATION_CRASH_POINTS`) fire at the shipping
and promotion boundaries; every replica file operation goes through
the replica's ``StoreIO``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import NoPromotableReplicaError, ReplicationError
from repro.weak.durable import ShardStore

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


@dataclass
class _Target:
    """One replica of one shard: its store and shipping state."""

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


def _count(service, **deltas: int) -> None:
    stats = service.stats
    # shards ship concurrently and += is not atomic: the service's
    # innermost lock guards the shared counters
    with service._stage_lock:
        for counter, n in deltas.items():
            setattr(stats, counter, getattr(stats, counter) + n)


# -- shipping ------------------------------------------------------------------


def ship(service, shard, blob: bytes, base_offset: int, count: int) -> None:
    """Forward one fsynced blob to every target of ``shard``.  Never
    raises for a replica's I/O failure."""
    name = shard.name

    def deliver(target: _Target) -> None:
        if (
            target.synced
            and target.error is None
            and target.store.wal_offset(name) == base_offset
        ):
            target.store.append(name, blob)
        else:
            # the replica missed something (an earlier failed ship, a
            # truncation, or it was never verified): re-derive its
            # chain from the primary's current bytes, which already
            # include this blob
            _sync_target(service, shard, target)
        _count(service, replica_frames_shipped=count,
               replica_bytes_shipped=len(blob))

    with shard.replica_lock:
        shard.shipped_frames += count
        shard.shipped_offset = base_offset + len(blob)
        _deliver(service, shard, deliver)


def ship_snapshot(service, shard, payload: str) -> None:
    def deliver(target: _Target) -> None:
        target.store.install_snapshot(shard.name, payload)
        _count(service, replica_snapshot_installs=1)

    with shard.replica_lock:
        # the primary's WAL is empty right after the truncation the
        # caller just performed; aligned replicas restart at offset 0
        shard.shipped_offset = 0
        _deliver(service, shard, deliver)


def _deliver(service, shard, deliver) -> None:
    """Run ``deliver`` against every target of one shard (its replica
    lock held): a target that took it is acked, one whose disk refused
    is marked behind — a replica fault never reaches the primary."""
    for target in shard.targets.values():
        try:
            deliver(target)
        except OSError as exc:
            target.error = f"{type(exc).__name__}: {exc}"
            target.synced = False
            _count(service, replica_ship_failures=1)
            _log.warning(
                "replica %s behind on shard %s: %s",
                target.store.label, shard.name, target.error,
            )
        else:
            _ack(shard, target)


def _ack(shard, target: _Target) -> None:
    target.acked_offset = shard.shipped_offset
    target.acked_frames = shard.shipped_frames
    target.acked_epoch = shard.replication_epoch
    target.last_ack = time.monotonic()
    target.error = None
    target.synced = True


def _sync_target(service, shard, target: _Target) -> None:
    """Anti-entropy: make one replica's chain byte-identical to the
    primary's.  Prefix-extension when possible (ship the missing WAL
    suffix), snapshot-copy otherwise.  Raises ``OSError`` when either
    side's disk refuses."""
    name, primary, replica = shard.name, shard.store, target.store
    primary_wal = primary.read_wal(name)
    primary_snap = primary.read_snapshot(name)
    # prefix-extension is sound only when both chains start from the
    # SAME snapshot (byte-identical, None included): a stale replica
    # snapshot under a prefix-compatible WAL would splice recent
    # frames onto old state and silently diverge
    if primary_snap == replica.read_snapshot(name):
        replica_wal = replica.read_wal(name)
        if primary_wal[: len(replica_wal)] == replica_wal:
            suffix = primary_wal[len(replica_wal):]
            if suffix:
                replica.append(name, suffix)
                _count(service, replica_catchups=1)
            return
    # divergent (or past a truncation): snapshot-copy the chain
    if primary_snap is not None:
        replica.install_snapshot(name, primary_snap)
    else:
        try:
            replica.snapshot_path(name).unlink()
        except OSError:
            pass
    replica.overwrite_wal(name, primary_wal)
    _count(service, replica_snapshot_copies=1)


# -- promotion and rejoin --------------------------------------------------------


def promote(shard, label: Optional[str] = None) -> _Target:
    """Remove and return the shard's most-caught-up usable target (or
    the named one).  Ranked by cumulative acked frames, then by the
    decoded on-disk chain — the tiebreak that decides when the
    in-memory acks are cold (restart failover).  Raises
    :class:`NoPromotableReplicaError` when no registered replica has a
    readable chain."""
    name, table = shard.name, shard.targets
    with shard.replica_lock:
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


def add_target(service, shard, store: ShardStore) -> _Target:
    """Register (anti-entropy first) one store as a replica of one
    shard — the rejoin path.  Raises :class:`ReplicationError` when
    the store's disk refuses the catch-up."""
    with shard.replica_lock:
        target = _Target(store)
        try:
            _sync_target(service, shard, target)
        except OSError as exc:
            raise ReplicationError(
                f"shard {shard.name!r}: rejoin of {store.label!r} failed: {exc}"
            ) from exc
        shard.shipped_offset = shard.store.wal_offset(shard.name)
        shard.targets[store.label] = target
        _ack(shard, target)
        return target


# -- observability ---------------------------------------------------------------


def lag(shard) -> Dict[str, Dict[str, object]]:
    """Per-replica lag for one shard: frames behind the primary's
    cumulative count, seconds since the last ack, the acked
    replication ``(epoch, offset)``, and the last error."""
    with shard.replica_lock:
        # read under the lock: a reader that waited out an in-flight
        # ship must not see that ship's ack in its future
        now = time.monotonic()
        return {
            label: {
                "lag_frames": max(0, shard.shipped_frames - target.acked_frames),
                "seconds_since_ack": (
                    None if target.last_ack is None
                    else round(now - target.last_ack, 6)
                ),
                "acked_epoch": target.acked_epoch,
                "acked_offset": target.acked_offset,
                "error": target.error,
            }
            for label, target in shard.targets.items()
        }


def __getattr__(name: str):
    # the service given a replica list (``replicas=[...]``), under the
    # name callers of the replication layer import.  It lives in
    # repro.weak.sharded, which imports this module, so the alias
    # resolves on first use instead of at import
    if name == "ReplicatedShardedService":
        from repro.weak.sharded import ShardedWeakInstanceService

        return ShardedWeakInstanceService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
