"""Per-shard write-ahead logging and snapshots for the sharded service.

Everything the services of :mod:`repro.weak.service` and
:mod:`repro.weak.sharded` serve lives in process memory: a restart
loses the state, which blocks the ROADMAP's long-lived-server goal.
:class:`DurableShardedService` wraps
:class:`~repro.weak.sharded.ShardedWeakInstanceService` with a
durability layer built on the same independence argument as the
sharding itself (Theorem 3): because every scheme's updates are
validated and applied against that scheme alone, each shard can own an
**independent write-ahead log** — there is no cross-shard transaction
whose atomicity a global log would have to protect.  Concretely:

* **WAL.**  Every accepted, non-duplicate insert or delete appends one
  CRC-framed record (``[u32 length][u32 crc32][JSON payload]``) to its
  scheme's append-only ``wal.log``.  Records are *staged* in memory
  and written by **group commit**: one :meth:`~DurableShardedService.
  commit` drains every shard's staged records, writes them, and issues
  one ``fsync`` per dirty WAL — so ``N`` concurrent writers share
  fsyncs instead of paying one each.  An operation is durable exactly
  when the commit covering its ticket has completed
  (:meth:`~DurableShardedService.wait_durable`).  Because the logs are
  per shard and the shards independent, there is also no *global*
  commit order to protect: :meth:`~DurableShardedService.
  commit_shards` commits any subset of shards in the calling thread,
  serialized per WAL by that WAL's own I/O lock — concurrent callers
  owning disjoint shards overlap their fsyncs (which release the
  GIL), which is where the multi-worker front end's throughput
  scaling comes from.
* **Snapshots.**  Periodically (every ``snapshot_interval`` WAL
  records per shard, or on demand) a shard's full relation is written
  to ``snapshot.json`` — tmp file, ``fsync``, atomic rename, directory
  ``fsync`` — and the WAL is truncated.  The snapshot is taken with
  the shard's pending records committed first (under the shard lock),
  so every operation a snapshot reflects is also on disk; records a
  crash loses are therefore always a *suffix* of the shard's history,
  which is what makes replay-over-snapshot idempotent (set-semantics
  inserts and deletes: the last surviving operation on a tuple decides
  its membership, replayed or not).
* **Recovery.**  Opening an existing directory reads each shard's
  chain once — :func:`read_chain`: the newest readable snapshot
  generation, then the WAL tail replayed over it (stopping at a torn
  or corrupt frame, which is truncated) — and loads the reconstructed
  state into the
  sharded service in one atomic :meth:`~repro.weak.sharded.
  ShardedWeakInstanceService.load` — pure set arithmetic plus index
  builds, **no chase**: the shard tableaux and the global composer are
  rebuilt lazily through the column-major bulk kernel
  (:func:`repro.chase.bulk.ingest_state`) when first queried.  The
  recovered state is always, per shard, the state after some prefix of
  that shard's operation history — at least every acknowledged
  (fsynced) operation, at most every applied one.  Cross-shard, the
  prefixes are independent; Theorem 3 is exactly the license for that
  (any combination of per-shard satisfying states is satisfying).

**One chain, one layout.**  A shard's durable identity is its chain:
snapshot generations plus a WAL tail behind one :class:`StoreIO`.
:class:`ShardStore` spells out the layout, :func:`read_chain` reads a
chain and :func:`_frames` parses frames — for recovery, ``repair``,
failover, the replica summary and :func:`verify_store` alike.

**Replication.**  Given ``replicas=[...]`` the same service ships every
fsynced WAL blob and snapshot install to replica :class:`ShardStore`
targets (:mod:`repro.weak.replication`), and a shard quarantine swaps
the shard's store for the most-caught-up replica's before the call is
retried once.  Without replicas a quarantine stands.

**Fault injection.**  Every durability-critical boundary calls the
optional ``fault_hook`` with a crash-point name (:data:`CRASH_POINTS`)
before proceeding.  A hook that raises simulates the process dying at
that boundary: the instance latches ``crashed`` (further operations
raise :class:`DurableUnavailableError`) and the test harness re-opens
the directory with a fresh instance, exactly like a restart after
``kill -9``.  The ``commit.partial`` point additionally models a torn
machine-crash write: it fires after only a prefix of a WAL's staged
bytes has reached the file.  Below the crash points sits an
**injectable I/O layer** (:class:`StoreIO`): every WAL and snapshot
file operation goes through one substitutable object, so the harness
(``tests/harness/faults.FaultyIO``) can return ``EIO``/``ENOSPC``,
tear writes, or flip bits on reads deterministically.

**Fault isolation.**  Theorem 3 makes the shards independent failure
domains, and the durability layer honors that end to end.  An
:class:`OSError` escaping a shard's WAL or snapshot path is retried
with bounded exponential backoff (``io_retries`` / ``io_backoff``);
a persistent failure confines the damage to that shard:

* ``ENOSPC`` **degrades** the shard to read-only — reads keep serving
  the in-memory state, writes raise
  :class:`~repro.exceptions.ShardQuarantinedError`, and every write
  attempt *probes* for recovery (space freed → the backlog flushes and
  the shard returns to serving on its own).
* Any other persistent I/O error **quarantines** the shard: writes
  *and* reads that need it raise the typed error, while the window
  planner keeps answering every query whose plan does not involve the
  sick shard (the closure guard decides).  The shard's un-fsynced
  records stay staged in memory for the repair path.
* :meth:`DurableShardedService.repair` heals online: newest good
  snapshot generation (the install keeps the last
  ``snapshot_generations`` files as a rename chain) + WAL-tail replay
  + a fresh bulk-loaded shard, then un-quarantine.  The offline
  counterpart is :func:`verify_store` (the ``repro verify-store``
  scrubber), which walks every CRC and snapshot generation without
  opening the service.

Non-``OSError`` exceptions keep the old whole-service crash latch:
they mean the *process* state is suspect, not one shard's disk.

**WAL corruption accounting.**  Replay distinguishes a torn *tail*
(expected after a crash: quietly truncated) from mid-file corruption
with valid frames stranded after it (unexpected: counted in
``wal_corrupt_frames`` / ``wal_truncated_bytes``, logged, and
surfaced by ``verify-store``) — good records are never dropped
silently.

**Schema evolution.**  :meth:`DurableShardedService.evolve` makes the
online migration protocol of :meth:`~repro.weak.sharded.
ShardedWeakInstanceService.evolve` durable.  The commit point is a
root-level **schema WAL** (``schema.log``, same CRC framing as the
shard WALs) plus an atomic manifest rewrite: the evolution record —
epoch, the serialized op, the old and new catalogs — is appended and
fsynced first, then ``MANIFEST.json`` is replaced (tmp + rename) to
name the new epoch.  A crash *before* the manifest replace recovers
the old epoch untouched; a crash *after* it recovers the new epoch,
**rolling forward** any shard whose on-disk snapshot predates the
manifest's epoch by re-applying the logged op's deterministic
``migrate_relations`` transform to the retired source shards (their
directories are retained until every migrated shard's epoch-stamped
snapshot is durable — only then are dropped schemes' directories
removed).  Snapshots carry the epoch they were taken under; reopening
an evolved store rebuilds the service from the manifest's catalog, so
the constructor's (original) schema only has to match what the store
was *created* with.

**Threading.**  Mutations and snapshots are safe under concurrent use:
each scheme has a reentrant shard lock (:meth:`shard_lock`) guarding
apply+stage order, staging and commit hand off through dedicated
internal locks, and :meth:`wait_durable` lets callers block for group
commit without holding any lock.  Reads (``window`` etc.) are *not*
internally locked — single-threaded callers need nothing, and the
multi-client front end (:mod:`repro.weak.server`) provides the read
locking discipline.  Values must be JSON-serializable scalars (the
DSL's strings and integers are); anything else is rejected before the
operation applies.
"""

from __future__ import annotations

import errno as _errno
import functools
import json
import logging
import os
import pathlib
import random
import re
import shutil
import struct
import threading
import time
from collections.abc import Iterator
from contextlib import ExitStack
from dataclasses import dataclass, field
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
from zlib import crc32

from repro.core.independence import IndependenceReport
from repro.core.maintenance import InsertOutcome
from repro.data.states import DatabaseState
from repro.deps.fd import FD
from repro.deps.fdset import FDSet, as_fdset
from repro.exceptions import (
    EvolutionRejectedError,
    ReplicationError,
    ReproError,
    SessionSequenceError,
    ShardQuarantinedError,
)
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema
from repro.schema.evolution import EvolutionOp, evolution_op_from_json
from repro.schema.relation import RelationScheme
from repro.weak.service import WindowQueryAPI
from repro.weak.sharded import (
    SHARD_DEGRADED,
    SHARD_QUARANTINED,
    SHARD_REPAIRING,
    SHARD_SERVING,
    EvolutionResult,
    ShardedServiceStats,
    ShardedWeakInstanceService,
    _SchemeShard,
)

_log = logging.getLogger(__name__)

#: Crash-point names, in the order a mutation's life passes them.  The
#: fault-injection harness (``tests/harness``) enumerates these; the
#: hook fires *before* the step the name describes completes, except
#: where the name says otherwise.
CRASH_POINTS = (
    "commit.begin",        # staged records chosen, nothing written yet
    "commit.partial",      # half of one WAL's staged bytes written (torn write)
    "commit.pre-fsync",    # all bytes written and flushed, no fsync yet
    "commit.post-fsync",   # every dirty WAL fsynced, tickets not yet released
    "snapshot.begin",      # shard state captured, nothing written yet
    "snapshot.tmp-written",  # tmp snapshot written + fsynced, not yet renamed
    "snapshot.installed",  # renamed over snapshot.json, WAL not yet truncated
    "snapshot.done",       # WAL truncated; snapshot cycle complete
    # -- schema evolution (the migration crash matrix) ------------------
    "evolve.begin",        # evolution requested, nothing changed yet
    "evolve.mid-rebuild",  # a replacement shard is being built
    "evolve.journal-replay",  # mid-migration journal about to replay
    "evolve.pre-wal",      # schema.log record encoded, not yet written
    "evolve.post-wal",     # schema.log fsynced, manifest not yet replaced
    "evolve.manifest",     # manifest replaced (commit point crossed), no
                           #   new-epoch snapshot installed yet → recovery
                           #   must roll the migrated shards forward
    "evolve.done",         # manifest committed, migrated snapshots installed
)

#: crash points exercised by the evolution crash matrix (a subset of
#: :data:`CRASH_POINTS`; ``tests/harness`` parametrizes over these)
MIGRATION_CRASH_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("evolve."))

#: ``fault_hook`` signature: called with a :data:`CRASH_POINTS` name;
#: raising simulates a crash at that boundary.
FaultHook = Callable[[str], None]

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)

MANIFEST_NAME = "MANIFEST.json"
SCHEMA_LOG_NAME = "schema.log"
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.json"
_SNAPSHOT_TMP = "snapshot.json.tmp"
#: ``snapshot.json`` (generation 0) or ``snapshot.json.<k>``
_SNAPSHOT_FILE = re.compile(re.escape(SNAPSHOT_NAME) + r"(?:\.([1-9][0-9]*))?")
_FORMAT = 1

#: frames larger than this never come out of :func:`_encode_record`;
#: the resync scanner uses it to reject garbage "headers" cheaply
_MAX_FRAME_PAYLOAD = 1 << 24


class StoreIO:
    """Every filesystem operation the durability layer performs, as one
    substitutable object.

    The default implementation is the real thing; the fault-injection
    harness (``tests/harness/faults.FaultyIO``) subclasses it to raise
    ``EIO``/``ENOSPC`` at scripted occurrences, tear writes, and flip
    bits on reads — which is what makes the quarantine/retry/repair
    machinery deterministically testable.  Only :class:`OSError` may
    be raised from these methods (that is the contract the per-shard
    fault handling keys on).
    """

    def wal_write(self, handle, blob: bytes, path: pathlib.Path) -> None:
        handle.write(blob)

    def wal_fsync(self, handle, path: pathlib.Path) -> None:
        os.fsync(handle.fileno())

    def truncate(self, path: pathlib.Path, size: int) -> None:
        os.truncate(path, size)

    def read_bytes(self, path: pathlib.Path) -> bytes:
        return path.read_bytes()

    def snapshot_write(self, path: pathlib.Path, payload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, src: pathlib.Path, dst: pathlib.Path) -> None:
        os.replace(src, dst)

    def dir_fsync(self, directory: pathlib.Path) -> None:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


class DurableUnavailableError(ReproError):
    """The durable service crashed (a fault hook fired or a non-I/O
    error escaped a commit/snapshot) and must be re-opened from disk."""


@dataclass
class DurableServiceStats(ShardedServiceStats):
    """Sharded-service counters extended with the durability layer's.

    ``as_dict`` enumerates dataclass fields, so these flow into the
    CLI ``stats`` op and benchmark assertions automatically — tests
    wait on counters, not on sleeps.
    """

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
    #: shards healed — by :meth:`DurableShardedService.repair` or by a
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


def _encode_record(
    op: str, values: Sequence[object], meta: Optional[dict] = None
) -> bytes:
    """One framed WAL record.  Raises :class:`ReproError` (before any
    state mutates — callers encode first) on non-JSON values.

    ``meta`` rides as an optional third JSON element — today the
    exactly-once session stamp ``{"sid": ..., "seq": ...}``.  Frames
    without it are byte-identical to the pre-session format, so old
    stores replay unchanged and new frames replay on old readers that
    ignore the extra element."""
    body = [op, list(values)] if meta is None else [op, list(values), meta]
    try:
        payload = json.dumps(
            body, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"durable serving requires JSON-serializable tuple values: {exc}"
        ) from None
    return _FRAME.pack(len(payload), crc32(payload)) + payload


def _frames(data: bytes, offset: int = 0, strict: bool = False):
    """The one frame-header loop: yield ``(end, crc, (op, values,
    meta-or-None))`` for each intact frame from ``offset`` on, stopping
    at the first torn (short) or corrupt (CRC, unparsable) frame.
    ``strict`` is the resync scanner's stricter test: it also refuses
    oversized lengths and anything but a well-formed ``+``/``-`` WAL
    record, so random bytes in a bad region cannot pass for a frame."""
    header = _FRAME.size
    total = len(data)
    while offset + header <= total:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + header
        end = start + length
        if end > total or (strict and length > _MAX_FRAME_PAYLOAD):
            return  # torn write: the payload never fully landed
        payload = data[start:end]
        if crc32(payload) != crc:
            return
        try:
            record = json.loads(payload.decode("utf-8"))
            op, values = record[0], tuple(record[1])
        except (ValueError, LookupError, TypeError):
            return  # the CRC guards this outside strict resync
        meta = record[2] if len(record) > 2 else None
        if strict and (
            not isinstance(record, list)
            or len(record) > 3
            or op not in ("+", "-")
            or not isinstance(record[1], list)
            or not isinstance(meta, (dict, type(None)))
        ):
            return
        yield end, crc, (op, values, meta if isinstance(meta, dict) else None)
        offset = end


def _decode_records(data: bytes) -> PyTuple[List[PyTuple[str, PyTuple[object, ...]]], int]:
    """Parse framed records; returns ``(ops, good_offset)`` — the
    intact prefix without session stamps, which is all the schema log
    needs — where ``good_offset`` is the byte length of that prefix."""
    ops: List[PyTuple[str, PyTuple[object, ...]]] = []
    good = 0
    for good, _crc, (op, values, _meta) in _frames(data):
        ops.append((op, values))
    return ops, good


@dataclass
class WalScan:
    """What a forward scan of one WAL file found.

    ``ops``/``good_offset`` are the trusted prefix — exactly what
    replay applies (replaying records *past* a gap would reorder the
    shard's history, so stranded records are reported, never applied).
    ``corrupt`` distinguishes the two failure shapes: a torn tail
    (``False`` — the expected residue of a crash mid-append, truncated
    quietly) versus mid-file corruption with valid frames after it
    (``True`` — unexpected, counted and surfaced).
    """

    ops: List[PyTuple[str, PyTuple[object, ...], Optional[dict]]] = field(
        default_factory=list
    )
    #: frame CRCs of the trusted prefix — the identity the replica
    #: cross-check compares (two chains agree exactly when one CRC
    #: sequence is a prefix of the other)
    crcs: List[int] = field(default_factory=list)
    #: byte length of the intact prefix
    good_offset: int = 0
    #: bytes in the file beyond the intact prefix (0 for a clean WAL)
    tail_bytes: int = 0
    #: True iff valid frames exist after a bad region (mid-file corruption)
    corrupt: bool = False
    #: distinct bad regions the resync scan crossed
    corrupt_regions: int = 0
    #: valid frames stranded after the first bad region (reported, not replayed)
    stranded_records: int = 0


def _scan_records(data: bytes) -> WalScan:
    """Parse one WAL image: the trusted prefix plus a forward resync
    scan past any bad region, so a torn tail and mid-file corruption
    are told apart (module docstring: *WAL corruption accounting*)."""
    scan = WalScan()
    good = 0
    for good, crc, frame in _frames(data):
        scan.ops.append(frame)
        scan.crcs.append(crc)
    total = len(data)
    scan.good_offset = good
    scan.tail_bytes = total - good
    offset = good + 1
    while offset < total:
        stranded = 0
        for offset, _crc, _frame in _frames(data, offset, strict=True):
            stranded += 1
        if stranded:
            # valid frames after a bad region: mid-file corruption
            scan.corrupt = True
            scan.corrupt_regions += 1
            scan.stranded_records += stranded
        offset += 1
    return scan


def _snapshot_payload(
    name: str,
    attributes: Sequence[str],
    rows: List[list],
    epoch: int = 0,
    sessions: Optional[Dict[str, list]] = None,
) -> str:
    """Serialize one shard snapshot.  The ``crc`` covers the tuples
    serialization, so a bit-flip anywhere in the data is detected by
    recovery/``verify-store`` and the generation chain falls back.
    ``epoch`` stamps the schema version the rows belong to — recovery
    rolls a shard forward when its snapshot predates the manifest's
    epoch (pre-epoch snapshots parse as epoch 0).  ``sessions`` is the
    shard's exactly-once table (``{sid: [seq, op-or-null]}``): the WAL
    truncation that follows a snapshot discards the session-stamped
    frames, so the high-water marks must ride in the snapshot or a
    restart would forget them and re-apply a retried duplicate."""
    tuples_json = json.dumps(rows, separators=(",", ":"))
    sessions_part = ""
    if sessions:
        sessions_part = '"sessions":%s,' % json.dumps(
            sessions, separators=(",", ":"), sort_keys=True
        )
    return (
        '{"format":%d,"scheme":%s,"epoch":%d,%s"attributes":%s,"crc":%d,"tuples":%s}'
        % (
            _FORMAT,
            json.dumps(name),
            epoch,
            sessions_part,
            json.dumps(list(attributes)),
            crc32(tuples_json.encode("utf-8")),
            tuples_json,
        )
    )


def _schema_log_records(data: bytes) -> PyTuple[List[Dict[str, object]], int]:
    """Parse a ``schema.log`` image: one dict per committed evolution,
    in apply order, plus the intact prefix's byte length.  A torn tail
    (crash mid-append) ends the parse — a record not fully on disk was
    never committed (the manifest replace happens strictly after the
    log fsync)."""
    ops, good = _decode_records(data)
    records: List[Dict[str, object]] = []
    for op, values in ops:
        if op != "schema" or not values:
            continue  # pragma: no cover - foreign record, skip
        try:
            record = json.loads(values[0])
        except (TypeError, ValueError):  # pragma: no cover - crc guards
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, good


def _schema_to_json(schema: DatabaseSchema) -> List[list]:
    """The catalog as JSON: ``[[name, [attr, ...]], ...]`` — what the
    manifest and every ``schema.log`` record embed."""
    return [[s.name, list(s.attributes.names)] for s in schema]


def _schema_from_json(data: object) -> DatabaseSchema:
    if not isinstance(data, list):
        raise ReproError(f"malformed schema serialization: {data!r}")
    return DatabaseSchema(
        [RelationScheme(name, AttributeSet(attrs)) for name, attrs in data]
    )


def _fds_to_json(fds: FDSet) -> List[list]:
    """FDs as JSON: ``[[[lhs...], [rhs...]], ...]`` (structural — the
    display form concatenates attribute names, which does not
    round-trip through the parser)."""
    return [[list(f.lhs.names), list(f.rhs.names)] for f in fds]


def _fds_from_json(data: object) -> FDSet:
    if not isinstance(data, list):
        raise ReproError(f"malformed FD serialization: {data!r}")
    return FDSet(
        FD(AttributeSet(lhs), AttributeSet(rhs)) for lhs, rhs in data
    )


def _parse_snapshot(data: bytes, name: str) -> dict:
    """Parse and validate one snapshot image; raises
    :class:`ReproError` on any structural or CRC mismatch.  Snapshots
    written before the ``crc`` field are accepted without the check."""
    try:
        snap = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ReproError(f"unparsable snapshot: {exc}") from None
    if not isinstance(snap, dict) or snap.get("format") != _FORMAT:
        raise ReproError(f"unsupported snapshot format {snap.get('format')!r}"
                         if isinstance(snap, dict) else "snapshot is not an object")
    if snap.get("scheme") != name:
        raise ReproError(
            f"snapshot is for scheme {snap.get('scheme')!r}, not {name!r}"
        )
    tuples = snap.get("tuples")
    if not isinstance(tuples, list) or not all(isinstance(r, list) for r in tuples):
        raise ReproError("snapshot tuples are malformed")
    crc = snap.get("crc")
    if crc is not None:
        tuples_json = json.dumps(tuples, separators=(",", ":"))
        if crc32(tuples_json.encode("utf-8")) != crc:
            raise ReproError("snapshot CRC mismatch (bit rot or torn write)")
    sessions = snap.get("sessions")
    if sessions is not None and not isinstance(sessions, dict):
        raise ReproError("snapshot session table is malformed")
    return snap


def _sessions_from_snapshot(raw: object) -> Dict[str, dict]:
    """Rebuild a shard's session table from its snapshot field
    (``{sid: [seq, op-or-null]}``).  ``op`` is the original effectful
    operation's kind — enough to reconstruct the outcome a duplicate
    must be answered with; ``null`` marks a session whose last
    operation changed nothing (safe to re-execute, so no outcome needs
    to survive)."""
    table: Dict[str, dict] = {}
    if not isinstance(raw, dict):
        return table
    for sid, entry in raw.items():
        try:
            seq = int(entry[0])
            kind = entry[1]
        except (TypeError, ValueError, IndexError):
            continue  # pragma: no cover - snapshot CRC guards
        if kind not in ("+", "-", None):
            continue  # pragma: no cover - defensive
        table[str(sid)] = {
            "seq": seq, "kind": kind, "result": None, "ticket": None
        }
    return table


def _replay_session_frame(
    table: Dict[str, dict], op: str, meta: Optional[dict]
) -> None:
    """Fold one WAL frame's session stamp into a rebuilding table.
    Frames land in WAL order, so the last stamp per session wins;
    ``>=`` (not ``>``) because a re-executed same-seq operation (the
    original changed nothing) legitimately re-logs its sequence."""
    if not meta:
        return
    sid = meta.get("sid")
    seq = meta.get("seq")
    if sid is None or not isinstance(seq, int):
        return  # pragma: no cover - defensive
    entry = table.get(str(sid))
    if entry is None or seq >= entry["seq"]:
        table[str(sid)] = {
            "seq": seq, "kind": op, "result": None, "ticket": None
        }


def _sessions_to_snapshot(table: Dict[str, dict]) -> Dict[str, list]:
    """The persistent image of a session table: every high-water mark
    survives; a session whose recorded operation was effectful keeps
    its kind so a post-restart duplicate gets a truthful answer."""
    return {
        sid: [entry["seq"], entry.get("kind")]
        for sid, entry in table.items()
    }


def _write_fsync(io: StoreIO, path: pathlib.Path, blob: bytes, mode: str) -> None:
    """Open ``path`` unbuffered in ``mode`` (``"ab"`` appends, ``"wb"``
    replaces), write ``blob`` and fsync — the one-shot log write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, mode, buffering=0) as handle:
        if blob:
            io.wal_write(handle, blob, path)
        io.wal_fsync(handle, path)


class ShardStore:
    """One store root, the primary's or a replica's, and the one place
    the layout ``shards/<name>/{wal.log, snapshot.json[.k]}`` is
    spelled out, behind one :class:`StoreIO`.

    The replica-facing writes (:meth:`append`, :meth:`install_snapshot`,
    :meth:`overwrite_wal`) copy the primary's fsynced bytes verbatim, so
    chains stay byte-identical.  The primary itself appends through its
    :class:`_ShardWal` and installs through :meth:`write_snapshot`."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        io: Optional[StoreIO] = None,
        label: Optional[str] = None,
    ):
        self.root = pathlib.Path(root)
        self.io = io if io is not None else StoreIO()
        self.label = label if label is not None else self.root.name
        #: parent of every shard directory
        self.shards_root = self.root / "shards"

    def shard_dir(self, name: str) -> pathlib.Path:
        return self.shards_root / name

    def wal_path(self, name: str) -> pathlib.Path:
        return self.shard_dir(name) / WAL_NAME

    def snapshot_path(self, name: str, generation: int = 0) -> pathlib.Path:
        """Generation 0 is the newest snapshot (``snapshot.json``);
        ``k > 0`` is the k-th predecessor in the rename chain."""
        if generation == 0:
            return self.shard_dir(name) / SNAPSHOT_NAME
        return self.shard_dir(name) / f"{SNAPSHOT_NAME}.{generation}"

    def snapshot_generations(self, name: str) -> List[int]:
        """The snapshot generations on disk, newest first."""
        try:
            files = os.listdir(self.shard_dir(name))
        except OSError:
            return []
        matches = (_SNAPSHOT_FILE.fullmatch(file) for file in files)
        return sorted(int(m.group(1) or 0) for m in matches if m)

    def wal_offset(self, name: str) -> int:
        try:
            return os.path.getsize(self.wal_path(name))
        except OSError:
            return 0

    def read_wal(self, name: str) -> bytes:
        path = self.wal_path(name)
        return self.io.read_bytes(path) if path.exists() else b""

    def read_snapshot(self, name: str) -> Optional[bytes]:
        path = self.snapshot_path(name)
        return self.io.read_bytes(path) if path.exists() else None

    def write_snapshot(
        self,
        name: str,
        payload: str,
        generations: int = 1,
        fault: Optional[FaultHook] = None,
    ) -> None:
        """Install ``payload`` as the shard's generation 0: tmp file,
        fsync, rename, directory fsync.  With ``generations > 1`` the
        older snapshots first shift one generation up, so the last
        ``generations`` snapshots stay on disk for repair to fall back
        through.  A crash mid-rotation is safe: recovery walks the
        chain newest-first, and a shifted-but-not-yet-replaced slot
        just means two adjacent generations briefly hold the same
        content.  Truncating the WAL afterwards is the caller's step."""
        directory = self.shard_dir(name)
        tmp = directory / _SNAPSHOT_TMP
        self.io.snapshot_write(tmp, payload)
        if fault is not None:
            fault("snapshot.tmp-written")
        for generation in range(generations - 1, 0, -1):
            older = self.snapshot_path(name, generation - 1)
            if older.exists():
                self.io.replace(older, self.snapshot_path(name, generation))
        self.io.replace(tmp, self.snapshot_path(name))
        self.io.dir_fsync(directory)

    # -- replica-facing writes ------------------------------------------------

    def append(self, name: str, blob: bytes) -> None:
        """Append a shipped blob to the shard's replica WAL and fsync
        it (the ack happens only after this returns)."""
        _write_fsync(self.io, self.wal_path(name), blob, "ab")

    def install_snapshot(self, name: str, payload: Union[str, bytes]) -> None:
        """Install a shipped snapshot exactly like the primary does,
        then truncate the replica WAL (the primary truncated its own
        in the same breath)."""
        self.shard_dir(name).mkdir(parents=True, exist_ok=True)
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        self.write_snapshot(name, payload)
        wal = self.wal_path(name)
        if not wal.exists():
            wal.touch()
        self.io.truncate(wal, 0)

    def overwrite_wal(self, name: str, data: bytes) -> None:
        """Make the replica WAL byte-identical to ``data`` (the
        snapshot-copy leg of anti-entropy)."""
        _write_fsync(self.io, self.wal_path(name), data, "wb")

    def chain_summary(self, name: str) -> Dict[str, object]:
        """Read the shard's chain (replicas keep a single snapshot
        generation) for promotion ranking: snapshot present, rows after
        replay, intact WAL frames.  A chain that cannot be read
        summarizes as unreadable — it cannot be promoted."""
        summary: Dict[str, object] = {
            "snapshot": False, "rows": 0, "frames": 0, "readable": False,
        }
        try:
            chain = read_chain(self, name, generations=1)
        except OSError as exc:
            return dict(summary, error=str(exc))
        if chain.void:
            return dict(summary, error=chain.snapshots[0]["error"])
        return {
            "snapshot": chain.generation is not None,
            "rows": len(chain.rows),
            "frames": len(chain.scan.ops),
            "readable": True,
        }

    def __repr__(self) -> str:
        return f"ShardStore<{self.label}:{str(self.root)!r}>"


@dataclass
class ShardChain:
    """One shard's chain as read from disk: the newest readable
    snapshot generation with the WAL's intact prefix replayed over it."""

    #: value tuples after replay (insertion-ordered set)
    rows: Dict[PyTuple[object, ...], None] = field(default_factory=dict)
    #: the exactly-once session table after replay
    sessions: Dict[str, dict] = field(default_factory=dict)
    #: schema epoch the snapshot was taken under (0 without one)
    epoch: int = 0
    #: snapshot generation the rows start from (``None``: started empty)
    generation: Optional[int] = None
    #: unreadable snapshot generations met on the walk
    bad_generations: int = 0
    #: one ``{"generation", "ok", "tuples" | "error"}`` per generation read
    snapshots: List[dict] = field(default_factory=list)
    scan: WalScan = field(default_factory=WalScan)

    @property
    def void(self) -> bool:
        """Snapshots exist but none is readable: the rows are not
        authoritative (they would silently drop the lost snapshot)."""
        return self.generation is None and self.bad_generations > 0


def read_chain(
    store: ShardStore,
    name: str,
    generations: Optional[int] = None,
    scrub: bool = False,
) -> ShardChain:
    """The one chain reader: walk the snapshot generations newest-first
    (below ``generations``; all on disk when ``None``) to the first that
    parses and passes its CRC, then replay the WAL's intact prefix over
    its rows and session table.  ``scrub`` checks every generation, not
    just up to the one used.  Each file is read once; bad snapshots are
    counted, an unreadable WAL raises :class:`OSError`, and nothing on
    disk changes — cutting a bad tail is the caller's call."""
    chain = ShardChain()
    for generation in store.snapshot_generations(name):
        if generations is not None and generation >= generations:
            break
        try:
            snap = _parse_snapshot(
                store.io.read_bytes(store.snapshot_path(name, generation)), name
            )
        except (OSError, ReproError) as exc:
            chain.bad_generations += 1
            chain.snapshots.append(
                {"generation": generation, "ok": False, "error": str(exc)}
            )
            continue
        chain.snapshots.append(
            {"generation": generation, "ok": True, "tuples": len(snap["tuples"])}
        )
        if chain.generation is None:
            chain.generation = generation
            chain.epoch = int(snap.get("epoch", 0))
            chain.rows = dict.fromkeys(tuple(values) for values in snap["tuples"])
            chain.sessions = _sessions_from_snapshot(snap.get("sessions"))
        if not scrub:
            break
    chain.scan = _scan_records(store.read_wal(name))
    rows = chain.rows
    for op, values, meta in chain.scan.ops:
        if op == "+":
            rows[values] = None
        else:
            rows.pop(values, None)
        _replay_session_frame(chain.sessions, op, meta)
    return chain


class _ShardWal:
    """One scheme's append-only WAL file plus its staged-record buffer.

    Staging and draining are coordinated by the owning service's
    locks; this class only knows about bytes and files.  The file
    handle is opened in append mode once and kept; truncation (after a
    snapshot) goes through :func:`os.truncate`, which co-operates with
    ``O_APPEND`` writes.
    """

    __slots__ = (
        "path",
        "io",
        "_file",
        "pending",
        "pending_records",
        "records_since_snapshot",
        "io_lock",
    )

    def __init__(self, path: pathlib.Path, io: StoreIO):
        self.path = path
        self.io = io
        self._file = None
        self.pending: List[bytes] = []
        self.pending_records = 0
        self.records_since_snapshot = 0
        # serializes drain+write+fsync (and truncate) on THIS file;
        # commits of different shards deliberately do not share a lock
        self.io_lock = threading.Lock()

    def _handle(self):
        if self._file is None:
            # unbuffered: one write() syscall per drained blob, and no
            # Python-side buffer sitting between a commit and its fsync
            self._file = open(self.path, "ab", buffering=0)
        return self._file

    def stage(self, record: bytes) -> None:
        self.pending.append(record)
        self.pending_records += 1
        self.records_since_snapshot += 1

    def take_pending(self) -> PyTuple[bytes, int]:
        """Drain the staged buffer (records join the next write in
        stage order — the per-shard WAL order is the apply order)."""
        if not self.pending:
            return b"", 0
        blob = b"".join(self.pending)
        count = self.pending_records
        self.pending = []
        self.pending_records = 0
        return blob, count

    def restage_front(self, blob: bytes, count: int) -> None:
        """Put a drained-but-unwritten blob back at the *front* of the
        buffer (a failed commit must not reorder the shard's history
        behind records staged while it was failing)."""
        self.pending.insert(0, blob)
        self.pending_records += count

    def size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def write(self, blob: bytes, fault: Optional[FaultHook]) -> None:
        """Append a drained blob, exercising the torn-write crash
        point halfway through when a hook is installed."""
        handle = self._handle()
        if fault is not None and len(blob) > 1:
            half = len(blob) // 2
            self.io.wal_write(handle, blob[:half], self.path)
            handle.flush()
            fault("commit.partial")
            self.io.wal_write(handle, blob[half:], self.path)
        else:
            self.io.wal_write(handle, blob, self.path)
        handle.flush()

    def fsync(self) -> None:
        self.io.wal_fsync(self._handle(), self.path)

    def rollback_to(self, size: int) -> None:
        """Best-effort cut back to ``size`` bytes — removes any
        partial append a failed commit left, so a retry (or a later
        probe) re-appends the full blob instead of stacking a corrupt
        half-frame under it."""
        try:
            self._handle().flush()
            if self.size() > size:
                self.io.truncate(self.path, size)
        except OSError:
            # the disk is already misbehaving; recovery's torn-frame
            # handling deals with whatever landed
            pass

    def truncate(self) -> None:
        # _handle() also creates the file when no record was ever
        # appended (a snapshot of an unlogged shard must still leave
        # an empty WAL behind for the next open)
        handle = self._handle()
        handle.flush()
        self.io.truncate(self.path, 0)
        self.records_since_snapshot = 0

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


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
            if exc.status != SHARD_QUARANTINED or not self._manager.has_targets(
                exc.shard
            ):
                raise
            try:
                self.failover(exc.shard)
            except (ReplicationError, ShardQuarantinedError):
                raise exc from None
            return method(self, *args, **kwargs)

    return entry


class DurableShardedService(WindowQueryAPI):
    """A :class:`~repro.weak.sharded.ShardedWeakInstanceService` whose
    state survives restarts: per-shard WAL + snapshots (module
    docstring has the protocol).

    Construct over a directory: an empty or missing directory
    initializes fresh files; an existing one **recovers** — snapshot
    plus WAL-tail replay per shard, then one atomic load, no chase.
    ``auto_commit=True`` (the default, for single-threaded and script
    use) makes every mutation durable before it returns; the
    multi-client server passes ``auto_commit=False`` and drives
    :meth:`commit` itself from its group-commit thread.

    ``replicas`` (paths or :class:`ShardStore` objects) receive every
    fsynced WAL blob and snapshot install, before the commit returns
    when ``sync_ship``; a shard quarantine then fails over to the
    most-caught-up replica (:mod:`repro.weak.replication`).
    """

    DEFAULT_SNAPSHOT_INTERVAL = 4096
    #: snapshot files kept per shard (the newest plus K-1 predecessors
    #: in a rename chain) — the rollback depth of ``repair``
    DEFAULT_SNAPSHOT_GENERATIONS = 3
    #: transient-I/O-error retries before a shard degrades/quarantines
    DEFAULT_IO_RETRIES = 2
    #: first retry backoff in seconds (doubles per attempt)
    DEFAULT_IO_BACKOFF = 0.005
    #: retry jitter as a fraction of each backoff step: the sleep is
    #: ``backoff * 2**attempt * (1 + jitter * U[0,1))`` — without it,
    #: shards that failed together retry together and stampede a
    #: recovering disk in lockstep
    DEFAULT_IO_JITTER = 0.5

    def __init__(
        self,
        schema,
        fds: Union[FDSet, Iterable[FD], str],
        root: Union[str, os.PathLike],
        report: Optional[IndependenceReport] = None,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
        auto_commit: bool = True,
        fault_hook: Optional[FaultHook] = None,
        io: Optional[StoreIO] = None,
        snapshot_generations: int = DEFAULT_SNAPSHOT_GENERATIONS,
        io_retries: int = DEFAULT_IO_RETRIES,
        io_backoff: float = DEFAULT_IO_BACKOFF,
        io_jitter: float = DEFAULT_IO_JITTER,
        rng: Optional[random.Random] = None,
        replicas: Sequence[Union[str, os.PathLike, ShardStore]] = (),
        sync_ship: bool = True,
    ):
        # the manager ships this class's chains, so its module imports
        # this one; importing it here keeps that one-way at load time
        from repro.weak.replication import ReplicationManager

        self.root = pathlib.Path(root)
        self.snapshot_interval = snapshot_interval
        self.auto_commit = auto_commit
        self.fault_hook = fault_hook
        self.io = io if io is not None else StoreIO()
        # labeled like the sharded service's default primary_of()
        self._store = ShardStore(self.root, self.io, label="primary")
        self.snapshot_generations = max(1, snapshot_generations)
        self.io_retries = io_retries
        self.io_backoff = io_backoff
        self.io_jitter = io_jitter
        # injectable so the fault-matrix tests stay reproducible: pass
        # a seeded random.Random (or io_jitter=0) to pin the schedule
        self._rng = rng if rng is not None else random.Random()
        self.stats = DurableServiceStats()
        self._crashed = False
        # lock order (outer to inner): shard lock -> _io_lock -> _stage_lock;
        # _commit_cond shares _stage_lock's mutex domain via its own lock
        self._io_lock = threading.RLock()
        self._stage_lock = threading.Lock()
        self._commit_cond = threading.Condition()
        self._staged_gen = 0
        self._committed_gen = -1
        self._dirty: List[str] = []
        self.sync_ship = sync_ship
        # exists before recovery: a rolled-forward shard's snapshot
        # ships its install
        self._manager = ReplicationManager(self, replicas, sync=sync_ship)
        manifest = self._read_manifest()
        epoch = int(manifest.get("epoch", 0)) if manifest else 0
        if epoch > 0 and manifest.get("schema"):
            # the store evolved past the catalog it was created with:
            # the manifest's schema + FDs are authoritative (the
            # constructor's schema only names the original epoch)
            evolved = _schema_from_json(manifest["schema"])
            evolved_fds = _fds_from_json(manifest.get("fds", []))
            if evolved != schema or evolved_fds != as_fdset(fds):
                schema, fds, report = evolved, evolved_fds, None
        self._inner = ShardedWeakInstanceService(
            schema, fds, report=report, stats=self.stats
        )
        self._inner.schema_version = epoch
        names = sorted(self._inner.shard_names())
        if manifest is not None and sorted(manifest.get("schemes", [])) != names:
            raise ReproError(
                f"durable directory {self.root} was written for schemes "
                f"{manifest.get('schemes')}, not {names}"
            )
        # a migrated-in scheme's directory may not exist yet (crash
        # between manifest commit and finalize): attaching creates it
        for shard in self._inner._shards.values():
            _attach(shard, self._store)
        if manifest is None:
            self._write_manifest(self.schema, self.fds, 0)
            return
        self._recover()
        # a shard that opened with no readable chain at all can be
        # rebuilt from a replica right now instead of waiting for the
        # first write to trip over it
        void = [n for n in names if self._inner._shards[n].void]
        for name in filter(self._manager.has_targets, void):
            try:
                self.failover(name)
            except (ReplicationError, ShardQuarantinedError) as exc:
                _log.warning(
                    "startup failover of void shard %s failed: %s",
                    name, exc,
                )

    @property
    def schema(self) -> DatabaseSchema:
        return self._inner.schema

    @property
    def fds(self) -> FDSet:
        return self._inner.fds

    @property
    def report(self) -> IndependenceReport:
        return self._inner.report

    # -- layout and recovery ----------------------------------------------------

    def shard_store(self, name: str) -> ShardStore:
        """The store holding one shard's chain: the service's own, or
        a promoted replica's after a failover (a name with no shard —
        a retired scheme — maps to the service's own)."""
        shard = self._inner._shards.get(name)
        return self._store if shard is None else shard.store

    def wal_path(self, name: str) -> pathlib.Path:
        return self.shard_store(name).wal_path(name)

    def snapshot_path(self, name: str, generation: int = 0) -> pathlib.Path:
        return self.shard_store(name).snapshot_path(name, generation)

    def _write_manifest(
        self, schema: DatabaseSchema, fds: FDSet, epoch: int
    ) -> None:
        """Rewrite the manifest atomically (tmp + rename).  For an
        evolution this replace IS the commit point: before it the store
        recovers the old epoch, after it the new one."""
        names = sorted(s.name for s in schema)
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "format": _FORMAT,
                    "schemes": names,
                    "epoch": epoch,
                    "schema": _schema_to_json(schema),
                    "fds": _fds_to_json(fds),
                },
                indent=2,
            )
        )
        self.io.replace(tmp, self.root / MANIFEST_NAME)

    def _read_manifest(self) -> Optional[Dict[str, object]]:
        """The store's manifest, or ``None`` for a fresh directory."""
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise ReproError(
                f"corrupt durable manifest {path}: {exc}; run "
                f"`repro verify-store {self.root}` to inspect the store"
            ) from None
        if manifest.get("format") != _FORMAT:
            raise ReproError(
                f"unsupported durable format {manifest.get('format')!r} "
                f"in {self.root}"
            )
        return manifest

    def _read_chain(self, name: str, store: ShardStore) -> ShardChain:
        """:func:`read_chain`, plus logging and counting a snapshot
        fallback and mid-file WAL corruption, and cutting the WAL back
        to its intact prefix (appends after a bad tail would be lost)."""
        chain = read_chain(store, name, self.snapshot_generations)
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
        (a fresh shard build that re-validates the rows and leaves the
        tableau to the bulk kernel's lazy re-chase)."""
        shard = self._inner._shard(name)
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
        :meth:`~repro.weak.sharded.ShardedWeakInstanceService.load`
        that follows builds the shard indexes, and every tableau is
        rebuilt lazily by the bulk kernel when first queried — the
        recovery path never chases.  A shard whose newest snapshot is
        corrupt falls back to the next good generation (logged and
        counted — acknowledged records may roll back, which beats the
        alternative of not opening at all); a shard with *no* good
        generation but corrupt ones opens quarantined and void, for
        ``repair`` or a failover.

        On an evolved store, shards whose snapshot predates the
        manifest epoch are **rolled forward** first
        (:meth:`_roll_forward`), then snapshotted at the new epoch and
        the retired source directories removed — the finalize the
        crashed evolution never completed.
        """
        chains = {
            name: self._read_chain(name, shard.store)
            for name, shard in self._inner._shards.items()
        }
        rolled: Dict[str, List[Dict[str, object]]] = {}
        log = self.root / SCHEMA_LOG_NAME
        if self.schema_version > 0 and log.exists():
            # the newest schema.log record is the evolution to finish
            records, _good = _schema_log_records(self.io.read_bytes(log))
            if records and int(records[-1].get("epoch", 0)) == self.schema_version:
                rolled = self._roll_forward(records[-1], chains)
        relations: Dict[str, List[Dict[str, object]]] = {}
        for name, shard in self._inner._shards.items():
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
            self._inner.load(DatabaseState(self.schema, relations))
        # finalize an interrupted evolution: epoch-stamped snapshots for
        # the rolled-forward shards first, retired directories last (the
        # same write order the crashed evolve was following)
        for name in sorted(rolled):
            self._snapshot_locked(name)
        shards_root = self._store.shards_root
        if self.schema_version > 0 and shards_root.is_dir():
            for child in sorted(shards_root.iterdir()):
                if child.is_dir() and child.name not in self._inner._shards:
                    shutil.rmtree(child, ignore_errors=True)

    # -- crash discipline and per-shard health -----------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _ensure_open(self) -> None:
        if self._crashed:
            raise DurableUnavailableError(
                "durable service crashed; re-open the directory with a "
                "fresh DurableShardedService"
            )

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _latch_crash(self) -> None:
        self._crashed = True
        with self._commit_cond:
            self._commit_cond.notify_all()

    def shard_status(self, name: str) -> str:
        """One shard's health state (:data:`SHARD_SERVING` /
        :data:`SHARD_DEGRADED` / :data:`SHARD_QUARANTINED` /
        :data:`SHARD_REPAIRING`)."""
        return self._inner._shard(name).status

    def health(self) -> Dict[str, object]:
        """The sharded service's health surface, with ``crashed`` as
        the overall status once the service crashed, plus replication
        lag."""
        report = self._inner.health()
        if self._crashed:
            report["status"] = "crashed"
        report["replication"] = self.replication_status()
        return report

    def _set_status(self, name: str, status: str, reason: str = "") -> None:
        previous = self._inner.set_status(name, status, reason)
        if status != previous:
            if status == SHARD_QUARANTINED:
                self.stats.shards_quarantined += 1
            elif status == SHARD_DEGRADED:
                self.stats.shards_degraded += 1
            elif status == SHARD_SERVING and previous in (
                SHARD_DEGRADED, SHARD_QUARANTINED, SHARD_REPAIRING
            ):
                self.stats.shards_recovered += 1

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
        shard = self._inner._shard(name)
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
        shard = self._inner._shard(name)
        with shard.lock:
            if shard.status != SHARD_DEGRADED:
                return shard.status == SHARD_SERVING
            try:
                self._commit_wal(name, shard.wal)
            except ShardQuarantinedError:
                return False
            self._set_status(name, SHARD_SERVING)
            _log.info("shard %s recovered by probe (backlog flushed)", name)
            return True

    # -- staging and group commit ------------------------------------------------

    def shard_lock(self, name: str) -> threading.RLock:
        """The lock serializing writes (and snapshot reads) of one
        shard — the front end's per-shard write discipline."""
        return self._inner.shard_lock(name)

    def _stage(self, shard: _SchemeShard, record: bytes) -> int:
        """Buffer one encoded record for the next group commit;
        returns the commit ticket that will cover it.  Caller holds
        the shard lock, so per-shard WAL order is apply order."""
        with self._stage_lock:
            wal = shard.wal
            if not wal.pending:
                self._dirty.append(shard.name)
            wal.stage(record)
            self.stats.wal_records_appended += 1
            return self._staged_gen

    def _commit_wal(self, name: str, wal: _ShardWal) -> PyTuple[int, int]:
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
                    if attempt >= self.io_retries:
                        # back to the front of the buffer, re-marked
                        # dirty: a probe, repair, or the next commit
                        # sees it (nothing acknowledged is ever dropped
                        # from memory while the shard is sick)
                        with self._stage_lock:
                            wal.restage_front(blob, count)
                            if name not in self._dirty:
                                self._dirty.append(name)
                        raise self._shard_fault(name, exc) from exc
                    self.stats.io_retries += 1
                    # jittered exponential backoff: shards that failed
                    # together must not retry in lockstep against the
                    # same recovering disk (satellite of PR 10)
                    time.sleep(
                        self.io_backoff
                        * (2 ** attempt)
                        * (1.0 + self.io_jitter * self._rng.random())
                    )
                    attempt += 1
            if attempt:
                # the disk answered again: a degraded shard that just
                # flushed its backlog through here is healthy
                _log.info("shard %s WAL commit succeeded after %d retr%s",
                          name, attempt, "y" if attempt == 1 else "ies")
            self.stats.wal_fsyncs += 1
            # ship while still holding the WAL's I/O lock: frames reach
            # every replica in exactly WAL order, and (sync mode) before
            # the covering tickets release — acked ⟹ durable-on-quorum
            if self._manager.has_targets(name):
                self._fault("ship.begin")
                self._manager.ship(name, blob, start, count)
            self._fault("commit.post-fsync")
        return len(blob), count

    @_fails_over
    def commit(self) -> Optional[int]:
        """Global group commit: write and fsync every staged record,
        then release the covered tickets.  Returns the committed
        generation (``None`` when nothing was staged).  Serialized
        against other global commits and snapshots by the global I/O
        lock, and against per-shard :meth:`commit_shards` calls by
        each WAL's own I/O lock — a WAL drained by a concurrent
        per-shard commit is re-visited here only to synchronize on its
        lock (empty drain), which is exactly what makes the returned
        generation mean *durable* rather than merely *drained*.
        Staging continues concurrently and lands in the next
        generation.
        """
        self._ensure_open()
        try:
            with self._io_lock:
                with self._stage_lock:
                    # a name may have been retired by a concurrent
                    # evolution's finalize — its records are already
                    # superseded by the migrated epoch-stamped snapshot
                    dirty = [n for n in self._dirty if n in self._inner._shards]
                    self._dirty = []
                    gen = self._staged_gen
                    if dirty:
                        self._staged_gen += 1
                if not dirty:
                    return None
                failure = self._commit_wals(dirty)
        except BaseException:
            self._latch_crash()
            raise
        with self._commit_cond:
            self._committed_gen = gen
            self._commit_cond.notify_all()
        if failure is not None:
            # raised only after the healthy shards' records are durable
            # and their waiters released; callers on the sick shard must
            # treat their operation as not-durable (quarantine supersedes
            # the ticket: the server acks per shard, never through this)
            raise failure
        return gen

    @_fails_over
    def commit_shards(self, names: Iterable[str]) -> None:
        """Per-shard synchronous commit: drain, write, and fsync the
        named shards' staged records in the *calling* thread.  When it
        returns, every record staged on these shards before the call
        is durable (written by this call, or by whichever concurrent
        committer beat it to the WAL's I/O lock).

        This is the independence argument applied to the log itself:
        Theorem 3 says no cross-shard invariant constrains the
        interleaving, so shards need no global commit order and no
        shared committer — workers of the front end commit the shards
        they own concurrently, overlapping their fsyncs."""
        self._ensure_open()
        try:
            failure = self._commit_wals(sorted(set(names)))
        except BaseException:
            self._latch_crash()
            raise
        if failure is not None:
            raise failure

    def _commit_wals(self, names: Iterable[str]) -> Optional[ShardQuarantinedError]:
        """Commit each named shard's WAL; returns the first shard's
        error for the caller to raise after every other shard committed
        (the failure domain is the shard).  A name retired by an
        evolution is skipped: the new epoch's snapshot holds its data."""
        written = 0
        records = 0
        failure: Optional[ShardQuarantinedError] = None
        for name in names:
            shard = self._inner._shards.get(name)
            if shard is None:
                continue
            try:
                wrote, count = self._commit_wal(name, shard.wal)
            except ShardQuarantinedError as exc:
                failure = failure if failure is not None else exc
                continue
            written += wrote
            records += count
        if records:
            self.stats.wal_commits += 1
            self.stats.wal_bytes_written += written
        return failure

    def wait_durable(self, ticket: int, timeout: Optional[float] = None) -> bool:
        """Block until the group commit covering ``ticket`` has fsynced
        (returns ``True``), the service crashes
        (:class:`DurableUnavailableError`), or the timeout elapses
        (returns ``False``).  Callers must not hold shard locks —
        waiting is what lets other writers fill the next batch."""
        with self._commit_cond:
            while self._committed_gen < ticket and not self._crashed:
                if not self._commit_cond.wait(timeout):
                    return False
        if self._committed_gen < ticket:
            raise DurableUnavailableError(
                "durable service crashed before the commit completed"
            )
        return True

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
        names = [name] if name is not None else sorted(self._inner._shards)
        for shard_name in names:
            with self._inner.shard_lock(shard_name):
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
                    self._latch_crash()
                    raise

    def _snapshot_locked(self, name: str) -> None:
        shard = self._inner._shard(name)
        rows = [list(t.values) for t in shard.relation()]
        self._fault("snapshot.begin")
        payload = _snapshot_payload(
            name,
            shard.scheme.attributes.names,
            rows,
            self._inner.schema_version,
            sessions=_sessions_to_snapshot(shard.sessions)
            if shard.sessions
            else None,
        )
        with self._io_lock:
            shard.store.write_snapshot(
                name, payload, self.snapshot_generations, self._fault
            )
            self._fault("snapshot.installed")
            with shard.wal.io_lock:  # no commit may write between snapshot and cut
                shard.wal.truncate()
                # replicas must see the same install+truncate, or their
                # chains diverge at the next shipped frame (base offset
                # restarts at zero); still under the WAL's I/O lock so
                # no frame can interleave between truncate and ship
                if self._manager.has_targets(name):
                    self._manager.ship_snapshot(name, payload)
            self.stats.snapshots_written += 1
            self._fault("snapshot.done")

    def maybe_snapshot(self, names: Optional[Iterable[str]] = None) -> None:
        """Snapshot every shard (or just ``names``) whose WAL has
        outgrown ``snapshot_interval`` records since its last
        snapshot.  Non-serving shards are skipped — their snapshot
        happens when a probe or ``repair`` heals them — and so are
        names an evolution retired (the new epoch's snapshot holds
        their rows, exactly as :meth:`_commit_wals` skips them)."""
        shards = self._inner._shards
        for name in (shards if names is None else set(names)):
            shard = shards.get(name)
            if (
                shard is not None
                and shard.status == SHARD_SERVING
                and shard.wal.records_since_snapshot >= self.snapshot_interval
            ):
                self.snapshot(name)

    # -- mutations ---------------------------------------------------------------

    def _session_hit(
        self, shard: _SchemeShard, kind: str, session: PyTuple[str, int], t
    ):
        """Exactly-once gate, under the shard lock (``t`` is the
        submission's coerced tuple).  Returns the
        original ``(outcome, ticket)`` for a duplicate of the
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
                accepted=True, scheme=shard.name, tuple=t,
                method=self._inner.method,
            )
        return result, entry.get("ticket")

    @_fails_over
    def apply_insert(
        self, scheme_name: str, row, session: Optional[PyTuple[str, int]] = None
    ) -> PyTuple[InsertOutcome, Optional[int]]:
        """Validate, apply, and stage one insert; returns the outcome
        plus the commit ticket (``None`` for rejected or duplicate
        inserts, which stage nothing).  The durability building block
        the front end batches; direct callers want :meth:`insert`.

        ``session`` is an exactly-once stamp ``(session_id, seq)``: a
        duplicate of the session's recorded operation returns the
        original outcome without re-applying, the stamp rides in the
        WAL frame (and snapshot), so the guarantee survives restarts
        and failovers."""
        return self._apply("+", scheme_name, row, session)

    @_fails_over
    def apply_delete(
        self, scheme_name: str, row, session: Optional[PyTuple[str, int]] = None
    ) -> PyTuple[bool, Optional[int]]:
        """Apply and stage one delete; ticket is ``None`` when the
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
            record = _encode_record(kind, t.values, meta)
            # pass the coerced tuple through: Tuple rows skip the inner
            # service's re-coercion, which matters on the hot path
            if kind == "+":
                result = self._inner.insert(scheme_name, t)
                effectful = result.accepted and not result.reason
            else:
                result = effectful = self._inner.delete(scheme_name, t)
            ticket = self._stage(shard, record) if effectful else None
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
                    "ticket": ticket,
                }
        return result, ticket

    def _finish(
        self, ticket: Optional[int], scheme_name: Optional[str] = None
    ) -> None:
        if ticket is None:
            return
        if self.auto_commit:
            if scheme_name is None:
                self.commit()
                self.maybe_snapshot()
            else:
                # single-shard op: commit only its own WAL, so another
                # shard's quarantined backlog (restaged, still dirty)
                # can never fail this shard's acknowledgment
                self.commit_shards([scheme_name])
                self.maybe_snapshot([scheme_name])
        else:
            self.wait_durable(ticket)

    def insert(
        self, scheme_name: str, row, session: Optional[PyTuple[str, int]] = None
    ) -> InsertOutcome:
        """Insert, durable before returning (see ``auto_commit``)."""
        outcome, ticket = self.apply_insert(scheme_name, row, session=session)
        self._finish(ticket, scheme_name)
        return outcome

    def delete(
        self, scheme_name: str, row, session: Optional[PyTuple[str, int]] = None
    ) -> bool:
        """Delete, durable before returning (see ``auto_commit``)."""
        existed, ticket = self.apply_delete(scheme_name, row, session=session)
        self._finish(ticket, scheme_name)
        return existed

    @_fails_over
    def apply_insert_many(
        self, ops: Iterable[PyTuple[str, object]]
    ) -> PyTuple[List[InsertOutcome], Optional[int]]:
        """Batch insert: one fixpoint drive per touched shard (the
        inner service's batching), every accepted row staged under one
        ticket — the amortization the front end's group-commit loop
        rides.  Returns the outcomes plus the covering ticket
        (``None`` when nothing fresh was accepted)."""
        self._ensure_open()
        ops = [(name, row) for name, row in ops]
        ticket: Optional[int] = None
        # gate every touched shard before anything applies: a batch
        # containing a quarantined shard fails whole and clean, so the
        # front end can retry it minus the sick shard's operations
        shards = {
            name: self._check_writable(name)
            for name in sorted({name for name, _ in ops})
        }
        with ExitStack() as stack:
            for shard in shards.values():
                stack.enter_context(shard.lock)
            coerced = [
                (name, shards[name].checker.coerce_tuple(name, row))
                for name, row in ops
            ]
            records = [_encode_record("+", t.values) for _, t in coerced]
            outcomes = self._inner.insert_many(coerced)
            for (name, _), record, outcome in zip(coerced, records, outcomes):
                if outcome.accepted and not outcome.reason:
                    ticket = self._stage(shards[name], record)
        return outcomes, ticket

    def insert_many(self, ops: Iterable[PyTuple[str, object]]) -> List[InsertOutcome]:
        """Batch insert, durable before returning (see ``auto_commit``)."""
        outcomes, ticket = self.apply_insert_many(ops)
        self._finish(ticket)
        return outcomes

    def load(self, state: DatabaseState) -> None:
        """Durable bulk load: apply atomically, then snapshot every
        shard — bulk ingests skip the WAL entirely (one snapshot is
        cheaper and the load is already atomic on disk once every
        shard's snapshot is installed)."""
        self._ensure_open()
        shards = self._inner._shards
        with ExitStack() as stack:
            for name in sorted(shards):
                stack.enter_context(shards[name].lock)
            self._inner.load(state)
            for name in sorted(shards):
                self.commit()
                try:
                    self._snapshot_locked(name)
                except BaseException:
                    self._latch_crash()
                    raise

    # -- schema evolution --------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The current schema epoch (0 until the first evolution)."""
        return self._inner.schema_version

    def migration_status(self) -> Dict[str, object]:
        return self._inner.migration_status()

    def evolve(self, op: EvolutionOp, during=None) -> EvolutionResult:
        """Apply one schema evolution, durably, with zero downtime for
        unaffected shards (module docstring: *Schema evolution*).

        The inner service runs the online migration protocol; this
        layer contributes the commit point (``schema.log`` append +
        fsync, then the atomic manifest replace) through the
        ``pre_commit`` seam — it fires after the re-check, rebuild, and
        journal replay all succeeded, so nothing reaches disk for a
        rejected evolution — and the finalize step afterwards:
        a store and WAL attached to every added scheme's shard,
        epoch-stamped snapshots for every rebuilt shard, retired shards
        closed and their directories removed last.  A crash anywhere in
        between is recovered by :meth:`_recover`'s roll-forward.

        Raises :class:`~repro.exceptions.EvolutionRejectedError` (old
        epoch fully intact, still serving) on a refused evolution, and
        :class:`~repro.exceptions.ShardQuarantinedError` when any shard
        is not serving — migration needs every failure domain healthy.
        """
        self._ensure_open()
        before = dict(self._inner._shards)
        for name, shard in sorted(before.items()):
            if shard.status != SHARD_SERVING:
                raise ShardQuarantinedError(name, shard.status, shard.error)
        # flush the staged backlog first: the migration captures shard
        # state, and everything acknowledged must be on disk before the
        # old epoch's WALs stop being authoritative
        self.commit()

        def pre_commit(new_schema, new_fds, _new_report) -> None:
            epoch = self._inner.schema_version + 1
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
            # the commit point: after this replace, recovery rolls
            # forward to the new epoch; before it, the old epoch wins
            self._write_manifest(new_schema, new_fds, epoch)
            self.io.dir_fsync(self.root)
            self._fault("evolve.manifest")

        # the mid-migration window's writes must go through THIS layer:
        # handing the caller the inner service would acknowledge writes
        # that never reach a WAL — durable for the journal replay, lost
        # on the next restart
        try:
            result = self._inner.evolve(
                op,
                during=None if during is None else lambda _inner: during(self),
                hook=self._fault,
                pre_commit=pre_commit,
            )
        except EvolutionRejectedError:
            raise  # clean refusal: nothing written, old epoch serving
        except BaseException:
            # an injected crash, an I/O failure in the commit point, or
            # anything unexpected mid-migration: the global catalog is
            # suspect, so the whole-service crash latch applies (reopen
            # recovers whichever epoch the manifest names)
            self._latch_crash()
            raise
        try:
            self._finalize_evolution(result, before)
        except BaseException:
            self._latch_crash()
            raise
        return result

    def _finalize_evolution(
        self, result: EvolutionResult, before: Dict[str, _SchemeShard]
    ) -> None:
        """Post-commit disk reshaping, in crash-safe order: attach new
        shards to the store, snapshot every rebuilt shard at the new
        epoch (truncating its old-epoch WAL), and only then close and
        remove the shards of ``before`` the evolution retired — so
        recovery always still has the sources it would need to
        re-derive an unsnapshotted migrated shard."""
        shards = self._inner._shards
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
            self._drop_staged(name, shard.wal)
            shard.wal.close()
            shutil.rmtree(shard.store.shard_dir(name), ignore_errors=True)
        self._fault("evolve.done")

    def _drop_staged(self, name: str, wal: _ShardWal) -> int:
        """Discard a shard's staged, not yet written records; returns
        how many.  Callers either persist the in-memory state another
        way (a snapshot) or drop an unacknowledged suffix on purpose."""
        with self._stage_lock:
            _, dropped = wal.take_pending()
            if name in self._dirty:
                self._dirty.remove(name)
        return dropped

    # -- self-healing ------------------------------------------------------------

    def repair(self, name: str) -> Dict[str, object]:
        """Heal one shard online: roll back to the newest good
        snapshot generation, replay the WAL's intact tail, bulk-load
        the result into a fresh shard (re-validated and re-chased
        lazily through the bulk kernel), write a clean snapshot, and
        return the shard to serving.  Every other shard keeps serving
        throughout — repair holds only this shard's lock.

        Returns a report dict (generation used, rows recovered, WAL
        records replayed, corruption counters).  Raises
        :class:`~repro.exceptions.ShardQuarantinedError` if the disk
        still refuses the clean snapshot (the shard stays quarantined)
        and :class:`ReproError` if no snapshot generation is readable
        but corrupt ones exist."""
        self._ensure_open()
        shard = self._inner._shard(name)
        with shard.lock:
            previous = shard.status
            self._set_status(name, SHARD_REPAIRING, shard.error)
            try:
                with shard.wal.io_lock:
                    # in-memory backlog is unacknowledged by definition
                    # (an acked record is fsynced): dropping it is the
                    # legal suffix loss
                    dropped = self._drop_staged(name, shard.wal)
                    chain = self._read_chain(name, shard.store)
                    if chain.void:
                        raise ReproError(
                            f"shard {name!r}: no readable snapshot "
                            f"generation ({chain.bad_generations} corrupt); "
                            f"restore one from backup, then repair again"
                        )
                    self._inner.reload_shard(name, self._adopt_chain(name, chain))
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
        read and bulk-loaded through :meth:`~repro.weak.sharded.
        ShardedWeakInstanceService.reload_shard` (lazy bulk-kernel
        re-chase), session table included.  Either way the shard ends
        SERVING on the replica's files, the planner re-routes, the
        replication epoch bumps, and the demoted store is remembered
        for :meth:`rejoin`.

        Raises :class:`~repro.exceptions.NoPromotableReplicaError`
        (shard state untouched) when no replica has a readable chain."""
        self._ensure_open()
        shard = self._inner._shard(name)
        with shard.lock:
            was_void = shard.void
            with shard.wal.io_lock:
                self._fault("failover.begin")
                promoted = self._manager.promote(name, label)
                # the staged backlog is applied in memory; the post-swap
                # snapshot below persists it (void shards have no
                # backlog — they refused every write)
                self._drop_staged(name, shard.wal)
                shard.wal.close()
                demoted = shard.store
                _attach(shard, promoted.store)
                shard.demoted = demoted
            replayed = 0
            if was_void:
                chain = self._read_chain(name, shard.store)
                self._inner.reload_shard(name, self._adopt_chain(name, chain))
                replayed = len(chain.scan.ops)
                shard.void = False
            epoch = self._manager.bump_epoch(name)
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
        shard = self._inner._shard(name)
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
                self._manager.add_target(name, store)
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
        return {
            "mode": "sync" if self.sync_ship else "async",
            "shards": {
                name: {
                    "epoch": self._manager.epochs.get(name, 0),
                    "replicas": self._manager.lag(name),
                    "primary": self._inner.primary_of(name),
                }
                for name in sorted(self._inner._shards)
            },
        }

    # -- reads and delegation ----------------------------------------------------

    @_fails_over
    def window(self, attrset, version: Optional[int] = None):
        self._ensure_open()
        return self._inner.window(attrset, version=version)

    @_fails_over
    def query(self, query, version: Optional[int] = None):
        """Relational query against the inner sharded service (its
        engine, its routing, its epoch- and version-stamped caches).
        ``version`` pins a retained schema epoch (in-memory only: a
        reopened store retains no retired epochs)."""
        self._ensure_open()
        return self._inner.query(query, version=version)

    def explain(self, query):
        self._ensure_open()
        return self._inner.explain(query)

    def representative(self):
        self._ensure_open()
        return self._inner.representative()

    def state(self) -> DatabaseState:
        return self._inner.state()

    def total_tuples(self) -> int:
        return self._inner.total_tuples()

    def shard_names(self) -> PyTuple[str, ...]:
        return self._inner.shard_names()

    def maintenance_cover(self, scheme_name: str):
        return self._inner.maintenance_cover(scheme_name)

    @property
    def method(self) -> str:
        return self._inner.method

    @property
    def live(self) -> bool:
        return self._inner.live

    @property
    def inner(self) -> ShardedWeakInstanceService:
        """The wrapped in-memory service (reads bypass the durability
        layer anyway; exposed for the front end and tests)."""
        return self._inner

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Commit anything staged, close the WAL files, and let the
        async shipper drain (idempotent; a crashed instance just closes
        its files, and a sick shard's backlog stays on its disk problem
        — best-effort flush)."""
        if not self._crashed:
            try:
                self.commit()
            except ShardQuarantinedError:
                pass  # healthy shards committed; the sick one cannot
        for shard in self._inner._shards.values():
            if shard.wal is not None:  # None: a crash before finalize attached it
                shard.wal.close()
        self._manager.flush()
        self._manager.stop()

    def __enter__(self) -> "DurableShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        staged = sum(
            s.wal.pending_records for s in self._inner._shards.values() if s.wal
        )
        return (
            f"DurableShardedService<root={str(self.root)!r}, "
            f"tuples={self.total_tuples()}, "
            f"staged={staged}, "
            f"crashed={self._crashed}>"
        )


# -- offline scrubbing ------------------------------------------------------------


def _scrub_shard(
    store: ShardStore, name: str
) -> PyTuple[Dict[str, object], Optional[ShardChain]]:
    """Scrub one shard chain offline — every snapshot generation's
    structure and CRC, every WAL frame, a stray tmp file — for
    :func:`verify_store`.  Returns the report entry and the chain
    (``None`` when the directory is missing or the WAL unreadable)."""
    entry: Dict[str, object] = {"snapshots": [], "wal_records": 0, "findings": []}
    findings: List[str] = entry["findings"]
    directory = store.shard_dir(name)
    if not directory.is_dir():
        entry["missing"] = True
        return entry, None
    if (directory / _SNAPSHOT_TMP).exists():
        entry["stray_tmp"] = True
    try:
        chain = read_chain(store, name, scrub=True)
    except OSError as exc:
        findings.append(f"WAL unreadable: {exc}")
        return entry, None
    entry["snapshots"] = chain.snapshots
    findings.extend(
        f"snapshot generation {e['generation']}: {e['error']}"
        for e in chain.snapshots if not e["ok"]
    )
    entry["generation"] = chain.generation
    entry["rows"] = len(chain.rows)
    scan = chain.scan
    entry["wal_records"] = len(scan.ops)
    if scan.corrupt:
        entry["wal_corrupt_regions"] = scan.corrupt_regions
        entry["wal_stranded_records"] = scan.stranded_records
        findings.append(
            f"WAL mid-file corruption: {scan.corrupt_regions} bad "
            f"region(s), {scan.stranded_records} intact record(s) "
            f"stranded, {scan.tail_bytes} byte(s) beyond the trusted prefix"
        )
    elif scan.tail_bytes:
        # expected crash residue: reported, not a failure
        entry["wal_torn_tail_bytes"] = scan.tail_bytes
    return entry, chain


def verify_store(
    root: Union[str, os.PathLike],
    replicas: Sequence[Union[str, os.PathLike]] = (),
) -> Dict[str, object]:
    """Walk a durable directory offline — CRCs of every WAL frame,
    every snapshot generation's structure and CRC, stray tmp files —
    without opening a service (no schema needed, no locks taken, no
    bytes modified).  The ``repro verify-store`` command prints this.

    ``replicas`` are replica store roots (the ``--replica`` flags):
    each replica's chains are scrubbed by the same code, and every
    replica WAL's frame-CRC sequence is cross-checked against the
    primary's.  A replica that holds a *prefix* of the primary's
    frames (or the reverse, after a primary snapshot-truncation the
    replica has not installed yet) is merely behind — reported, not a
    failure; **divergence** (neither sequence a prefix of the other)
    is a finding.  A replica missing a shard directory has never
    received that shard: all behind, not damaged.

    Returns a report dict: ``ok`` is ``True`` iff nothing worse than a
    torn WAL tail (the expected residue of a crash) was found; each
    shard entry lists its findings.  Raises :class:`ReproError` when
    the directory is not a durable store at all."""
    root = pathlib.Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise ReproError(f"{root} is not a durable store (no {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        return {
            "root": str(root),
            "ok": False,
            "findings": [f"corrupt manifest: {exc}"],
            "shards": {},
        }
    findings: List[str] = []
    if manifest.get("format") != _FORMAT:
        findings.append(f"unsupported format {manifest.get('format')!r}")
    epoch = int(manifest.get("epoch", 0))
    schema_log: Dict[str, object] = {"records": 0}
    pending_rollforward: set = set()
    log_path = root / SCHEMA_LOG_NAME
    if log_path.exists():
        try:
            records, good = _schema_log_records(log_path.read_bytes())
        except OSError as exc:
            findings.append(f"schema.log unreadable: {exc}")
        else:
            schema_log["records"] = len(records)
            tail = log_path.stat().st_size - good
            if tail:
                schema_log["torn_tail_bytes"] = tail
            if records:
                last = records[-1]
                try:
                    last_epoch = int(last.get("epoch", 0))
                except (TypeError, ValueError):
                    findings.append("schema.log: unparsable last record")
                    last_epoch = None
                if last_epoch is not None and last_epoch < epoch:
                    findings.append(
                        f"schema.log ends at epoch {last_epoch} but the "
                        f"manifest names epoch {epoch}"
                    )
                if last_epoch is not None and last_epoch == epoch:
                    # a crash between the manifest replace and the
                    # finalize step leaves migrated-in schemes without
                    # directories yet; recovery rolls them forward, so
                    # a missing dir for exactly those schemes is
                    # expected crash residue, not damage
                    try:
                        new_names = {s[0] for s in last.get("schema", [])}
                        old_names = {
                            s[0] for s in last.get("old_schema", [])
                        }
                        pending_rollforward = new_names - old_names
                    except (TypeError, IndexError):
                        pending_rollforward = set()
    elif epoch > 0:
        findings.append(
            f"manifest names epoch {epoch} but there is no {SCHEMA_LOG_NAME}"
        )
    names = sorted(manifest.get("schemes", []))
    primary = ShardStore(root)
    shards: Dict[str, Dict[str, object]] = {}
    crcs: Dict[str, List[int]] = {}
    ok = not findings
    for name in names:
        entry, chain = _scrub_shard(primary, name)
        crcs[name] = chain.scan.crcs if chain is not None else []
        if entry.pop("missing", False):
            if name in pending_rollforward:
                entry["pending_rollforward"] = True
            else:
                entry["findings"].append("shard directory missing")
        if entry["findings"]:
            ok = False
        shards[name] = entry
    replica_reports: Dict[str, Dict[str, object]] = {}
    for replica_root in replicas:
        store = ShardStore(replica_root)
        rep: Dict[str, object] = {"shards": {}, "findings": []}
        for name in names:
            entry, chain = _scrub_shard(store, name)
            rep["shards"][name] = entry
            if entry.get("missing"):
                continue
            replica_crcs = chain.scan.crcs if chain is not None else []
            primary_crcs = crcs[name]
            shorter = min(len(replica_crcs), len(primary_crcs))
            if replica_crcs[:shorter] != primary_crcs[:shorter]:
                entry["findings"].append(
                    "WAL frame CRCs diverge from the primary's (neither "
                    "chain is a prefix of the other)"
                )
            elif len(replica_crcs) < len(primary_crcs):
                entry["lag_frames"] = len(primary_crcs) - len(replica_crcs)
            elif len(replica_crcs) > len(primary_crcs):
                # primary truncated by a snapshot the replica has not
                # installed yet: stale, anti-entropy rejoin fixes it
                entry["stale_frames"] = len(replica_crcs) - len(primary_crcs)
            if entry["findings"]:
                rep["findings"].append(f"shard {name}: damaged or divergent")
                ok = False
        replica_reports[str(replica_root)] = rep
    report: Dict[str, object] = {
        "root": str(root),
        "ok": ok,
        "findings": findings,
        "epoch": epoch,
        "schema_log": schema_log,
        "shards": shards,
    }
    if replica_reports:
        report["replicas"] = replica_reports
    return report
