"""The on-disk side of a shard's log: per-shard write-ahead logs and
snapshots, their format, and the one chain reader.

Everything :mod:`repro.weak.service` serves lives in process memory.
Given a ``root`` directory,
:class:`~repro.weak.sharded.ShardedWeakInstanceService` keeps every
shard's state on disk as well, on the same independence argument as
the sharding itself (Theorem 3): because every scheme's updates are
validated and applied against that scheme alone, each shard can own an
**independent write-ahead log** — there is no cross-shard transaction
whose atomicity a global log would have to protect.  The service runs
the protocol; this module holds what it writes and reads.  Concretely:

* **WAL.**  Every accepted, non-duplicate insert or delete appends one
  CRC-framed record (``[u32 length][u32 crc32][JSON payload]``) to its
  scheme's append-only ``wal.log``.  Records are *staged* in memory
  and written by **per-shard group commit**, the only commit path:
  ``commit_shards`` writes each named shard's staged records and
  fsyncs once per shard, so writers of one shard share fsyncs.  An
  operation is durable once a commit of its shard returns.  The shards
  being independent, there is no global commit order to protect
  (``commit`` is just every shard): each WAL is serialized by its own
  I/O lock, and callers owning disjoint shards overlap their fsyncs
  (which release the GIL) — the multi-worker front end's throughput
  scaling.
* **Snapshots.**  Periodically (every ``snapshot_interval`` WAL
  records per shard, or on demand) a shard's full relation is written
  to ``snapshot.json`` — tmp file, ``fsync``, atomic rename, directory
  ``fsync`` — and the WAL is truncated.  The frame holds the rows, the
  epoch and the session table (whose marks the truncation would
  lose).  The snapshot is taken with the shard's pending records
  committed first (under the shard lock), so every operation a
  snapshot reflects is also on disk; records a crash loses are
  therefore always a *suffix* of the shard's history, which is what
  makes replay-over-snapshot idempotent (set-semantics inserts and
  deletes: the last surviving operation on a tuple decides its
  membership, replayed or not).
* **Recovery.**  Opening an existing directory reads each shard's
  chain once — :func:`read_chain`: the newest readable snapshot
  generation, then the WAL tail replayed over it (stopping at a torn
  or corrupt frame, which is truncated) — and loads the reconstructed
  state in one atomic load — pure set arithmetic plus index builds,
  **no chase**.  The recovered state is always, per shard, the state
  after some prefix of that shard's operation history — at least
  every acknowledged (fsynced) operation, at most every applied one.
  Cross-shard, the prefixes are independent; Theorem 3 is exactly the
  license for that (any combination of per-shard satisfying states is
  satisfying).

**One chain, one layout, one codec.**  A shard's durable identity is
its chain: snapshot generations plus a WAL tail behind one
:class:`StoreIO`.  :class:`ShardStore` spells out the layout and
:func:`read_chain` reads a chain — for recovery, ``repair``, failover,
the replica summary and :func:`verify_store` alike.  Every file is
written by one encoder, :func:`_frame`, under one CRC rule: a snapshot
and ``MANIFEST.json`` are exactly one frame (:func:`_unframe`); any
other file content is read as format 1, the plain JSON of older stores
(kept under the ``.json`` names), until its next write frames it.
Replica targets are :class:`ShardStore` objects too
(:mod:`repro.weak.replication`): shipped bytes land verbatim.

**Fault injection.**  Every durability-critical boundary calls the
service's optional ``fault_hook`` with a crash-point name
(:data:`CRASH_POINTS`) before proceeding.  A hook that raises
simulates the process dying at that boundary: the instance latches
``crashed`` (further operations raise :class:`DurableUnavailableError`)
and the test harness re-opens the directory with a fresh instance,
exactly like a restart after ``kill -9``.  The ``commit.partial`` point
additionally models a torn machine-crash write: it fires after only a
prefix of a WAL's staged bytes has reached the file.  Below the crash
points sits an **injectable I/O layer** (:class:`StoreIO`): every WAL
and snapshot file operation goes through one substitutable object, so
the harness (``tests/harness/faults.FaultyIO``) can return
``EIO``/``ENOSPC``, tear writes, or flip bits on reads
deterministically.

**Fault isolation.**  Theorem 3 makes the shards independent failure
domains, and the log honors that end to end.  An :class:`OSError`
escaping a shard's WAL or snapshot path is retried with bounded,
jittered exponential backoff (``ShardedWeakInstanceService.IO_RETRIES``
/ ``IO_BACKOFF``); a persistent failure confines the damage to that shard:

* ``ENOSPC`` **degrades** the shard to read-only — reads keep serving
  the in-memory state, writes raise
  :class:`~repro.exceptions.ShardQuarantinedError`, and every write
  attempt *probes* for recovery (space freed → the backlog flushes and
  the shard returns to serving on its own).
* Any other persistent I/O error **quarantines** the shard: writes
  *and* reads that need it raise the typed error, while the window
  planner keeps answering every query whose plan does not involve the
  sick shard.  The shard's un-fsynced records stay staged in memory
  for the repair path.
* ``repair`` heals online: newest good snapshot generation (the
  install keeps the last three files as a rename chain) + WAL-tail
  replay + a fresh bulk-loaded shard, then un-quarantine.  The offline
  counterpart is :func:`verify_store` (the ``repro verify-store``
  scrubber), which walks every CRC and snapshot generation without
  opening the service.

Non-``OSError`` exceptions keep the whole-service crash latch: they
mean the *process* state is suspect, not one shard's disk.

**WAL corruption accounting.**  Replay distinguishes a torn *tail*
(expected after a crash: quietly truncated) from mid-file corruption
with valid frames stranded after it (unexpected: counted in
``wal_corrupt_frames`` / ``wal_truncated_bytes``, logged, and
surfaced by ``verify-store``) — good records are never dropped
silently.

**Schema evolution.**  The commit point of an evolution is a
root-level **schema WAL** (``schema.log``, same CRC framing as the
shard WALs) plus an atomic manifest rewrite: the evolution record —
epoch, the serialized op, the old and new catalogs — is appended and
fsynced first, then ``MANIFEST.json`` is replaced (tmp written and
fsynced, renamed, directory fsynced) to name the new epoch.  A crash
*before* the manifest replace recovers the old epoch untouched; a
crash *after* it recovers the new epoch, **rolling forward** any shard
whose on-disk snapshot predates the manifest's epoch by re-applying
the logged op's deterministic ``migrate_relations`` transform to the
retired source shards (their directories are retained until every
migrated shard's epoch-stamped snapshot is durable — only then are
dropped schemes' directories removed).  Snapshots carry the epoch they
were taken under; reopening an evolved store rebuilds the service from
the manifest's catalog, so the constructor's (original) schema only
has to match what the store was *created* with.  A void chain
(snapshot files, none readable) is never rolled forward: its shard
opens quarantined, and the retired sources stay on disk.

**Threading.**  Mutations and snapshots are safe under concurrent use:
a reentrant shard lock orders apply+stage and a snapshot's capture,
and the WAL's I/O lock orders its drain, write and fsync against the
snapshot's truncate.  Inside the I/O lock, the shard record's replica
lock is held across shipping to its replicas; it is the only lock a
lag report takes, so ``health()`` never waits on a primary fsync.  No
lock is held across two shards' I/O, so one shard's stalled disk (or
stalled replica) never stalls another.  Reads are *not*
internally locked — single-threaded callers need nothing, and the
multi-client front end (:mod:`repro.weak.server`) provides the read
locking discipline.  A store holds str, int, bool, None and finite
float values (:func:`_check_storable`); anything else is rejected
before the operation applies.

``DurableShardedService`` is the name older callers import for the
one service class.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pathlib
import re
import struct
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
    Union,
)
from zlib import crc32

from repro.deps.fd import FD
from repro.deps.fdset import FDSet
from repro.exceptions import ReproError
from repro.schema.attributes import AttributeSet
from repro.schema.database import DatabaseSchema
from repro.schema.relation import RelationScheme


_log = logging.getLogger(__name__)

#: Crash-point names, in the order a mutation's life passes them.  The
#: fault-injection harness (``tests/harness``) enumerates these; the
#: hook fires *before* the step the name describes completes, except
#: where the name says otherwise.
CRASH_POINTS = (
    "commit.begin",        # staged records chosen, nothing written yet
    "commit.partial",      # half of one WAL's staged bytes written (torn write)
    "commit.pre-fsync",    # all bytes written and flushed, no fsync yet
    "commit.post-fsync",   # one shard's WAL fsynced, its commit not yet returned
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

#: per-shard health states (the ``health()`` surface)
SHARD_SERVING = "serving"
SHARD_DEGRADED = "degraded"        # read-only: ENOSPC, probing for recovery
SHARD_QUARANTINED = "quarantined"  # persistent I/O failure: reads+writes refused
SHARD_REPAIRING = "repairing"      # repair() is rebuilding it from disk

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
#: the ``format`` of a framed snapshot or manifest (1: plain JSON)
_FORMAT = 2
#: the value types a store may hold (:func:`_check_storable`)
_STORABLE = frozenset((str, int, bool, float, type(None)))

#: frames larger than this never come out of :func:`_frame`;
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

    def snapshot_write(self, path: pathlib.Path, payload: bytes) -> None:
        with open(path, "wb") as handle:
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



def _check_storable(values: Sequence[object]) -> None:
    """The one rule for what a store may hold: each value is a ``str``,
    ``int``, ``bool``, ``None`` or a finite ``float`` — what a JSON
    round trip gives back unchanged and hashable.  Raises
    :class:`ReproError` otherwise; callers check before applying."""
    for value in values:
        kind = type(value)
        if kind not in _STORABLE or (kind is float and not math.isfinite(value)):
            raise ReproError(
                "durable serving requires JSON-serializable scalar tuple "
                f"values (str, int, bool, None, finite float), not {value!r}"
            )


def _frame(body: object) -> bytes:
    """The one on-disk encoder: ``body`` as compact JSON behind a
    ``[u32 length][u32 crc32]`` header.  A WAL and ``schema.log`` are
    runs of frames; a snapshot and the manifest are one frame each."""
    try:
        payload = json.dumps(
            body, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"durable serving requires JSON-serializable tuple values: {exc}"
        ) from None
    return _FRAME.pack(len(payload), crc32(payload)) + payload


def _unframe(data: bytes) -> Optional[bytes]:
    """The payload of ``data`` when the whole of it is one intact
    frame, else ``None``."""
    if len(data) < _FRAME.size:
        return None
    length, crc = _FRAME.unpack_from(data)
    payload = data[_FRAME.size:]
    return payload if length == len(payload) and crc32(payload) == crc else None


def _encode_record(
    op: str, values: Sequence[object], meta: Optional[dict] = None
) -> bytes:
    """One WAL record: :func:`_frame` of ``[op, values, meta?]``.
    Raises :class:`ReproError` (before any state mutates — callers
    encode first) on a value a store may not hold.

    ``meta`` rides as an optional third JSON element — today the
    exactly-once session stamp ``{"sid": ..., "seq": ...}``.  Frames
    without it are byte-identical to the pre-session format, so old
    stores replay unchanged and new frames replay on old readers that
    ignore the extra element."""
    _check_storable(values)
    return _frame([op, list(values)] if meta is None else [op, list(values), meta])


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
        for offset, _crc, _record in _frames(data, offset, strict=True):
            stranded += 1
        if stranded:
            # valid frames after a bad region: mid-file corruption
            scan.corrupt = True
            scan.corrupt_regions += 1
            scan.stranded_records += stranded
        offset += 1
    return scan


def _schema_log_records(data: bytes) -> PyTuple[List[Dict[str, object]], int]:
    """Parse a ``schema.log`` image: one dict per committed evolution,
    in apply order, plus the intact prefix's byte length.  A torn tail
    (crash mid-append) ends the parse — a record not fully on disk was
    never committed (the manifest replace happens strictly after the
    log fsync).  A frame whose CRC holds is what the service wrote."""
    ops, good = _decode_records(data)
    return [json.loads(values[0]) for _op, values in ops], good


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


def _read_record(data: bytes, what: str) -> PyTuple[dict, bool]:
    """The object a whole-file record (a snapshot or the manifest)
    holds, and whether it was framed.  A file that is not one intact
    frame is read as format 1, the plain JSON of stores written before
    the frame.  Raises :class:`ReproError`."""
    payload = _unframe(data)
    framed = payload is not None
    try:
        body = json.loads(payload if framed else data)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ReproError(f"unparsable {what}: {exc}") from None
    if not isinstance(body, dict):
        raise ReproError(f"{what} is not an object")
    if body.get("format") != (_FORMAT if framed else 1):
        raise ReproError(f"unsupported {what} format {body.get('format')!r}")
    return body, framed


def _parse_snapshot(data: bytes, name: str) -> dict:
    """Parse and validate one snapshot image; raises
    :class:`ReproError` on any structural or CRC mismatch.  A format-1
    snapshot's own ``crc`` covers only its tuples' serialization, and
    one written before that field is accepted without a check."""
    snap, framed = _read_record(data, "snapshot")
    if snap.get("scheme") != name:
        raise ReproError(
            f"snapshot is for scheme {snap.get('scheme')!r}, not {name!r}"
        )
    tuples = snap.get("tuples")
    if not isinstance(tuples, list) or not all(isinstance(r, list) for r in tuples):
        raise ReproError("snapshot tuples are malformed")
    crc = snap.get("crc")
    if not framed and crc is not None:
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
            continue  # pragma: no cover - only a format-1 table can be malformed
        if kind not in ("+", "-", None):
            continue  # pragma: no cover - defensive
        table[str(sid)] = {
            "seq": seq, "kind": kind, "result": None, "staged": False
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
    sid, seq = str(meta["sid"]), meta["seq"]
    entry = table.get(sid)
    if entry is None or seq >= entry["seq"]:
        table[sid] = {
            "seq": seq, "kind": op, "result": None, "staged": False
        }


def _sessions_to_snapshot(table: Dict[str, dict]) -> Dict[str, list]:
    """The persistent image of a session table: every high-water mark
    survives; a session whose recorded operation was effectful keeps
    its kind so a post-restart duplicate gets a truthful answer."""
    return {
        sid: [entry["seq"], entry.get("kind")]
        for sid, entry in sorted(table.items())
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
        payload: bytes,
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

    def install_snapshot(self, name: str, payload: bytes) -> None:
        """Install a shipped snapshot exactly like the primary does,
        then truncate the replica WAL (the primary truncated its own
        in the same breath)."""
        self.shard_dir(name).mkdir(parents=True, exist_ok=True)
        self.write_snapshot(name, payload)
        wal = self.wal_path(name)
        if not wal.exists():
            wal.touch()
        self.io.truncate(wal, 0)

    def overwrite_wal(self, name: str, data: bytes) -> None:
        """Make the replica WAL byte-identical to ``data`` (the
        snapshot-copy leg of anti-entropy)."""
        _write_fsync(self.io, self.wal_path(name), data, "wb")

    def retired_dirs(self, live) -> List[str]:
        """Shard directories not named in ``live``: crash residue of an
        evolution's retired schemes, which the next open sweeps."""
        if not self.shards_root.is_dir():
            return []
        return sorted(
            c.name for c in self.shards_root.iterdir()
            if c.is_dir() and c.name not in live
        )

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


def _write_manifest(
    io: StoreIO, root: pathlib.Path, schema: DatabaseSchema, fds: FDSet, epoch: int
) -> None:
    """Rewrite the manifest durably: write and fsync a tmp file,
    rename it over the manifest, fsync the directory.  For an
    evolution this replace IS the commit point: before it the store
    recovers the old epoch, after it the new one."""
    tmp = root / (MANIFEST_NAME + ".tmp")
    io.snapshot_write(
        tmp,
        _frame({
            "format": _FORMAT,
            "schemes": sorted(s.name for s in schema),
            "epoch": epoch,
            "schema": _schema_to_json(schema),
            "fds": _fds_to_json(fds),
        }),
    )
    io.replace(tmp, root / MANIFEST_NAME)
    io.dir_fsync(root)


def _read_manifest(root: pathlib.Path) -> Optional[Dict[str, object]]:
    """The store's manifest, or ``None`` for a fresh directory; raises
    :class:`ReproError` naming the manifest when it is corrupt."""
    path = root / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return _read_record(path.read_bytes(), "manifest")[0]
    except ReproError as exc:
        raise ReproError(
            f"corrupt durable manifest {path}: {exc}; run "
            f"`repro verify-store {root}` to inspect the store"
        ) from None


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
    received that shard: all behind, not damaged.  Shard directories
    the manifest does not name (``retired_dirs``, primary and per
    replica) are crash residue the next open sweeps, not a failure.

    Returns a report dict: ``ok`` is ``True`` iff nothing worse than a
    torn WAL tail (the expected residue of a crash) was found; each
    shard entry lists its findings.  Raises :class:`ReproError` when
    the directory is not a durable store at all."""
    root = pathlib.Path(root)
    try:
        manifest = _read_manifest(root)
    except (OSError, ReproError) as exc:
        return {"root": str(root), "ok": False, "findings": [str(exc)], "shards": {}}
    if manifest is None:
        raise ReproError(f"{root} is not a durable store (no {MANIFEST_NAME})")
    findings: List[str] = []
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
            # a record with an intact CRC is what the service wrote
            last = records[-1] if records else None
            if last and last["epoch"] < epoch:
                findings.append(
                    f"schema.log ends at epoch {last['epoch']} but the "
                    f"manifest names epoch {epoch}"
                )
            elif last and last["epoch"] == epoch:
                # a crash between the manifest replace and the finalize
                # step leaves migrated-in schemes without directories
                # yet; recovery rolls them forward, so a missing dir for
                # exactly those schemes is expected crash residue
                pending_rollforward = {s for s, _ in last["schema"]} - {
                    s for s, _ in last["old_schema"]
                }
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
        rep: Dict[str, object] = {
            "shards": {}, "findings": [], "retired_dirs": store.retired_dirs(names)
        }
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
        "retired_dirs": primary.retired_dirs(names),
    }
    if replica_reports:
        report["replicas"] = replica_reports
    return report


#: names older callers import, for the one service class and its counters
_ALIASES = {
    "DurableShardedService": "ShardedWeakInstanceService",
    "DurableServiceStats": "ShardedServiceStats",
}


def __getattr__(name: str):
    # the service lives in repro.weak.sharded, which imports this
    # module: an alias resolves on first use instead of at import
    if name in _ALIASES:
        from repro.weak import sharded

        return getattr(sharded, _ALIASES[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
