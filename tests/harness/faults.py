"""Deterministic crash-point and I/O-fault injection.

The durable layer has two seams this harness plugs into:

* the ``fault_hook``, called with a crash-point name
  (:data:`repro.weak.durable.CRASH_POINTS`) at every
  durability-critical boundary — :class:`FaultTrace` records every
  point a workload passes (so a test can *enumerate* the crash sites
  of a concrete run) and :class:`FaultInjector` raises
  :class:`InjectedCrash` at exactly the *n*-th occurrence of one
  point.  Replaying the same workload with the same injector crashes
  at the same instruction every time.
* the :class:`~repro.weak.durable.StoreIO` object, through which every
  WAL/snapshot filesystem call flows — :class:`FaultyIO` subclasses it
  to raise scripted :class:`OSError`\\ s (``EIO``, ``ENOSPC``, …) at
  exact occurrences, optionally landing a *partial* write first (a
  torn write), and to flip bits in read-back data (silent media
  corruption).  A crash simulates the process dying; ``FaultyIO``
  simulates the *disk* misbehaving under a live process — the
  quarantine/degrade/repair machinery only exists because of the
  second kind, so this is what makes it deterministically testable.

:data:`~repro.weak.durable.CRASH_POINTS` and its ``evolve.*`` subset
:data:`~repro.weak.durable.MIGRATION_CRASH_POINTS` (the migration
crash matrix) are re-exported here so test suites can parametrize
over them without importing the durable module directly.
"""

from __future__ import annotations

import errno
import pathlib
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.weak.durable import (  # noqa: F401 - re-exported for parametrize
    CRASH_POINTS,
    MIGRATION_CRASH_POINTS,
    StoreIO,
)
from repro.weak.replication import (  # noqa: F401 - re-exported for parametrize
    REPLICATION_CRASH_POINTS,
)


class InjectedCrash(Exception):
    """The simulated process death.  Deliberately NOT a ReproError:
    the durable layer must latch a crash for *any* escaping exception,
    not only its own error family."""

    def __init__(self, point: str, occurrence: int):
        super().__init__(f"injected crash at {point} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


class FaultTrace:
    """A recording hook: never raises, remembers every point passed."""

    def __init__(self) -> None:
        self.events: List[str] = []

    def __call__(self, point: str) -> None:
        self.events.append(point)

    def counts(self) -> Dict[str, int]:
        return dict(Counter(self.events))

    def crash_sites(self, per_point: int = 3) -> List[Tuple[str, int]]:
        """``(point, occurrence)`` pairs covering every recorded point:
        the first, middle, and last occurrence of each (up to
        ``per_point`` sites), so a suite crashes early, mid-stream, and
        at the final boundary without replaying every single hit."""
        sites: List[Tuple[str, int]] = []
        for point, n in sorted(self.counts().items()):
            picks = sorted({1, (n + 1) // 2, n})[:per_point]
            sites.extend((point, k) for k in picks)
        return sites


class FaultInjector:
    """Raise :class:`InjectedCrash` at the ``occurrence``-th time
    ``point`` is passed (1-based); count every point either way."""

    def __init__(self, point: str, occurrence: int = 1):
        self.point = point
        self.occurrence = occurrence
        self.seen = 0
        self.fired = False

    def __call__(self, point: str) -> None:
        if point != self.point:
            return
        self.seen += 1
        if self.seen == self.occurrence and not self.fired:
            self.fired = True
            raise InjectedCrash(point, self.occurrence)

    def __repr__(self) -> str:
        return (
            f"FaultInjector<{self.point}#{self.occurrence}, "
            f"{'fired' if self.fired else 'armed'}>"
        )


class FaultyIO(StoreIO):
    """A :class:`StoreIO` with scripted I/O faults.

    Operations are named after the seam methods: ``"wal.write"``,
    ``"wal.fsync"``, ``"truncate"``, ``"read"``, ``"snapshot.write"``,
    ``"replace"``, ``"dir.fsync"``.  Each :meth:`fail` rule counts the
    calls of its operation whose path contains ``match`` and raises
    ``OSError(err)`` from the ``occurrence``-th one on, ``times``
    times (``None``: persistently — the disk stays broken until
    :meth:`clear`).  :meth:`flip_bit` corrupts one byte of a read's
    returned data instead of raising — the silent-corruption case CRC
    checking exists for.  All firings append to :attr:`events` so
    tests can assert exactly which faults a scenario hit.
    """

    def __init__(self) -> None:
        self._rules: List[Dict[str, object]] = []
        self._flips: List[Dict[str, object]] = []
        self.events: List[Tuple[str, str, str]] = []

    # -- scripting ---------------------------------------------------------------

    def fail(
        self,
        op: str,
        err: int = errno.EIO,
        match: str = "",
        occurrence: int = 1,
        times: Optional[int] = 1,
        partial: int = 0,
    ) -> Dict[str, object]:
        """Arm one fault rule (returns it, live: ``rule["fired"]``
        counts firings).  ``partial`` > 0 on a ``"wal.write"`` rule
        writes that many bytes of the blob before raising — a torn
        write."""
        rule: Dict[str, object] = {
            "op": op,
            "err": err,
            "match": match,
            "occurrence": occurrence,
            "times": times,
            "partial": partial,
            "seen": 0,
            "fired": 0,
        }
        self._rules.append(rule)
        return rule

    def flip_bit(
        self, match: str = "", offset: int = 0, bit: int = 0x40,
        occurrence: int = 1,
    ) -> None:
        """Corrupt byte ``offset`` (xor ``bit``) of the data returned
        by the ``occurrence``-th read of a matching path."""
        self._flips.append(
            {"match": match, "offset": offset, "bit": bit,
             "occurrence": occurrence, "seen": 0}
        )

    def kill(self, match: str = "", err: int = errno.EIO) -> None:
        """Kill a store: every subsequent operation on a matching path
        fails persistently — the dead-primary scenario the failover
        matrix injects.  :meth:`clear` resurrects it."""
        for op in (
            "wal.write", "wal.fsync", "truncate", "read",
            "snapshot.write", "replace", "dir.fsync",
        ):
            self.fail(op, err, match=match, occurrence=1, times=None)

    def clear(self) -> None:
        """Heal the disk: drop every armed rule and flip."""
        self._rules = []
        self._flips = []

    def _check(self, op: str, path: pathlib.Path) -> Optional[Dict[str, object]]:
        for rule in self._rules:
            if rule["op"] != op or str(rule["match"]) not in str(path):
                continue
            rule["seen"] += 1  # type: ignore[operator]
            if rule["seen"] < rule["occurrence"]:  # type: ignore[operator]
                continue
            times = rule["times"]
            if times is not None and rule["fired"] >= times:  # type: ignore[operator]
                continue
            rule["fired"] += 1  # type: ignore[operator]
            self.events.append(
                (op, str(path), errno.errorcode.get(rule["err"], str(rule["err"])))
            )
            return rule
        return None

    def _raise(self, op: str, rule: Dict[str, object]) -> None:
        err = rule["err"]
        raise OSError(err, f"injected {errno.errorcode.get(err, err)} at {op}")

    # -- the StoreIO surface -----------------------------------------------------

    def wal_write(self, handle, blob: bytes, path: pathlib.Path) -> None:
        rule = self._check("wal.write", path)
        if rule is not None:
            keep = int(rule["partial"])  # type: ignore[arg-type]
            if keep > 0:
                handle.write(blob[:keep])  # the torn prefix lands
            self._raise("wal.write", rule)
        super().wal_write(handle, blob, path)

    def wal_fsync(self, handle, path: pathlib.Path) -> None:
        rule = self._check("wal.fsync", path)
        if rule is not None:
            self._raise("wal.fsync", rule)
        super().wal_fsync(handle, path)

    def truncate(self, path: pathlib.Path, size: int) -> None:
        rule = self._check("truncate", path)
        if rule is not None:
            self._raise("truncate", rule)
        super().truncate(path, size)

    def read_bytes(self, path: pathlib.Path) -> bytes:
        rule = self._check("read", path)
        if rule is not None:
            self._raise("read", rule)
        data = super().read_bytes(path)
        for flip in self._flips:
            if str(flip["match"]) not in str(path):
                continue
            flip["seen"] += 1  # type: ignore[operator]
            if flip["seen"] != flip["occurrence"] or not data:
                continue
            index = min(int(flip["offset"]), len(data) - 1)  # type: ignore[arg-type]
            data = (
                data[:index]
                + bytes([data[index] ^ int(flip["bit"])])  # type: ignore[arg-type]
                + data[index + 1:]
            )
            self.events.append(("read.flip", str(path), f"byte {index}"))
        return data

    def snapshot_write(self, path: pathlib.Path, payload: bytes) -> None:
        rule = self._check("snapshot.write", path)
        if rule is not None:
            self._raise("snapshot.write", rule)
        super().snapshot_write(path, payload)

    def replace(self, src: pathlib.Path, dst: pathlib.Path) -> None:
        rule = self._check("replace", dst)
        if rule is not None:
            self._raise("replace", rule)
        super().replace(src, dst)

    def dir_fsync(self, directory: pathlib.Path) -> None:
        rule = self._check("dir.fsync", directory)
        if rule is not None:
            self._raise("dir.fsync", rule)
        super().dir_fsync(directory)
