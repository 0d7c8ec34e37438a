"""Spans around the program's public layer boundaries, kept in memory.

The benchmark installs :class:`Tracer` wrappers on public functions
of each serving layer (and a timing :class:`~repro.weak.durable.
StoreIO` below the WAL) only for a traced run; an untraced run never
installs them, so its end-to-end numbers pay nothing.  Each span is
``(id, parent, thread, phase, name, start, end)``.  The parent is the
innermost open span of the same thread, so a layer's *self* time is
its span minus the spans it directly contains.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.weak.durable import StoreIO

from gen import canon

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.active = False
        #: stamped into every span; ``drive.Run`` sets it per phase
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            stack.pop()
            self.spans.append(
                (sid, parent, threading.get_ident(), self.phase, name, start, end)
            )

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper;
        ``on_enter(start, args)`` and ``on_exit(result)`` see the call."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf()
            if on_enter is not None:
                on_enter(start, args)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, threading.get_ident(), tracer.phase, name,
                     start, end)
                )
            if on_exit is not None:
                on_exit(result)
            return result

        self._undo.append((owner, attr, attr in vars(owner), original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, owned, original in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------------

    def phases(self) -> List[str]:
        return sorted({s[3] for s in self.spans})

    def durations(self, name: str, phases) -> List[float]:
        return [s[6] - s[5] for s in self.spans if s[4] == name and s[3] in phases]

    def self_times(self, phase: str) -> Dict[int, Dict[str, float]]:
        """Per thread, per span name: summed self time in ``phase``."""
        child: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[1] and s[3] == phase:
                child[s[1]] += s[6] - s[5]
        table: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s[3] == phase:
                table[s[2]][s[4]] += (s[6] - s[5]) - child.get(s[0], 0.0)
        return table


class TimingIO(StoreIO):
    """The real I/O, with WAL writes and fsyncs recorded as spans."""

    def __init__(self, tracer: Tracer, prefix: str):
        self.tracer = tracer
        self.write_name = f"{prefix}.wal_write"
        self.fsync_name = f"{prefix}.fsync"

    def wal_write(self, handle, blob, path) -> None:
        with self.tracer.span(self.write_name):
            super().wal_write(handle, blob, path)

    def wal_fsync(self, handle, path) -> None:
        with self.tracer.span(self.fsync_name):
            super().wal_fsync(handle, path)


class LayerProbe:
    """The wrappers one traced run installs, plus what they count:
    queue waits matched by row (every row is unique) and the rows
    leaf scans return against the rows answers hold."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (kind, canonical row) -> submit times not yet matched
        self.submitted: Dict[tuple, deque] = defaultdict(deque)
        #: (phase, seconds from submit to the apply call carrying the row)
        self.queue_waits: List[tuple] = []
        self.leaf_rows = 0
        self.answer_rows = 0

    def submit(self, kind: str, row, start: float) -> None:
        if self.tracer.active:
            self.submitted[(kind, canon(row))].append(start)

    def _matched(self, kind: str, start: float, rows) -> None:
        for row in rows:
            pending = self.submitted.get((kind, canon(row)))
            if pending:
                self.queue_waits.append(
                    (self.tracer.phase, start - pending.popleft()))

    def install(self) -> None:
        from repro.query import engine, parser
        from repro.weak import replication, server, service, sharded

        wrap = self.tracer.wrap
        srv = server.WeakInstanceServer
        wrap(srv, "submit_insert", "server.submit")
        wrap(srv, "submit_delete", "server.submit")
        wrap(srv, "query", "server.query")
        wrap(srv, "evolve", "server.evolve")
        repl = replication.ReplicatedShardedService
        wrap(repl, "apply_insert_many", "durable.apply",
             on_enter=lambda t, a: self._matched("ins", t, _rows(a[1])))
        wrap(repl, "apply_insert", "durable.apply",
             on_enter=lambda t, a: self._matched("ins", t, (a[2],)))
        wrap(repl, "apply_delete", "durable.apply",
             on_enter=lambda t, a: self._matched("del", t, (a[2],)))
        wrap(repl, "commit_shards", "durable.commit")
        wrap(repl, "snapshot", "durable.snapshot")
        wrap(replication.ReplicaStore, "append", "replication.ship")
        wrap(replication.ReplicaStore, "install_snapshot",
             "replication.snapshot_install")
        wrap(sharded.ShardedWeakInstanceService, "insert_many",
             "sharded.insert_many")
        wrap(sharded, "analyze", "core.analyze")
        wrap(sharded, "reanalyze", "core.reanalyze")
        wrap(service.LiveTableau, "filtered_window", "service.filtered_window",
             on_exit=self._leaf)
        wrap(service.LiveTableau, "chase_fresh", "chase.chase_fresh")
        # the server parses the query text; the engine only re-checks
        # the already-parsed tree, so only the server's call is wrapped
        wrap(parser, "parse_query", "query.parse")
        wrap(engine.QueryEngine, "run", "query.run", on_exit=self._answer)

    def _leaf(self, result) -> None:
        self.leaf_rows += len(result)

    def _answer(self, result) -> None:
        self.answer_rows += len(result)


def _rows(ops):
    # never consume a caller's iterator: only list batches are matched
    return [row for _, row in ops] if isinstance(ops, list) else ()


def median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0
