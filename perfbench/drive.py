"""Set up the full serving stack, drive one workload through it, and
check every outcome.

The stack is the public one a deployment runs:
``WeakInstanceServer`` (one worker) over a ``ReplicatedShardedService``
with one synchronous replica, which is a ``DurableShardedService``
over the ``ShardedWeakInstanceService`` and its ``LiveTableau`` shards,
queried through the ``QueryEngine``.  One client thread drives it in
a closed loop, so the run uses two threads.
"""

from __future__ import annotations

import gc
import itertools
import resource
import shutil
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.independence import analyze_cache_clear
from repro.data.states import DatabaseState
from repro.query.naive import evaluate_naive
from repro.schema.evolution import parse_evolution_op
from repro.weak.replication import ReplicaStore, ReplicatedShardedService
from repro.weak.server import WeakInstanceServer

from gen import Inputs, canon
from spans import LayerProbe, TimingIO, Tracer

perf = time.perf_counter

#: with one request in flight, every read at an op index divisible by
#: this keeps its answer, to be checked against the from-scratch
#: evaluator on the state it was served from
ANSWER_STRIDE = 400

#: a timed phase is cut into slices of this length; a traced run
#: alternates traced and untraced slices, whose throughputs give the
#: overhead
SLICE_SECONDS = 0.5


@dataclass
class Phase:
    """What one stretch of the client loop observed."""

    write_lat: List[float] = field(default_factory=list)
    read_lat: List[float] = field(default_factory=list)
    evolve_lat: List[float] = field(default_factory=list)
    swap: List[float] = field(default_factory=list)
    completed: int = 0
    acked_writes: int = 0
    seconds: float = 0.0
    #: (traced?, ops issued, seconds) per slice of a traced run
    slices: List[tuple] = field(default_factory=list)


class Run:
    """One workload's stack, client and checks.  With a ``tracer``
    the stack's I/O goes through the timing ``StoreIO`` and the probe's
    wrappers count queue waits and scanned rows."""

    def __init__(self, inputs: Inputs, root, tracer: Optional[Tracer] = None):
        self.inputs = inputs
        self.root = root
        self.tracer = tracer
        self.probe = LayerProbe(tracer) if tracer is not None else None
        self.server: Optional[WeakInstanceServer] = None
        self.stream = inputs.stream()
        #: ops taken from the stream so far (the next op's index)
        self.consumed = 0
        self.attempted = 0
        self.failed = 0
        #: op indices whose outcome differed from the generator's
        self.wrong: List[int] = []
        #: indices of generated FD-violating inserts, and of rejected ones
        self.expected_rejects: Set[int] = set()
        self.rejected: Set[int] = set()
        self.retries = 0
        #: the latest settled sessioned write, which its retry (always
        #: the next op) must repeat
        self.last_session = (-1, None)
        self.evolve_errors: List[Exception] = []
        #: op index -> the answer served for the read there
        self.served: Dict[int, frozenset] = {}
        self.setup_parts: Dict[str, List[float]] = {}
        #: the store as it stood after the timed phase
        self.crash_root = root.parent / "crash"
        self.setup: Dict[str, float] = {}
        self.evolve_ops = {
            text: parse_evolution_op(text)
            for op in inputs.epilogue for text in op.text
        }

    # -- set-up ------------------------------------------------------------------

    def _service(self, root=None, **options) -> ReplicatedShardedService:
        root = self.root if root is None else root
        io = replica_io = None
        if self.tracer is not None:
            io = TimingIO(self.tracer, "durable")
            replica_io = TimingIO(self.tracer, "replication")
        return ReplicatedShardedService(
            self.inputs.schema,
            self.inputs.fds,
            root / "primary",
            replicas=[ReplicaStore(root / "replica", io=replica_io)],
            io=io,
            **options,
        )

    def _set_up_once(self, root) -> ReplicatedShardedService:
        """Construction, bulk load, a fixed WAL tail, close and reopen
        (snapshot load, WAL replay and the lazy bulk chase the first
        reads trigger), from an empty directory.  Only the program
        calls are timed; returns the reopened service."""
        inputs = self.inputs
        state = DatabaseState(inputs.schema, {
            s.name: [tuple(row[a] for a in s.columns) for row in inputs.base[s.name]]
            for s in inputs.schema
        })
        tail = [inputs.tail[i:i + 32] for i in range(0, len(inputs.tail), 32)]
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        analyze_cache_clear()  # a restart starts with no analysis memo
        gc.collect()
        marks = [perf()]
        service = self._service(root)
        marks.append(perf())
        service.load(state)
        marks.append(perf())
        for chunk in tail:
            service.insert_many(chunk)
        marks.append(perf())
        service.close()
        analyze_cache_clear()
        marks.append(perf())
        service = self._service(root, auto_commit=False)
        marks.append(perf())
        for target in inputs.prewarm:
            service.window(target)
        marks.append(perf())
        steps = ("construct", "load", "wal_tail", "close", "recover", "first_reads")
        for step, a, b in zip(steps, marks, marks[1:]):
            self.setup_parts.setdefault(step, []).append(b - a)
        self.setup_parts.setdefault("total", []).append(marks[-1] - marks[0])
        self.setup = {step: statistics.median(v) for step, v in self.setup_parts.items()}
        return service

    def set_up(self) -> None:
        """The first half of the set-up repetitions; the last reopened
        service is the one served."""
        service = None
        for rep in range(self.inputs.setup_reps // 2):
            if service is not None:
                service.close()
            if self.tracer is not None:
                self.tracer.phase = f"setup{rep}"
            service = self._set_up_once(self.root)
        self.server = WeakInstanceServer(service, workers=1).start()

    def set_up_again(self) -> None:
        """The second half, after serving and the checks, in a
        directory of its own; untraced."""
        root = self.root.parent / "again"
        reps = self.inputs.setup_reps
        for _ in range(reps - reps // 2):
            self._set_up_once(root).close()
        shutil.rmtree(root, ignore_errors=True)

    # -- the client --------------------------------------------------------------

    def _submit(self, kind: str, scheme: str, row, session, phase: Phase, timed: bool):
        server = self.server
        start = perf()
        if self.probe is not None:
            self.probe.submit(kind, row, start)
        submit = server.submit_insert if kind == "ins" else server.submit_delete
        future = submit(scheme, row, session)
        if timed:
            future.add_done_callback(
                lambda _f, start=start: phase.write_lat.append(perf() - start)
            )
        return future

    def _settle(self, index: int, op, future, phase: Phase) -> None:
        """Wait for one write's ack and check its outcome against the
        generator's expectation."""
        try:
            got = future.result(timeout=120)
        except Exception:  # counted and reported, never fatal mid-run
            self.failed += 1
            return
        phase.completed += 1
        phase.acked_writes += 1
        if op.kind == "del":
            if got is not op.expect:
                self.wrong.append(index)
            return
        if got.accepted != op.expect:
            self.wrong.append(index)
        if op.retry_of >= 0:
            self.retries += 1
            if (op.retry_of, got) != self.last_session:
                self.wrong.append(index)
            return
        if not got.accepted:
            self.rejected.add(index)
        if op.session is not None:
            self.last_session = (index, got)

    def _evolve(self, op, phase: Phase) -> None:
        for n, text in enumerate(op.text):
            writes = op.during if n == 0 else []
            hook_end = [0.0]

            def during(_service, writes=writes, hook_end=hook_end):
                futures = [
                    self._submit("ins", scheme, row, None, phase, True)
                    for scheme, row in writes
                ]
                for future in futures:
                    try:
                        if not future.result(timeout=120).accepted:
                            self.wrong.append(-1)
                        phase.acked_writes += 1
                    except Exception:
                        self.failed += 1
                hook_end[0] = perf()

            self.attempted += 1 + len(writes)
            evolution = self.evolve_ops[text]
            start = perf()
            try:
                self.server.evolve(evolution, during=during)
            except Exception as exc:
                self.evolve_errors.append(exc)
                self.failed += 1
                continue
            end = perf()
            phase.completed += 1 + len(writes)
            phase.evolve_lat.append(end - start)
            phase.swap.append(end - hook_end[0])

    def drive(self, seconds: float, timed: bool, count: Optional[int] = None) -> Phase:
        """Consume the op stream for ``seconds``, or ``count`` ops when
        given (then settle every outstanding write).  A timed phase
        records the ops issued per ``SLICE_SECONDS``; in a traced run it
        switches tracing on for the even slices and off for the odd
        ones."""
        stream = self.stream
        window = self.inputs.window
        server = self.server
        phase = Phase()
        inflight: deque = deque()
        tracer = self.tracer
        span = tracer.span if tracer is not None else None
        t0 = now = perf()
        deadline = t0 + seconds
        mark = (t0, self.attempted)
        current = 0
        if timed and tracer is not None:
            tracer.active = True
        i = self.consumed
        end = i + count if count is not None else None
        while now < deadline and i != end:
            if span is None:
                op = next(stream)
            else:
                with span("client.generate"):
                    op = next(stream)
            if timed and int((now - t0) / SLICE_SECONDS) != current:
                mark = self._close_slice(phase, current % 2 == 0, mark, now)
                current = int((now - t0) / SLICE_SECONDS)
                if tracer is not None:
                    tracer.active = current % 2 == 0
            while inflight and inflight[0][0] <= i - window:
                if span is None:
                    self._settle(*inflight.popleft(), phase)
                else:
                    with span("client.wait"):
                        self._settle(*inflight.popleft(), phase)
            self.attempted += 1
            if op.kind == "read":
                begin = perf()
                try:
                    answer = server.query(op.text)
                except Exception:
                    self.failed += 1
                else:
                    if timed:
                        phase.read_lat.append(perf() - begin)
                    phase.completed += 1
                    if op.expect is not None:
                        if {canon(t) for t in answer} != op.expect:
                            self.wrong.append(i)
                    elif window == 1 and i % ANSWER_STRIDE == 0:
                        self.served[i] = frozenset(canon(t) for t in answer)
            else:
                if op.expect is False and op.retry_of < 0:
                    self.expected_rejects.add(i)
                future = self._submit(op.kind, op.scheme, op.row, op.session,
                                      phase, timed)
                inflight.append((i, op, future))
            i += 1
            now = perf()
        if timed:
            self._close_slice(phase, current % 2 == 0, mark, now)
            if tracer is not None:
                tracer.active = False
        while inflight:
            self._settle(*inflight.popleft(), phase)
        phase.seconds = perf() - t0
        self.consumed = i
        return phase

    def _close_slice(self, phase: Phase, traced: bool, mark, now: float):
        phase.slices.append((traced, self.attempted - mark[1], now - mark[0]))
        return now, self.attempted

    def run(self, seconds: float):
        """Warm-up (``warmup_ops`` of the same stream), the timed phase,
        then the idle-server epilogue.
        Returns the timed phase, the epilogue, and the server counters
        before and after the timed phase."""
        if self.tracer is not None:
            self.tracer.phase = "warmup"
            self.tracer.active = False
        self.drive(float("inf"), timed=False, count=self.inputs.warmup_ops)
        # set-up and a fixed amount of serving: unlike the timed phase,
        # whose store grows with the program's speed, this is the same
        # work on every version
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.collect()
        before = self.server.stats_dict()
        if self.tracer is not None:
            self.tracer.phase = "timed"
        timed = self.drive(seconds, timed=True)
        after = self.server.stats_dict()
        # every write is acked and the server idle: copy the store as a
        # crash would leave it, before the epilogue's snapshots
        for side in ("primary", "replica"):
            shutil.copytree(self.root / side, self.crash_root / side)
        # the answers as the incrementally maintained caches and
        # composer give them, before the epilogue's evolutions rebuild
        # the evolved shards
        self.oracle = self._oracle(self.server.state())
        if self.tracer is not None:
            self.tracer.phase = "epilogue"
            self.tracer.active = True
        epilogue = Phase()
        for op in self.inputs.epilogue:
            self._evolve(op, epilogue)
        service = self.server.service
        for name in sorted(service.shard_names()):
            service.snapshot(name)
        return timed, epilogue, before, after

    # -- checks ------------------------------------------------------------------

    def _replay(self):
        """The ops the client consumed, generated again from the seed."""
        return itertools.islice(self.inputs.stream(), self.consumed)

    def _base_model(self) -> Dict[str, dict]:
        """Base state and WAL tail: per scheme, canonical row -> row."""
        model = {name: {canon(r): r for r in rows} for name, rows in self.inputs.base.items()}
        for scheme, row in self.inputs.tail:
            model[scheme][canon(row)] = row
        return model

    @staticmethod
    def _apply(model: Dict[str, dict], op) -> None:
        """One op's effect, as the generator expects it."""
        if op.kind == "ins" and op.expect and op.retry_of < 0:
            model[op.scheme][canon(op.row)] = op.row
        elif op.kind == "del":
            model[op.scheme].pop(canon(op.row), None)
        elif op.kind == "evolve":
            for scheme, row in op.during:
                model[scheme][canon(row)] = row

    def _model(self, epilogue: bool = True) -> Dict[str, set]:
        """The benchmark's own state: base, WAL tail, then every
        consumed write the generator says is accepted (and the
        epilogue's writes, unless ``epilogue`` is false)."""
        model = self._base_model()
        for op in itertools.chain(self._replay(), self.inputs.epilogue if epilogue else ()):
            self._apply(model, op)
        return {name: set(rows) for name, rows in model.items()}

    def _served_answers(self) -> object:
        """The sampled answers as the run served them (through the
        caches and the incrementally maintained composer), against the
        from-scratch evaluator on the state at the moment of each read."""
        inputs = self.inputs
        model = self._base_model()
        fds = self.server.service.fds
        for i, op in enumerate(self._replay()):
            if i in self.served:
                state = DatabaseState(inputs.schema, {
                    s.name: [tuple(row[a] for a in s.columns) for row in model[s.name].values()]
                    for s in inputs.schema
                })
                want = frozenset(canon(t) for t in evaluate_naive(op.text, state, fds))
                if self.served[i] != want:
                    return f"read {i} {op.text!r} was served a wrong answer"
            self._apply(model, op)
        return True

    @staticmethod
    def _stored(state) -> Dict[str, set]:
        return {s.name: {canon(t) for t in state[s.name]} for s in state.schema}

    def check(self) -> Dict[str, object]:
        """Every check the run makes, outside the timed phase; each
        entry is ``True`` or a description of what went wrong.  The
        outcomes were compared with the generator's as they arrived."""
        checks: Dict[str, object] = {}
        self.failed += len(self.wrong)
        checks["outcomes"] = True if not self.wrong else f"{len(self.wrong)} wrong outcomes"
        checks["evolutions"] = (
            True if not self.evolve_errors
            else f"{len(self.evolve_errors)} failed: {self.evolve_errors[0]!r}"
        )
        checks["rejected_set"] = (
            True if self.rejected == self.expected_rejects
            else f"{len(self.rejected ^ self.expected_rejects)} inserts differ"
        )
        stats = self.server.stats_dict()
        checks["session_dedup"] = (
            True if stats["session_dedup_hits"] == self.retries
            else f"{stats['session_dedup_hits']} dedup hits for {self.retries} retries"
        )
        model = self._model()
        state = self.server.state()
        checks["final_state"] = (
            True if self._stored(state) == model else "served state != model"
        )
        checks["query_oracle"] = self.oracle
        checks["served_answers"] = self._served_answers()
        self.server.stop()
        self.server.service.close()
        for name, root, want in (("reopen", None, model),
                                 ("crash_recovery", self.crash_root, self._model(False))):
            reopened = self._service(root, auto_commit=False)
            try:
                checks[name] = (
                    True if self._stored(reopened.state()) == want
                    else "recovered state != acked writes"
                )
            finally:
                reopened.close()
        shutil.rmtree(self.crash_root, ignore_errors=True)
        return checks

    def _oracle(self, state) -> object:
        """A fixed sample of the run's queries, served again on the
        state after the timed phase and compared with the from-scratch
        evaluator."""
        reads = [op.text for op in self._replay() if op.kind == "read"]
        if not reads:
            return "no queries ran"
        sample, seen = [], set()
        for text in reads:  # the first query of each shape kind ...
            kind = text.split("(", 1)[0] if "(" in text else "scan"
            if kind not in seen:
                seen.add(kind)
                sample.append(text)
        size = self.inputs.oracle_sample
        step = max(1, len(reads) // size)  # ... then evenly spaced
        sample += reads[::step][: size - len(sample)]
        fds = self.server.service.fds
        for text in sample:
            got = {canon(t) for t in self.server.query(text)}
            want = {canon(t) for t in evaluate_naive(text, state, fds)}
            if got != want:
                return f"query {text!r} differs from the oracle"
        return True
