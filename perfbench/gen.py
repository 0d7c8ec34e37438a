"""Seeded input generation for the two workloads.

Everything a run sends to the program comes from here.  The base
state, the fixed WAL tail written during set-up and the evolution
epilogue are built before any timing starts.  The op stream the
closed-loop client consumes is an endless generator seeded with
``random.Random(f"{workload}:{seed}:ops")``: it costs a few
microseconds per op, holds only what it needs to stay consistent,
never runs out, and can be replayed after the run to rebuild the
expected final state.  The same seed gives the same inputs.

The insert domain is collision-free by construction — every fresh key
carries its source (WAL tail, stream, epilogue) and a counter — so the
only inserts the program may reject are the ones generated as
FD-violating (an existing, never-deleted key with new non-key values).  A delete or a read-your-writes query only
targets a row whose insert was acknowledged before the op is issued:
the client keeps at most ``window`` writes outstanding and settles
every op older than ``window`` before issuing the next, so the
generator knows which inserts are settled at each index.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.workloads.schemas import chain_schema, disjoint_star_schema

#: a row is an attribute-keyed mapping; evolutions reorder columns, so
#: positional rows would change meaning mid-run
Row = Dict[str, str]


def canon(row) -> Tuple[Tuple[str, object], ...]:
    """Order-free identity of a row (a mapping or a repro Tuple)."""
    items = row.as_dict().items() if hasattr(row, "as_dict") else row.items()
    return tuple(sorted(items))


@dataclass(slots=True)
class Op:
    """One client request.  ``kind`` is ``ins``, ``del``, ``read`` or
    ``evolve`` (after the timed phase only); ``expect`` is the insert's acceptance, the delete's
    ``existed``, or a read's exact answer (a frozenset of canonical
    rows, ``None`` when only the end-of-run oracle sample checks it)."""

    kind: str
    scheme: str = ""
    row: Optional[Row] = None
    expect: object = None
    session: Optional[Tuple[str, int]] = None
    #: index of the original sessioned op this one retries (-1: none)
    retry_of: int = -1
    #: query text, or the evolution pair's two op texts
    text: object = None
    #: writes submitted from inside the first evolution's ``during`` hook
    during: List[Tuple[str, Row]] = field(default_factory=list)


@dataclass
class Inputs:
    schema: object
    fds: object
    base: Dict[str, List[Row]]
    tail: List[Tuple[str, Row]]
    #: a fresh, endless op stream per call; each call replays the same ops
    stream: Callable[[], Iterator[Op]]
    #: writes the client keeps outstanding (1: synchronous)
    window: int
    #: evolution pairs run on the idle server after the timed phase
    epilogue: List[Op]
    #: window targets read once at the end of set-up, which builds the
    #: lazily chased tableaux a restarted server needs before serving
    prewarm: List[str]
    #: ops of the same stream served before the timed phase (about two
    #: seconds' worth); peak memory is read after them
    warmup_ops: int = 2500
    #: set-ups per run, half before serving and half after the checks,
    #: so their median samples the host at two times; enough that a
    #: run spends several seconds in set-up
    setup_reps: int = 10
    #: served queries re-checked against the from-scratch oracle after
    #: the timed phase; the oracle re-chases the whole state per scan leaf
    oracle_sample: int = 12


def _zipf_weights(n: int, s: float) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


class _Deck:
    """Draws in rounds of exact quotas: each round holds every item
    ``round(share * size)`` times (at least once), in a seeded shuffle.
    Two seeds then give different orders of nearly the same mix, so
    the spread between runs measures the program, not the dice."""

    def __init__(self, rng: random.Random, items, weights, size: int):
        total = sum(weights)
        self.round = [
            item
            for item, weight in zip(items, weights)
            for _ in range(max(1, round(weight / total * size)))
        ]
        self.rng = rng
        self.queue: list = []

    def draw(self):
        if not self.queue:
            self.queue = list(self.round)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class _Settling:
    """Rows inserted at known op indices, released into the usable
    pools once the client is guaranteed to have seen their acks."""

    def __init__(self, window: int):
        self.window = window
        self.pending: Deque[Tuple[int, str, Row, bool]] = deque()

    def add(self, index: int, scheme: str, row: Row, deletable: bool) -> None:
        self.pending.append((index, scheme, row, deletable))

    def release(self, index: int, deletable: Dict[str, Deque[Row]],
                readable: Dict[str, List[Row]]) -> None:
        while self.pending and self.pending[0][0] <= index - self.window:
            _, scheme, row, can_delete = self.pending.popleft()
            if can_delete:
                deletable[scheme].append(row)
            else:
                readable[scheme].append(row)


def _star_row(k: int, key: str, tag: str) -> Row:
    return {f"K{k}": key, f"A{k}a": f"a{tag}", f"A{k}b": f"b{tag}"}


def _point_read(k: int, row: Row) -> Op:
    key = row[f"K{k}"]
    return Op(
        "read",
        text=f"select(K{k}='{key}', [K{k} A{k}a A{k}b])",
        expect=frozenset([canon(row)]),
    )


def ingest_inputs(workload: str, seed: int) -> Inputs:
    """``ingest``: a 16-scheme disjoint star.  The client keeps 64
    writes outstanding with Zipf-skewed scheme choice, so the hot
    shards pass several snapshot cycles; the store grows all run.
    After the timed phase, six catalog-restoring evolution pairs run on
    the coldest schemes, four ``add-attr``/``drop-attr`` and two
    ``split``/``merge``, each first evolution with writes submitted
    from inside its ``during`` hook."""
    n_schemes = 16
    base_rows = 400
    window = 64
    schema, fds = disjoint_star_schema(n_schemes)
    base = {
        f"R{k}": [_star_row(k, f"b{k}-{i}", f"{k}-{i}") for i in range(base_rows)]
        for k in range(1, n_schemes + 1)
    }
    # fresh keys carry a prefix per source (WAL tail, stream, epilogue)
    # and a counter, so no two inserts collide
    tail = [(f"R{1 + i % n_schemes}", _star_row(1 + i % n_schemes, f"t-{i}", f"t{i}"))
            for i in range(512)]

    def stream() -> Iterator[Op]:
        rng = random.Random(f"{workload}:{seed}:ops")
        # the first half of each base relation is never deleted: FD
        # violations and reads use it
        pinned = {name: rows[: base_rows // 2] for name, rows in base.items()}
        readable = {name: list(rows) for name, rows in pinned.items()}
        deletable = {name: deque(rows[base_rows // 2:]) for name, rows in base.items()}
        counter = 0

        def fresh(k: int) -> Row:
            nonlocal counter
            counter += 1
            return _star_row(k, f"f{k}-{counter}", f"f{counter}")

        def violating(k: int) -> Row:
            nonlocal counter
            victim = rng.choice(pinned[f"R{k}"])
            counter += 1
            return _star_row(k, victim[f"K{k}"], f"v{counter}")

        settling = _Settling(window)
        sessions = {name: [0, 0] for name in base}  # round-robin, last seq
        schemes = _Deck(rng, range(1, n_schemes + 1), _zipf_weights(n_schemes, 1.1), 1000)
        kinds = _Deck(rng, ("read", "del", "session", "bad", "ins"),
                      (16, 6, 11, 17, 150), 200)
        retry = _Deck(rng, (True, False), (3, 7), 10)
        session_bad = _Deck(rng, (True, False), (1, 9), 10)
        deletable_fresh = _Deck(rng, (True, False), (1, 1), 2)
        i = 0
        while True:
            settling.release(i, deletable, readable)
            k = schemes.draw()
            name = f"R{k}"
            kind = kinds.draw()
            if kind == "del" and not deletable[name]:
                kind = "ins"
            if kind == "read":
                yield _point_read(k, rng.choice(readable[name]))
            elif kind == "del":
                pool = deletable[name]
                pool.rotate(-rng.randrange(len(pool)))
                yield Op("del", name, pool.popleft(), expect=True)
            elif kind == "session":
                # a sessioned write; three in ten are resent as retries
                sid = f"s-{name}-{sessions[name][0] % 4}"
                sessions[name][0] += 1
                sessions[name][1] += 1
                stamp = (sid, sessions[name][1])
                if session_bad.draw():
                    original = Op("ins", name, violating(k), False, stamp)
                else:
                    original = Op("ins", name, fresh(k), True, stamp)
                    settling.add(i, name, original.row, False)
                yield original
                if retry.draw():
                    i += 1
                    yield Op("ins", name, original.row, original.expect,
                             stamp, retry_of=i - 1)
            elif kind == "bad":
                yield Op("ins", name, violating(k), False)
            else:
                row = fresh(k)
                settling.add(i, name, row, deletable_fresh.draw())
                yield Op("ins", name, row, True)
            i += 1

    # the coldest schemes, so the idle-server evolutions stay small;
    # two of the six pairs are split/merge, so the median of the twelve
    # evolutions falls among the add/drop ones, not between two kinds
    epilogue = []
    for n, k in enumerate(range(n_schemes, n_schemes - 6, -1)):
        name = f"R{k}"
        if n not in (1, 4):
            pair = (f"add-attr {name} X{k} = 0", f"drop-attr {name} X{k}")
        else:
            pair = (f"split {name} -> {name}p(K{k},A{k}a) + {name}q(K{k},A{k}b)",
                    f"merge {name}p + {name}q -> {name}")
        during = [(name, _star_row(k, f"e-{n}", f"e{n}")),
                  (f"R{k - 6}", _star_row(k - 6, f"e-{n}", f"e{n}"))]
        epilogue.append(Op("evolve", text=pair, during=during))
    prewarm = [f"K{k} A{k}a A{k}b" for k in range(1, n_schemes + 1)]
    # ingest's final state is the largest, and the oracle's cost grows
    # with it
    return Inputs(schema, fds, base, tail, stream, window, epilogue, prewarm,
                  warmup_ops=6000, oracle_sample=3)


def _chain_templates(n_attrs: int) -> Dict[str, List[str]]:
    """Query shapes over the chain, by kind; ``{}`` marks the slot of
    a fresh filter value.  321 shapes in all, more than the 256-entry
    plan and result caches hold."""
    a = [f"A{i}" for i in range(1, n_attrs + 1)]
    pairs = [(i, j) for i in range(n_attrs) for j in range(i + 1, n_attrs)]
    triples = [
        (i, m, j)
        for i in range(n_attrs)
        for m in range(i + 1, n_attrs)
        for j in range(m + 1, n_attrs)
    ]
    return {
        "select": [f"select({a[i]}={{}}, [{a[i]} {a[j]}])" for i, j in pairs]
        + [f"select({a[j]}={{}}, [{a[i]} {a[j]}])" for i, j in pairs]
        + [f"select({a[m]}={{}}, [{a[i]} {a[m]} {a[j]}])" for i, m, j in triples]
        + [f"select({a[i]}={{}}, [{a[i]} {a[m]} {a[j]}])" for i, m, j in triples],
        "scan": [f"[{a[i]} {a[j]}]" for i, j in pairs]
        + [f"project({a[i]} {a[j]}, [{a[i]} {a[m]} {a[j]}])" for i, m, j in triples
           if j - i <= 3],
        "join": [f"join(select({a[i]}={{}}, [{a[i]} {a[m]}]), [{a[m]} {a[j]}])"
                 for i, m, j in triples if j - i <= 3]
        + [f"join([{a[i]} {a[m]}], [{a[m]} {a[j]}])" for i, m, j in triples
           if j - i == 2],
    }


def chain_inputs(workload: str, seed: int) -> Inputs:
    """``query-mix``: an 8-scheme chain, one request in flight, 88 %
    reads and 12 % synchronous writes.  Writes add and remove chain
    links (so the composer has incremental work) and keep the state
    size stationary."""
    n_schemes = 8
    n_attrs = n_schemes + 1
    chains = 200
    schema, fds = chain_schema(n_schemes)
    value = lambda i, c: f"v{i}-{c}"  # noqa: E731 - attribute Ai of chain c
    base = {
        f"R{i}": [
            {f"A{i}": value(i, c), f"A{i + 1}": value(i + 1, c)}
            for c in range(chains)
        ]
        for i in range(1, n_schemes + 1)
    }

    def link(rng: random.Random, i: int, head: str) -> Row:
        # a new head value linked into an existing chain, so the
        # composer derives new facts from it
        return {f"A{i}": head, f"A{i + 1}": value(i + 1, rng.randrange(chains))}

    tail_rng = random.Random(f"{workload}:{seed}:tail")
    tail = [(f"R{1 + t % n_schemes}", link(tail_rng, 1 + t % n_schemes, f"t{t}"))
            for t in range(256)]
    templates = _chain_templates(n_attrs)
    kind_share = {"select": 0.96, "scan": 0.02, "join": 0.02}
    shapes, weights = [], []
    for kind, group in templates.items():
        zipf = _zipf_weights(len(group), 0.9)
        shapes += group
        weights += [kind_share[kind] * w / sum(zipf) for w in zipf]

    def stream() -> Iterator[Op]:
        rng = random.Random(f"{workload}:{seed}:ops")
        reads = _Deck(rng, shapes, weights, 2500)
        kinds = _Deck(rng, ("read", "ins", "bad", "del"), (176, 11, 1, 12), 200)
        live: Deque[Tuple[str, Row]] = deque()
        counter = 0
        while True:
            kind = kinds.draw()
            i = rng.randrange(1, n_schemes + 1)
            counter += 1
            if kind == "read":
                shape = reads.draw()
                if "{}" in shape:
                    attr = int(shape.split("=", 1)[0].rsplit("A", 1)[1])
                    shape = shape.format(f"'{value(attr, rng.randrange(chains))}'")
                yield Op("read", text=shape)
            elif kind == "bad":
                row = {f"A{i}": value(i, rng.randrange(chains)),
                       f"A{i + 1}": f"x{i + 1}-{counter}"}
                yield Op("ins", f"R{i}", row, False)
            elif kind == "ins" or not live:
                row = link(rng, i, f"n{i}-{counter}")
                live.append((f"R{i}", row))
                yield Op("ins", f"R{i}", row, True)
            else:
                name, row = live.popleft()
                yield Op("del", name, row, True)

    epilogue = [Op("evolve", text=(f"add-attr R{i} X = 0", f"drop-attr R{i} X"))
                for i in (8, 7, 6, 5, 4, 3)]
    prewarm = [f"A{i} A{i + 1}" for i in range(1, n_schemes + 1)] + ["A1 A9"]
    return Inputs(schema, fds, base, tail, stream, 1, epilogue, prewarm,
                  setup_reps=24)


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "query-mix":
        return chain_inputs(workload, seed)
    return ingest_inputs(workload, seed)
