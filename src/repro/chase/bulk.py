"""Column-major bulk chase kernel for from-scratch FD fixpoints.

The incremental engine (:mod:`repro.chase.engine`) is built for *live*
tableaux: persistent per-FD partitions, a dirty-row worklist, and full
index maintenance on every merge, so that one inserted tuple costs the
cascade it actually triggers.  All of that machinery is pure overhead
on the paths that chase a **fresh** tableau to fixpoint and only then
start serving: service cold loads, delete-fallback and compaction
rebuilds, one-shot representative instances, and
``MaintenanceChecker(method="chase")`` batch validation.  This module
executes those chases **set-at-a-time**:

* The tableau is snapshotted into per-column dense ``array('q')``
  symbol vectors (one ``zip`` transpose — rows are never walked
  row-at-a-time again).
* Every column some FD keys on gets a **class chain**: an intrusive
  linked list over row indexes (``next`` stored in one int array per
  column, head/tail per class root), grouping the column's rows by
  symbol class.  On a fresh columnar tableau every class lives in
  exactly one column (constants intern per column, padding variables
  are fresh, and the FD-rule only ever merges two symbols of the same
  column), so concatenating two chains under the union's surviving
  root is O(1) and keeps the grouping exact throughout the run.
* The fixpoint is **semi-naive at class granularity**: one seeding
  pass buckets each FD's left-hand side over its whole column(s) and
  merges the right-hand sides of same-key rows batch-wise; after that,
  a worklist of ``(column, class, delta-chain)`` records — appended by
  each union — drives re-examination of exactly the rows that just
  joined a class, under exactly the FDs whose lhs mentions that
  column.  No per-row dirty sets, no full re-bucketing rounds.
* Unions go straight into the shared :class:`~repro.util.unionfind.
  IntUnionFind` (inlined union-by-size with the symbol table's
  constant/contradiction handling), bypassing
  :meth:`~repro.chase.tableau.ChaseTableau.merge` entirely.  The
  bookkeeping that method would have done is settled once at the end
  by :meth:`~repro.chase.tableau.ChaseTableau.install_bulk_chase`:
  merge count, deferred occurrence index, and — when requested — the
  batch-recorded merge provenance, installed into the same log
  indexes the live path maintains.

The result is a tableau *indistinguishable* from one chased by the
incremental engine (the randomized three-way oracle suite pins bulk
vs. incremental vs. naive): :class:`~repro.chase.engine.
IncrementalFDChaser` can adopt it mid-flight via the handoff seam
(its per-FD buckets seeded from :meth:`BulkFDChaser.handoff_buckets`),
after which appends chase incrementally and provenance-scoped deletes
retract against the bulk-recorded log exactly as if every merge had
been logged live.

Scope: the kernel handles the FD-rule only (the paper's polynomial
fast path, Lemma 4) and requires :attr:`~repro.chase.tableau.
ChaseTableau.bulk_eligible` — fresh, columnar, nothing retracted.
``chase_fds``/``chase`` route eligible tableaux here automatically
above :data:`BULK_MIN_ROWS` rows; everything else stays on the
incremental engine.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from repro.chase.engine import ChaseResult, ChaseStep, Contradiction
from repro.chase.tableau import ChaseTableau, RowOrigin, _CONST_SENTINEL
from repro.deps.fd import FD
from repro.exceptions import InstanceError

#: Below this many rows the bulk kernel's columnar setup costs more
#: than it saves and auto-routing keeps the row-at-a-time path (the
#: kernel itself works at any size — tests force it on tiny tableaux).
BULK_MIN_ROWS = 128

_SENT = _CONST_SENTINEL


def bulk_eligible(tableau: ChaseTableau) -> bool:
    """Should an automatic router send this from-scratch chase through
    the bulk kernel?  Structural eligibility (fresh + columnar) plus
    the size cutoff."""
    return tableau.bulk_eligible and len(tableau) >= BULK_MIN_ROWS


def ingest_state(schema, state, tableau: Optional[ChaseTableau] = None):
    """Column-major bulk ingest of a whole database state into a fresh
    tableau — the cold-load path shared by service rebuilds and the
    durable layer's snapshot recovery.

    Duplicate tuples within a relation collapse to one row (set
    semantics, matching the maintenance checker), and the returned
    ``(scheme name, tuple) → row`` locator names each tuple's single
    row, which is what provenance-scoped deletes retract.  The rows go
    through :meth:`~repro.chase.tableau.ChaseTableau.bulk_ingest`, so
    the resulting tableau is in the column-major layout the bulk
    kernel wants (``bulk_eligible`` until something chases or retracts
    it).  Pass a pre-built ``tableau`` to keep caller-applied settings
    such as a version-stamp floor; it must be empty.
    """
    if tableau is None:
        tableau = ChaseTableau(schema.universe)
    row_of: Dict[PyTuple[str, object], int] = {}
    ingest = tableau.bulk_ingest()
    for scheme, relation in state:
        origin = RowOrigin("state", scheme.name)
        attrs = scheme.attributes
        name = scheme.name
        for t in relation:
            key = (name, t)
            if key in row_of:
                continue
            row_of[key] = ingest.add_padded(attrs, t, origin)
    ingest.finish()
    return tableau, row_of


class BulkFDChaser:
    """One bulk FD-fixpoint run over one fresh tableau.

    Construct, :meth:`run` once, then either read the
    :class:`~repro.chase.engine.ChaseResult` and drop the object
    (batch validation), or hand it to
    :class:`~repro.chase.engine.IncrementalFDChaser` as the
    ``_handoff`` seed so the live engine continues where the kernel
    stopped (service cold loads).  ``log_merges=True`` batch-records
    merge provenance so the chased tableau supports provenance-scoped
    retraction, exactly like a live-logged one.
    """

    __slots__ = ("tableau", "fds", "_log_merges", "_buckets", "_ran")

    def __init__(
        self,
        tableau: ChaseTableau,
        fd_list: Sequence[FD],
        log_merges: bool = False,
    ):
        # reject ineligible tableaux before any side effect: enabling
        # the merge log on a tableau with pre-existing unlogged merges
        # would gap its log for good, even though run() never chases
        if not tableau.bulk_eligible:
            raise InstanceError(
                "the bulk kernel needs a fresh columnar tableau (no "
                "merges, no retractions, per-column symbols); chase "
                "incrementally instead"
            )
        self.tableau = tableau
        self.fds = tuple(fd_list)
        self._log_merges = log_merges
        self._buckets: Optional[List[Dict]] = None
        self._ran = False
        if log_merges:
            tableau.enable_merge_log()

    # -- the kernel -------------------------------------------------------------

    def run(self, record_steps: bool = False) -> ChaseResult:
        """Drive the FD-rule to fixpoint set-at-a-time (see the module
        docstring for the algorithm)."""
        if self._ran:
            raise InstanceError("a BulkFDChaser runs exactly once")
        self._ran = True
        tableau = self.tableau
        if not tableau.bulk_eligible:
            # eligibility was checked at construction; it only degrades
            # if someone mutated the tableau in between
            raise InstanceError(
                "tableau stopped being bulk-eligible between kernel "
                "construction and run()"
            )
        fds = self.fds
        result = ChaseResult(tableau=tableau, consistent=True)
        symbols = tableau.symbols
        uf = symbols._uf
        parent = uf._parent
        size = uf._size
        find = uf.find
        const = symbols._const
        const_get = const.get
        const_pop = const.pop
        rows = tableau._rows
        n = len(rows)
        col_names = tableau.columns
        ncols = len(col_names)
        colidx = tableau._colidx
        self._buckets = buckets = [dict() for _ in fds]
        events: Optional[List[PyTuple]] = [] if self._log_merges else None
        if n == 0 or not fds:
            tableau.install_bulk_chase(0, events)
            return result

        # columnar snapshot: per-column dense symbol vectors
        cols = [array("q", col) for col in zip(*rows)]

        # -- per-FD metadata ---------------------------------------------------
        singles: List[PyTuple] = []   # (k, lhs_idx, rhs_idx, fd)
        multis: List[PyTuple] = []
        lhs_cols_used: Set[int] = set()
        fds_by_col: Dict[int, List[int]] = {}
        # per-FD column metadata, shared by the seeding pass and the
        # drain (one derivation — the two phases must never disagree)
        fd_meta: Dict[int, PyTuple] = {}
        for k, f in enumerate(fds):
            lhs_idx = tuple(colidx[a] for a in f.lhs)
            rhs_idx = tuple(colidx[a] for a in f.effective_rhs)
            if not rhs_idx:
                continue  # trivial FD: nothing to equate
            for c in lhs_idx:
                lhs_cols_used.add(c)
                fds_by_col.setdefault(c, []).append(k)
            entry = (k, lhs_idx, rhs_idx, f)
            fd_meta[k] = entry
            (singles if len(lhs_idx) == 1 else multis).append(entry)

        # -- class chains over every keyed column ------------------------------
        # heads/tails: class root -> first/last row of the class in the
        # column; nxts: per-column intrusive next-row array.  shared
        # collects the roots held by >=2 rows at build time — the only
        # seeding-pass candidates (a class that becomes shared later
        # does so through a union, which enqueues it on the worklist).
        heads: List[Optional[Dict[int, int]]] = [None] * ncols
        tails: List[Optional[Dict[int, int]]] = [None] * ncols
        nxts: List[Optional[array]] = [None] * ncols
        shared_roots: Dict[int, List[int]] = {}
        for c in lhs_cols_used:
            hc: Dict[int, int] = {}
            tc: Dict[int, int] = {}
            nc = array("q", bytes(8 * n))
            shared: List[int] = []
            col = cols[c]
            tc_get = tc.get
            for i in range(n):
                s = col[i]
                last = tc_get(s)
                if last is None:
                    hc[s] = i
                else:
                    if hc[s] == last:  # second member: class became shared
                        shared.append(s)
                    nc[last] = i
                tc[s] = i
                nc[i] = -1
            heads[c], tails[c], nxts[c] = hc, tc, nc
            shared_roots[c] = shared

        dirty: deque = deque()
        dirty_append = dirty.append
        merges = 0
        steps = result.steps if record_steps else None

        def merge_pair(leader: int, r: int, rhs_idx, lhs_idx, f) -> bool:
            """Cold-path FD application to one row pair (seeding pass,
            multi-column lhs, multi-column rhs); the hot drain loop
            below inlines the same logic.  Returns False on
            contradiction."""
            nonlocal merges
            lead_row = rows[leader]
            row = rows[r]
            for jj in rhs_idx:
                a = lead_row[jj]
                ra = parent[a]
                if parent[ra] != ra:
                    ra = find(a)
                b = row[jj]
                rb = parent[b]
                if parent[rb] != rb:
                    rb = find(b)
                if rb == ra:
                    continue
                ca = const_get(ra, _SENT)
                cb = const_get(rb, _SENT)
                if ca is not _SENT and cb is not _SENT and ca != cb:
                    result.consistent = False
                    result.contradiction = Contradiction(
                        fd=f, attribute=col_names[jj], values=(ca, cb),
                        row_a=leader, row_b=r,
                    )
                    if steps is not None:
                        steps.append(ChaseStep(
                            fd=f, attribute=col_names[jj], row_a=leader, row_b=r,
                        ))
                    return False
                if size[ra] < size[rb]:
                    sroot, absorbed = rb, ra
                else:
                    sroot, absorbed = ra, rb
                parent[absorbed] = sroot
                size[sroot] += size[absorbed]
                if ca is not _SENT or cb is not _SENT:
                    const_pop(absorbed, None)
                    const[sroot] = ca if ca is not _SENT else cb
                merges += 1
                if events is not None:
                    events.append((leader, r, jj, a, b, lhs_idx, f))
                if steps is not None:
                    steps.append(ChaseStep(
                        fd=f, attribute=col_names[jj], row_a=leader, row_b=r,
                    ))
                hj = heads[jj]
                if hj is not None:
                    hb = hj.pop(absorbed, None)
                    if hb is not None:
                        tj = tails[jj]
                        tb = tj.pop(absorbed)
                        if sroot in hj:
                            nxts[jj][tj[sroot]] = hb
                        else:
                            hj[sroot] = hb
                        tj[sroot] = tb
                        dirty_append((jj, sroot, hb))
            return True

        # -- seeding pass: bucket whole columns, merge same-key rows -----------
        consistent = True
        for k, lhs_idx, rhs_idx, f in singles:
            bk = buckets[k]
            c = lhs_idx[0]
            hc, nc = heads[c], nxts[c]
            for root in shared_roots[c]:
                h = hc.get(root)
                if h is None:
                    continue  # absorbed by an earlier union; its
                    # survivor is on the worklist
                bk[root] = h
                r = nc[h]
                while r != -1:
                    if not merge_pair(h, r, rhs_idx, lhs_idx, f):
                        consistent = False
                        break
                    r = nc[r]
                if not consistent:
                    break
            if not consistent:
                break
        if consistent:
            for k, lhs_idx, rhs_idx, f in multis:
                bk = buckets[k]
                lhs_arrs = [cols[c] for c in lhs_idx]
                for i in range(n):
                    key_parts = []
                    for col in lhs_arrs:
                        s = col[i]
                        rr = parent[s]
                        if parent[rr] != rr:
                            rr = find(s)
                        key_parts.append(rr)
                    key = tuple(key_parts)
                    leader = bk.get(key)
                    if leader is None:
                        bk[key] = i
                    elif not merge_pair(leader, i, rhs_idx, lhs_idx, f):
                        consistent = False
                        break
                if not consistent:
                    break

        # -- per-column drain metadata ----------------------------------------
        # (bucket, single-rhs col or None, rhs_idx, lhs_idx, fd, single-lhs?)
        col_fds: List[Optional[List[PyTuple]]] = [None] * ncols
        for c, ks in fds_by_col.items():
            entries = []
            for k in ks:
                _, lhs_idx, rhs_idx, f = fd_meta[k]
                is_single = len(lhs_idx) == 1
                single_rhs = rhs_idx[0] if is_single and len(rhs_idx) == 1 else None
                entries.append(
                    (buckets[k], single_rhs, rhs_idx, lhs_idx, f, is_single)
                )
            col_fds[c] = entries

        # -- semi-naive drain: (column, class, delta-chain) records ------------
        while consistent and dirty:
            j, root, delta = dirty.popleft()
            r0 = parent[root]
            if parent[r0] != r0:
                r0 = find(root)
            nc = nxts[j]
            for bk, single_rhs, rhs_idx, lhs_idx, f, is_single in col_fds[j]:
                if is_single:
                    leader = bk.get(r0)
                    if leader is None:
                        # first touch of this class under this FD: lead
                        # and sweep the whole chain, not just the delta
                        start = heads[j].get(r0)
                        if start is None:
                            continue  # absorbed since queueing; the
                            # survivor's record covers these rows
                        bk[r0] = leader = start
                    else:
                        start = delta
                    if single_rhs is None:
                        r = start
                        while r != -1:
                            if r != leader and not merge_pair(
                                leader, r, rhs_idx, lhs_idx, f
                            ):
                                consistent = False
                                break
                            r = nc[r]
                        if not consistent:
                            break
                        continue
                    # ---- hot path: 1-column lhs and rhs, fully inlined;
                    # the leader's class root and constant are carried
                    # across the walk instead of re-resolved per pair ----
                    jj = single_rhs
                    a = rows[leader][jj]
                    ra = parent[a]
                    if parent[ra] != ra:
                        ra = find(a)
                    ca = const_get(ra, _SENT)
                    r = start
                    while r != -1:
                        if r != leader:
                            b = rows[r][jj]
                            rb = parent[b]
                            if parent[rb] != rb:
                                rb = find(b)
                            if rb != ra:
                                cb = const_get(rb, _SENT)
                                if cb is not _SENT and ca is not _SENT and ca != cb:
                                    result.consistent = False
                                    result.contradiction = Contradiction(
                                        fd=f, attribute=col_names[jj],
                                        values=(ca, cb), row_a=leader, row_b=r,
                                    )
                                    if steps is not None:
                                        steps.append(ChaseStep(
                                            fd=f, attribute=col_names[jj],
                                            row_a=leader, row_b=r,
                                        ))
                                    consistent = False
                                    break
                                if size[ra] < size[rb]:
                                    sroot, absorbed = rb, ra
                                else:
                                    sroot, absorbed = ra, rb
                                parent[absorbed] = sroot
                                size[sroot] += size[absorbed]
                                if cb is not _SENT:
                                    const_pop(absorbed, None)
                                    const[sroot] = ca = ca if ca is not _SENT else cb
                                elif ca is not _SENT:
                                    const_pop(absorbed, None)
                                    const[sroot] = ca
                                merges += 1
                                if events is not None:
                                    events.append(
                                        (leader, r, jj, a, b, lhs_idx, f)
                                    )
                                if steps is not None:
                                    steps.append(ChaseStep(
                                        fd=f, attribute=col_names[jj],
                                        row_a=leader, row_b=r,
                                    ))
                                hj = heads[jj]
                                if hj is not None:
                                    hb = hj.pop(absorbed, None)
                                    if hb is not None:
                                        tj = tails[jj]
                                        tb = tj.pop(absorbed)
                                        if sroot in hj:
                                            nxts[jj][tj[sroot]] = hb
                                        else:
                                            hj[sroot] = hb
                                        tj[sroot] = tb
                                        dirty_append((jj, sroot, hb))
                                ra = sroot
                        r = nc[r]
                    if not consistent:
                        break
                else:
                    # multi-column lhs: re-key exactly the delta rows
                    lhs_arrs = [cols[c] for c in lhs_idx]
                    r = delta
                    while r != -1:
                        key_parts = []
                        for col in lhs_arrs:
                            s = col[r]
                            rr = parent[s]
                            if parent[rr] != rr:
                                rr = find(s)
                            key_parts.append(rr)
                        key = tuple(key_parts)
                        leader = bk.get(key)
                        if leader is None:
                            bk[key] = r
                        elif leader != r and not merge_pair(
                            leader, r, rhs_idx, lhs_idx, f
                        ):
                            consistent = False
                            break
                        r = nc[r]
                    if not consistent:
                        break

        result.fd_merges = merges
        tableau.install_bulk_chase(merges, events)
        return result

    # -- the handoff seam -------------------------------------------------------

    def handoff_buckets(self) -> List[Dict]:
        """Per-FD lhs-key partitions for seeding an incremental
        :class:`~repro.chase.engine._FDRuleIndex` over the chased
        tableau (same shape: single-attribute lhs keyed by class root,
        multi-attribute by root tuple, values are leader rows).

        Keys are re-resolved to current roots — entries recorded under
        since-absorbed roots collapse onto the surviving class (any of
        the colliding leaders is valid: their right-hand sides were
        merged by the run that collapsed them).
        """
        if self._buckets is None:
            raise InstanceError("run() the kernel before handing off")
        find = self.tableau.symbols.find
        out: List[Dict] = []
        for k, f in enumerate(self.fds):
            bk = self._buckets[k]
            if len(f.lhs) == 1:
                out.append({find(root): leader for root, leader in bk.items()})
            else:
                out.append({
                    tuple(find(x) for x in key): leader
                    for key, leader in bk.items()
                })
        return out


def chase_fds_bulk(
    tableau: ChaseTableau,
    fd_list: Sequence[FD],
    log_merges: bool = False,
    record_steps: bool = False,
) -> ChaseResult:
    """Chase a fresh columnar tableau with the FD-rule to fixpoint,
    set-at-a-time (the bulk counterpart of
    :func:`repro.chase.engine.chase_fds`)."""
    return BulkFDChaser(tableau, fd_list, log_merges=log_merges).run(
        record_steps=record_steps
    )
