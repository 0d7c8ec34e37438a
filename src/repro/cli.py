"""Command-line interface.

Usage::

    python -m repro analyze <scenario-file>     # independence analysis
    python -m repro check <scenario-file>       # does the state satisfy Σ?
    python -m repro query <scenario-file> -a "T H R"
    python -m repro query <scenario-file> -q "select(C=CS101, [C H R])"
    python -m repro serve <scenario-file> --ops <ops-file>
    python -m repro evolve <scenario-file> -q "split CHR -> CH(C,H) + CR(C,R)"
    python -m repro verify-store <dir>          # offline durable-store scrub
    python -m repro demo                        # the paper's examples

``serve`` keeps a live weak-instance service over the scenario's state
and runs an operation script (from ``--ops`` or stdin), one op per
line.  ``--method chase`` (the default) serves any schema through one
global :class:`~repro.weak.service.WeakInstanceService`;
``--method local`` requires an independent schema — validated up front,
with the Lemma 3 / Theorem 4 counterexample report printed on refusal —
and serves through the per-scheme
:class:`~repro.weak.sharded.ShardedWeakInstanceService`::

    insert CHR (CS101, Tue-9, 313)
    delete CT (CS102, Jones)
    query T H R
    query select(C=CS101, [C H R])
    explain project(T S, join([C T], [C S]))
    derivable T=Smith H=Mon-10 R=313
    snapshot
    health
    repair CHR
    failover CHR
    rejoin CHR
    stats
    schema
    evolve add-attr CHR X = TBA

``schema`` prints the active epoch (plus any pinned older epochs),
each shard's scheme and maintenance cover, and the migration status;
``evolve <op>`` applies a schema-evolution operation online (see
:mod:`repro.schema.evolution` for the op syntax) — only the affected
shards rebuild, the rest keep serving, and a rejected evolution
prints the counterexample report and leaves the old epoch serving.
The standalone ``evolve`` subcommand applies a semicolon-separated
batch (``-q``) against a scenario or a ``--durable`` store and exits
nonzero at the first rejection.

``query`` takes either plain attributes (the ``[X]``-window) or a
relational expression in the compact form of
:mod:`repro.query.parser` (``select(...)``, ``project(...)``,
``join(...)``, ``[attrs]``); result rows print in canonical attribute
order, sorted and tab-separated, with the count on the summary line.
``explain`` runs an expression and prints the planner's routing
(the shards each scan's plan reads, pushed filters, cache traffic)
instead of the rows.

``stats`` prints the service's operation counters (rebuilds, scoped
delete rechases, cache hits/misses, affected-set sizes), so the
incremental claims are observable mid-stream; a one-line summary is
printed at the end of every run regardless.  A line that fails
mid-stream flushes everything already served, reports the offending
line number on stderr, and exits nonzero.

``--durable DIR`` (with ``--method local``) persists the state in
``DIR`` — per-shard write-ahead logs with group commit, periodic
snapshots (``--snapshot-interval``), and recovery on reopen; the
``snapshot`` op forces one.  ``--workers N`` serves through the
concurrent front end of :mod:`repro.weak.server`; ``--max-queue``
bounds each worker's queue (overflowing submits are shed with a typed
error instead of growing memory).  The ``health`` op prints per-shard
status (serving / degraded / quarantined) and, under ``--workers``,
queue depths; ``repair <scheme>`` rebuilds one quarantined shard
online from its newest good snapshot generation plus WAL replay.

``--replicas N`` (with ``--durable``) gives the same service a
list of N replica stores (sibling directories by default,
``--replica-root`` to place them) and ships every shard's WAL to them;
a persistently quarantined shard fails over to its most-caught-up
replica automatically, the ``failover``/``rejoin`` ops drive the
lifecycle by hand (without replicas they report a typed
``NoPromotableReplicaError``/``ReplicationError`` line), and
``health`` shows the current primary plus per-replica lag.

``verify-store DIR`` scrubs a durable directory offline — every
snapshot generation's structure and CRC, every WAL frame — and exits
nonzero when it finds anything worse than a torn tail (the expected
residue of a crash).  Run it before reopening a store that survived a
disk incident; ``repair`` is the online counterpart for a single
quarantined shard.  ``--replica DIR`` (repeatable) scrubs replica
stores alongside and cross-checks their frame CRCs against the
primary's: behind is information, divergence is a failure.

Scenario files use the DSL of :mod:`repro.dsl`::

    schema: CT(C,T); CS(C,S); CHR(C,H,R)
    fds: C -> T; C H -> R
    state:
      CT: (CS101, Smith)
      CHR: (CS101, Mon-10, 313)
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.chase.satisfaction import satisfies
from repro.core.independence import analyze
from repro.dsl import Scenario, parse_scenario, parse_tuples, parse_value
from repro.exceptions import EvolutionRejectedError, ParseError, ReproError
from repro.query.naive import evaluate_naive
from repro.report import banner
from repro.schema.evolution import parse_evolution_op
from repro.weak.durable import verify_store
from repro.weak.representative import window
from repro.weak.server import WeakInstanceServer
from repro.weak.service import WeakInstanceService
from repro.weak.sharded import ShardedServiceStats, ShardedWeakInstanceService
from repro.workloads.paper import ALL_EXAMPLES


def _load(path: str) -> Scenario:
    text = pathlib.Path(path).read_text()
    return parse_scenario(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    report = analyze(scenario.schema, scenario.fds, engine=args.engine)
    print(report.summary())
    return 0 if report.independent else 1


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario.state is None:
        print("scenario has no state section", file=sys.stderr)
        return 2
    result = satisfies(scenario.state, scenario.fds)
    if result.satisfies:
        print("SATISFYING — a weak instance exists")
        return 0
    print(f"NOT SATISFYING — {result.chase_result.contradiction}")
    return 1


def _render_rows(facts) -> "list[str]":
    """Result rows in canonical attribute order: one line per fact,
    values tab-separated in the relation's (naturally sorted)
    attribute order, lines sorted for determinism."""
    return sorted(
        "  " + "\t".join(str(t.value(a)) for a in facts.attributes)
        for t in facts
    )


#: prefixes that mark a ``query`` operand as a relational expression
#: rather than a plain attribute list
_QUERY_EXPR_PREFIXES = ("[", "select(", "project(", "join(")


def _is_query_expression(text: str) -> bool:
    compact = text.replace(" ", "").lower()
    return compact.startswith(_QUERY_EXPR_PREFIXES)


def _cmd_query(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario.state is None:
        print("scenario has no state section", file=sys.stderr)
        return 2
    if args.query is not None:
        facts = evaluate_naive(args.query, scenario.state, scenario.fds)
    else:
        facts = window(scenario.state, scenario.fds, args.attributes)
    for line in _render_rows(facts):
        print(line)
    print(f"({len(facts)} derivable fact(s) over {facts.attributes})")
    return 0


def _serve_one(
    service: "WeakInstanceService | ShardedWeakInstanceService", line: str
) -> str:
    """Execute one ops-script line against the service; returns the
    line to print."""
    parts = line.split(None, 1)
    op, rest = parts[0].lower(), parts[1] if len(parts) > 1 else ""
    if op == "stats":
        if isinstance(service, WeakInstanceServer):
            counters = service.stats_dict()
        else:
            counters = service.stats.as_dict()
        lines = [f"  {name} = {value}" for name, value in counters.items()]
        return "\n".join(["stats:"] + lines)
    if op == "snapshot":
        if not hasattr(service, "snapshot"):
            raise ParseError(
                "snapshot requires a durable service (serve --durable DIR)"
            )
        service.snapshot()
        return "snapshot: written"
    if op == "health":
        report = service.health()
        lines = [f"health: {report['status']}"]
        replication = report.get("replication", {}).get("shards", {})
        for name in sorted(report.get("shards", {})):
            status = report["shards"][name]
            detail = report.get("errors", {}).get(name, "")
            line = f"  {name} = {status}"
            primary = report.get("primaries", {}).get(name)
            if primary and primary != "primary":
                line += f" (primary: {primary})"
            lines.append(line + (f" — {detail}" if detail else ""))
            for label in sorted(replication.get(name, {}).get("replicas", {})):
                lag = replication[name]["replicas"][label]
                since = lag.get("seconds_since_ack")
                lines.append(
                    f"    replica {label}: {lag['lag_frames']} frame(s) "
                    "behind"
                    + (
                        f", last ack {since:.3f}s ago"
                        if since is not None
                        else ", never acked"
                    )
                    + (f" — {lag['error']}" if lag.get("error") else "")
                )
        depths = report.get("queue_depths")
        if depths is not None:
            lines.append(
                f"  queues = {depths} (max {report.get('max_queue', 0) or 'unbounded'}, "
                f"{report.get('requests_shed', 0)} shed)"
            )
        return "\n".join(lines)
    if op == "repair":
        if not hasattr(service, "repair"):
            raise ParseError(
                "repair requires a durable service (serve --durable DIR)"
            )
        if not rest.strip():
            raise ParseError(f"repair needs a scheme name: {line!r}")
        report = service.repair(rest.strip())
        return (
            f"repair {report['shard']}: {report['previous_status']} -> serving, "
            f"{report['rows']} row(s) from generation {report['generation']}, "
            f"{report['wal_records_replayed']} WAL record(s) replayed, "
            f"{report['staged_records_dropped']} unacknowledged staged record(s) dropped"
        )
    if op in ("failover", "rejoin"):
        svc = service.service if isinstance(service, WeakInstanceServer) else service
        if not hasattr(svc, op):
            raise ParseError(
                f"{op} requires a durable service with replicas (serve "
                "--durable DIR --replicas N)"
            )
        tokens = rest.split()
        if not tokens:
            raise ParseError(f"{op} needs a scheme name: {line!r}")
        scheme = tokens[0]
        if op == "failover":
            result = svc.failover(scheme, tokens[1] if len(tokens) > 1 else None)
            return (
                f"failover {result['shard']}: promoted {result['promoted']} "
                f"(demoted {result['demoted']}, replication epoch "
                f"{result['replication_epoch']}, "
                f"{result['wal_records_replayed']} WAL record(s) replayed)"
            )
        result = svc.rejoin(scheme, tokens[1] if len(tokens) > 1 else None)
        after = result["chain_after"]
        return (
            f"rejoin {result['shard']}: {result['label']} caught up "
            f"({after['rows']} row(s), {after['frames']} WAL frame(s))"
        )
    if op in ("insert", "delete"):
        scheme, _, spec = rest.partition(" ")
        if not scheme or not spec.strip():
            raise ParseError(f"{op} needs a scheme and a tuple: {line!r}")
        rows = parse_tuples(spec)
        if len(rows) != 1:
            raise ParseError(f"{op} takes exactly one tuple: {line!r}")
        if op == "delete":
            existed = service.delete(scheme, rows[0])
            return f"delete {scheme} {rows[0]}: {'ok' if existed else 'absent'}"
        outcome = service.insert(scheme, rows[0])
        verdict = "accepted" if outcome.accepted else "REJECTED"
        suffix = f" — {outcome.reason}" if outcome.reason else ""
        return f"insert {scheme} {rows[0]}: {verdict}{suffix}"
    if op == "query":
        if not rest.strip():
            raise ParseError(f"query needs attributes or an expression: {line!r}")
        if _is_query_expression(rest):
            facts = service.query(rest)
        else:
            facts = service.window(rest)
        lines = _render_rows(facts)
        lines.append(f"query {rest}: {len(facts)} derivable fact(s)")
        return "\n".join(lines)
    if op == "explain":
        if not rest.strip():
            raise ParseError(f"explain needs a query expression: {line!r}")
        expr = rest if _is_query_expression(rest) else f"[{rest}]"
        report = service.explain(expr)
        return "\n".join("  " + l for l in report.render().splitlines())
    if op == "schema":
        if not hasattr(service, "migration_status"):
            raise ParseError(
                "schema requires --method local (the per-shard catalog)"
            )
        svc = service.service if isinstance(service, WeakInstanceServer) else service
        status = service.migration_status()
        retained = status.get("retained_epochs") or []
        header = f"schema: epoch {status['epoch']}"
        if retained:
            header += " (pinned: " + ", ".join(str(e) for e in retained) + ")"
        lines = [header]
        for scheme in svc.schema:
            cover = svc.maintenance_cover(scheme.name)
            fds = "; ".join(str(f) for f in cover) if len(cover) else "(no embedded FDs)"
            lines.append(
                f"  {scheme.name}({','.join(scheme.attributes.names)}): {fds}"
            )
        migrating = status.get("migrating") or {}
        lines.append(
            "  migration: "
            + (", ".join(sorted(migrating)) if migrating else "none in flight")
        )
        return "\n".join(lines)
    if op == "evolve":
        if not hasattr(service, "evolve"):
            raise ParseError(
                "evolve requires --method local (migration is per-shard)"
            )
        if not rest.strip():
            raise ParseError(
                f"evolve needs an operation, e.g. "
                f"'evolve split CHR -> CH(C,H) + CR(C,R)': {line!r}"
            )
        evo = parse_evolution_op(rest)
        try:
            result = service.evolve(evo)
        except EvolutionRejectedError as exc:
            # a refused evolution is an *answer*, not a stream error:
            # the old epoch is untouched and the service keeps serving,
            # so print the refusal (its message carries the analysis
            # report, counterexample included) and carry on
            return f"evolve {rest}: REJECTED — {exc}"
        return f"evolve {rest}: {result.summary()}"
    if op == "derivable":
        fact = {}
        for token in rest.split():
            attr, eq, value = token.partition("=")
            if not eq:
                raise ParseError(f"derivable needs Attr=value pairs: {line!r}")
            fact[attr] = parse_value(value)
        if not fact:
            raise ParseError(f"derivable needs at least one Attr=value: {line!r}")
        return f"derivable {rest}: {'yes' if service.derivable(fact) else 'no'}"
    raise ParseError(
        f"unknown op {op!r} "
        "(insert/delete/query/explain/derivable/evolve/schema/"
        "snapshot/health/repair/failover/rejoin/stats)"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if args.durable and args.method != "local":
        print(
            "serve --durable requires --method local (the WAL is "
            "per-shard; Theorem 3 is what licenses independent "
            "per-scheme logs)",
            file=sys.stderr,
        )
        return 2
    if (args.replicas or args.replica_root) and not args.durable:
        print(
            "serve --replicas/--replica-root requires --durable DIR "
            "(replication ships the per-shard WAL)",
            file=sys.stderr,
        )
        return 2
    if args.method == "local":
        # Validate independence up front — before any op applies — so a
        # non-independent schema exits with the full analysis report
        # (the Lemma 3 / Theorem 4 counterexample) instead of a raw
        # error surfacing mid-stream from a partially served script.
        report = analyze(scenario.schema, scenario.fds)
        if not report.independent:
            print(
                "serve --method local requires an independent schema "
                "(Theorem 3); nothing was served.  Analysis:",
                file=sys.stderr,
            )
            print(report.summary(), file=sys.stderr)
            return 1
        if args.durable:
            replica_roots = list(getattr(args, "replica_root", None) or [])
            count = getattr(args, "replicas", 0)
            if count and not replica_roots:
                # default replica layout: sibling directories of the
                # primary store, one per replica
                replica_roots = [
                    f"{args.durable}-replica{k + 1}" for k in range(count)
                ]
            elif count and len(replica_roots) != count:
                print(
                    f"serve --replicas {count} got "
                    f"{len(replica_roots)} --replica-root flag(s); they "
                    "must agree (or drop --replica-root for the default "
                    "sibling-directory layout)",
                    file=sys.stderr,
                )
                return 2
            try:
                service = ShardedWeakInstanceService(
                    scenario.schema, scenario.fds, args.durable,
                    report=report,
                    snapshot_interval=args.snapshot_interval,
                    auto_commit=args.workers == 0,
                    replicas=replica_roots,
                )
            except (ReproError, OSError) as exc:
                # a corrupt or unreadable store at open time is an
                # operator problem, not a traceback: one typed line,
                # exit 1 (same convention as mid-stream op errors)
                print(
                    f"error: cannot open durable store {args.durable}: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                return 1
        else:
            service = ShardedWeakInstanceService(
                scenario.schema, scenario.fds, report=report
            )
    else:
        service = WeakInstanceService(
            scenario.schema, scenario.fds, method=args.method
        )
    recovered = args.durable and service.stats.recoveries > 0
    if recovered:
        # an existing durable directory wins over the scenario's state
        # section: the server's state is the recovered one
        print(
            f"recovered {service.total_tuples()} tuple(s) from "
            f"{args.durable} ({service.stats.snapshot_loads} snapshot(s), "
            f"{service.stats.wal_records_replayed} WAL record(s) replayed)"
        )
    elif scenario.state is not None:
        service.load(scenario.state)
    if args.ops:
        lines = pathlib.Path(args.ops).read_text().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    server = None
    if args.workers > 0:
        if not isinstance(service, ShardedWeakInstanceService):
            print(
                "serve --workers requires --method local (the router "
                "serializes writes per shard)",
                file=sys.stderr,
            )
            return 2
        server = WeakInstanceServer(
            service, workers=args.workers, max_queue=args.max_queue
        ).start()
    target = server if server is not None else service
    exit_code = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                print(_serve_one(target, line))
            except ReproError as exc:
                # flush everything already served, report the offending
                # line, and exit nonzero — a partially served script
                # must not look like a clean run
                sys.stdout.flush()
                source = args.ops if args.ops else "<stdin>"
                print(f"error at {source}:{lineno}: {exc}", file=sys.stderr)
                exit_code = 1
                break
    finally:
        if server is not None:
            server.stop()
        if args.durable:
            service.close()
    stats = service.stats
    summary = (
        f"served: {stats.window_queries} queries "
        f"({stats.window_cache_hits} cached), "
        f"{stats.inserts_accepted} inserts accepted "
        f"({stats.duplicate_inserts} duplicate), "
        f"{stats.inserts_rejected} rejected, {stats.deletes} deletes "
        f"({stats.scoped_rechases} scoped, {stats.delete_fallbacks} fallbacks), "
        f"{stats.incremental_chases} incremental chases, "
        f"{stats.rebuilds} rebuilds"
    )
    if stats.queries:
        summary += (
            f"; query layer: {stats.queries} relational queries "
            f"({stats.query_result_cache_hits} result-cache hits, "
            f"{stats.query_pushed_scans} pushed scans)"
        )
    if isinstance(stats, ShardedServiceStats):
        summary += (
            f"; sharded: {stats.shard_windows} shard-local windows, "
            f"{stats.joined_windows} joined across shards"
        )
    if args.durable:
        summary += (
            f"; durable: {stats.wal_records_appended} WAL records "
            f"({stats.wal_commits} commits, {stats.wal_fsyncs} fsyncs), "
            f"{stats.snapshots_written} snapshots written"
        )
    print(summary)
    sys.stdout.flush()
    return exit_code


def _cmd_evolve(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    report = analyze(scenario.schema, scenario.fds)
    if not report.independent:
        print(
            "evolve requires an independent starting schema (Theorem 3); "
            "nothing was applied.  Analysis:",
            file=sys.stderr,
        )
        print(report.summary(), file=sys.stderr)
        return 1
    if args.durable:
        try:
            service = ShardedWeakInstanceService(
                scenario.schema, scenario.fds, args.durable, report=report
            )
        except (ReproError, OSError) as exc:
            print(
                f"error: cannot open durable store {args.durable}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 1
        if service.stats.recoveries == 0 and scenario.state is not None:
            service.load(scenario.state)
    else:
        service = ShardedWeakInstanceService(
            scenario.schema, scenario.fds, report=report
        )
        if scenario.state is not None:
            service.load(scenario.state)
    specs = [s.strip() for s in args.query.split(";") if s.strip()]
    if not specs:
        print("evolve -q needs at least one operation", file=sys.stderr)
        return 2
    try:
        for spec in specs:
            op = parse_evolution_op(spec)
            try:
                result = service.evolve(op)
            except EvolutionRejectedError as exc:
                # first refusal stops the batch: later ops were written
                # against a catalog that never came to exist
                print(f"evolve {spec}: REJECTED — {exc}")
                return 1
            print(f"evolve {spec}: {result.summary()}")
    finally:
        if args.durable:
            service.close()
    return 0


def _cmd_verify_store(args: argparse.Namespace) -> int:
    report = verify_store(args.root, replicas=args.replica or ())
    print(f"store {report['root']}: {'OK' if report['ok'] else 'CORRUPT'}")
    for finding in report["findings"]:
        print(f"  {finding}")
    if report.get("retired_dirs"):
        print(f"  retired, swept on reopen: {', '.join(report['retired_dirs'])}")
    for name in sorted(report["shards"]):
        entry = report["shards"][name]
        snaps = ", ".join(
            f"gen {s['generation']}: "
            + (f"{s['tuples']} tuple(s)" if s["ok"] else "CORRUPT")
            for s in entry["snapshots"]
        ) or "no snapshot"
        line = f"  {name}: {snaps}; WAL {entry['wal_records']} record(s)"
        if entry.get("wal_torn_tail_bytes"):
            line += f", torn tail ({entry['wal_torn_tail_bytes']} byte(s))"
        print(line)
        for finding in entry["findings"]:
            print(f"    {finding}")
    for root in sorted(report.get("replicas", {})):
        rep = report["replicas"][root]
        verdict = "OK" if not rep["findings"] else "DIVERGENT"
        print(f"replica {root}: {verdict}")
        if rep["retired_dirs"]:
            print(f"  retired, swept on reopen: {', '.join(rep['retired_dirs'])}")
        for name in sorted(rep["shards"]):
            rentry = rep["shards"][name]
            if rentry.get("missing"):
                print(f"  {name}: missing (all-behind)")
                continue
            line = f"  {name}: WAL {rentry['wal_records']} record(s)"
            if rentry.get("lag_frames"):
                line += f", {rentry['lag_frames']} frame(s) behind"
            if rentry.get("stale_frames"):
                line += (
                    f", {rentry['stale_frames']} frame(s) past the "
                    "primary's truncation"
                )
            print(line)
            for finding in rentry["findings"]:
                print(f"    {finding}")
    return 0 if report["ok"] else 1


def _cmd_demo(_args: argparse.Namespace) -> int:
    for make in ALL_EXAMPLES:
        example = make()
        print(banner(example.name))
        report = analyze(example.schema, example.fds)
        print(report.summary())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Independence analysis for relational database schemas "
            "(Graham & Yannakakis, PODS 1982)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide independence of a scenario's schema")
    p.add_argument("scenario", help="path to a scenario file")
    p.add_argument(
        "--engine",
        choices=("auto", "mvd", "chase"),
        default="auto",
        help="cl_Σ engine (default: auto)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", help="test whether the scenario's state satisfies Σ")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "query",
        help="derivable facts over given attributes, or a relational "
        "query expression",
    )
    p.add_argument("scenario")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("-a", "--attributes", help='window attributes, e.g. "T H R"')
    g.add_argument(
        "-q",
        "--query",
        help="a relational expression, e.g. "
        "'project(T S, select(C=CS101, join([C T], [C S])))'",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "serve",
        help="run an insert/delete/query ops script against a live "
        "weak-instance service",
    )
    p.add_argument("scenario")
    p.add_argument(
        "--ops",
        help="path to the ops script (default: read ops from stdin)",
    )
    p.add_argument(
        "--method",
        choices=("local", "chase"),
        default="chase",
        help="'local' serves through the independence-aware sharded "
        "service (Theorem 3: O(1) per insert, updates confined to one "
        "per-scheme shard, which is also the unit of locking, health "
        "status and, with --durable, of the WAL and store; requires an "
        "independent schema — validated up front with a counterexample "
        "report); 'chase' keeps one "
        "global incrementally-chased tableau and works for any schema "
        "(default)",
    )
    p.add_argument(
        "--durable",
        metavar="DIR",
        help="keep the state in DIR across runs: per-shard write-ahead "
        "logs with group commit plus periodic snapshots; an existing "
        "DIR is recovered (snapshot load + WAL replay) and wins over "
        "the scenario's state section (requires --method local)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="serve through the concurrent front end with N worker "
        "threads (writes route per shard, inserts batch into group "
        "commits; requires --method local; default: 0 = in-process, "
        "no threads)",
    )
    p.add_argument(
        "--snapshot-interval",
        type=int,
        default=ShardedWeakInstanceService.DEFAULT_SNAPSHOT_INTERVAL,
        metavar="K",
        help="with --durable: snapshot a shard after K WAL records "
        f"(default: {ShardedWeakInstanceService.DEFAULT_SNAPSHOT_INTERVAL})",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=0,
        metavar="N",
        help="with --workers: bound each worker's queue at N pending "
        "writes; submits against a full queue are shed with a typed "
        "ServiceOverloadedError instead of growing memory (default: "
        "0 = unbounded)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help="with --durable: give the durable service N replica "
        "stores and ship every shard's WAL to them (default layout: "
        "sibling directories DIR-replica1..N; override with "
        "--replica-root); a persistently quarantined shard fails over "
        "to its most-caught-up replica automatically (default: 0 — "
        "the same service with no replicas)",
    )
    p.add_argument(
        "--replica-root",
        action="append",
        metavar="DIR",
        help="explicit replica store directory (repeatable; overrides "
        "the default sibling layout — with --replicas N, give exactly "
        "N of these)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "evolve",
        help="apply schema-evolution operations to a scenario (or a "
        "durable store) in batch: exits 0 when every op is accepted, "
        "1 at the first rejection (with the counterexample report)",
    )
    p.add_argument("scenario")
    p.add_argument(
        "-q",
        "--query",
        required=True,
        metavar="OPS",
        help="semicolon-separated evolution ops, e.g. "
        "'add-attr CHR X; split CHR -> CH(C,H) + CR(C,R)'",
    )
    p.add_argument(
        "--durable",
        metavar="DIR",
        help="apply against the durable store in DIR (recovered first; "
        "the migration is logged and survives reopen)",
    )
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser(
        "verify-store",
        help="scrub a durable store directory offline: every snapshot "
        "generation's CRC and structure, every WAL frame; exits 1 on "
        "anything worse than a torn tail",
    )
    p.add_argument("root", help="the --durable directory to scrub")
    p.add_argument(
        "--replica",
        action="append",
        metavar="DIR",
        help="replica store directory to scrub alongside the primary "
        "(repeatable): each replica chain is CRC-verified and its WAL "
        "frame CRCs cross-checked against the primary's — a replica "
        "that is merely behind is reported, divergence exits 1",
    )
    p.set_defaults(func=_cmd_verify_store)

    p = sub.add_parser("demo", help="run the paper's examples")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
