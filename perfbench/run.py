"""Full-stack serving benchmark: one workload, one seed, one result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics with no wrappers
installed.  ``--trace 1`` installs span wrappers on the layers' public
functions, switches them on and off in alternating slices of the timed
phase, and reports the per-layer metrics (including the overhead of
the traced slices against the untraced ones).  Every run checks its
outcomes (see ``README.md``); a failed check exits with status 1.  The
last line of standard output is the JSON result; the line before it
holds the details (host fingerprint, sample counts, set-up parts, the
self-time breakdown).  The spans of the latest traced run of each
workload are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest", "query-mix")


def _profile(samples) -> dict:
    """p50/p90/p95/p99 in ms, for the detail line; a percentile is left
    out unless at least ten samples lie beyond it."""
    if len(samples) < 20:
        return {}
    cuts = statistics.quantiles(samples, n=100)
    return {f"p{q}": round(cuts[q - 1] * 1e3, 4) for q in (50, 90, 95, 99)
            if len(samples) * (100 - q) / 100 >= 10}


def _fs_type(path: pathlib.Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                fs = fields[fields.index("-") + 1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fs
    except (OSError, ValueError, IndexError):
        pass
    return kind


def _fsync_ms(directory: pathlib.Path) -> float:
    """Median cost of one small append + fsync in the store directory."""
    probe = directory / "fsync-probe"
    costs = []
    with open(probe, "ab", buffering=0) as handle:
        for _ in range(100):
            handle.write(b"x" * 64)
            start = time.perf_counter()
            os.fsync(handle.fileno())
            costs.append(time.perf_counter() - start)
    probe.unlink()
    return statistics.median(costs) * 1e3


def _cpu_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed for
    this interpreter, so a slower or busier host shows."""
    costs = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        costs.append(time.perf_counter() - start)
    return statistics.median(costs) * 1e3


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def host_fingerprint(store: pathlib.Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "store_fs": _fs_type(store.resolve()),
        "fsync_ms": round(_fsync_ms(store), 4),
        "cpu_loop_ms": round(_cpu_ms(), 3),
        "git_sha": _git_sha(),
        "src_sha1": _src_digest(),
    }


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _delta(before: dict, after: dict, key: str) -> int:
    return after[key] - before[key]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(run, timed) -> dict:
    return {
        "setup_s": (run.setup["total"], "s"),
        "ops_per_s": (timed.completed / timed.seconds, "1/s"),
        "write_p50_ms": (statistics.median(timed.write_lat) * 1e3, "ms"),
        "read_p50_ms": (statistics.median(timed.read_lat) * 1e3, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run, timed, epilogue, before, after) -> tuple:
    from spans import median_ms

    tracer, probe = run.tracer, run.probe
    timed_ms = lambda name: median_ms(tracer.durations(name, ("timed",)))  # noqa: E731
    both_ms = lambda name: median_ms(  # noqa: E731
        tracer.durations(name, ("timed", "epilogue")))
    d = lambda key: _delta(before, after, key)  # noqa: E731
    final = run.final_stats
    setup_reps = [p for p in tracer.phases() if p.startswith("setup")]
    chase_per_rep = [sum(tracer.durations("chase.chase_fresh", (p,))) for p in setup_reps]
    writes = timed.acked_writes
    scans = d("query_composer_scans") + d("query_shard_scans")
    inserts = d("inserts_accepted") + d("inserts_rejected") + d("duplicate_inserts")
    evolutions = final["evolutions_applied"] - before["evolutions_applied"]
    threads = tracer.self_times("timed")
    client = threads.pop(threading.main_thread().ident, {})
    worker_busy = sum(sum(t.values()) for t in threads.values())
    traced_s = sum(secs for traced, _, secs in timed.slices if traced)
    # median slice rates: a snapshot stall that lands in one slice
    # must not decide the overhead
    traced_ops, plain_ops = (
        statistics.median(n / secs for traced, n, secs in timed.slices if traced is kind)
        for kind in (True, False))
    metrics = {
        "server.queue_wait_ms": (median_ms([w for p, w in probe.queue_waits if p == "timed"]), "ms"),
        "server.writes_per_batch": (_ratio(d("server_batched_writes"), d("server_write_batches")), "writes/batch"),
        "durable.apply_ms": (timed_ms("durable.apply"), "ms"),
        "durable.commit_ms": (timed_ms("durable.commit"), "ms"),
        "durable.wal_write_ms": (timed_ms("durable.wal_write"), "ms"),
        "durable.fsync_ms": (timed_ms("durable.fsync"), "ms"),
        "durable.fsyncs_per_write": (_ratio(d("wal_fsyncs"), writes), "ratio"),
        "durable.wal_bytes_per_write": (_ratio(d("wal_bytes_written"), writes), "bytes"),
        "durable.snapshot_ms": (both_ms("durable.snapshot"), "ms"),
        "durable.snapshots": (d("snapshots_written"), "count"),
        "durable.load_s": (run.setup["load"], "s"),
        "durable.recover_s": (run.setup["recover"], "s"),
        "durable.store_bytes_per_row": (run.store_bytes_per_row, "bytes"),
        "replication.ship_ms": (timed_ms("replication.ship"), "ms"),
        "replication.ship_bytes_per_write": (_ratio(d("replica_bytes_shipped"), writes), "bytes"),
        "replication.snapshot_install_ms": (both_ms("replication.snapshot_install"), "ms"),
        "sharded.insert_many_ms": (timed_ms("sharded.insert_many"), "ms"),
        "sharded.reject_frac": (_ratio(d("inserts_rejected"), inserts), "ratio"),
        "sharded.composer_scan_frac": (_ratio(d("query_composer_scans"), scans), "ratio"),
        "sharded.ops_per_composer_sync": (_ratio(d("composer_synced_ops"), d("composer_syncs")), "ratio"),
        "service.filtered_window_ms": (timed_ms("service.filtered_window"), "ms"),
        "service.rebuilds": (d("rebuilds") + d("compaction_rebuilds"), "count"),
        "chase.bulk_load_s": (statistics.median(chase_per_rep), "s"),
        "query.parse_ms": (timed_ms("query.parse"), "ms"),
        "query.run_ms": (timed_ms("query.run"), "ms"),
        "query.plan_cache_hit_frac": (_ratio(d("query_plan_cache_hits"), d("queries")), "ratio"),
        "query.result_cache_hit_frac": (_ratio(d("query_result_cache_hits"), d("queries")), "ratio"),
        "query.rows_examined_per_row": (_ratio(probe.leaf_rows, probe.answer_rows), "ratio"),
        "core.analyze_ms": (median_ms(tracer.durations("core.analyze", setup_reps)), "ms"),
        "core.reanalyze_ms": (both_ms("core.reanalyze"), "ms"),
        "evolution.evolve_ms": (median_ms(epilogue.evolve_lat), "ms"),
        "evolution.swap_ms": (median_ms(epilogue.swap), "ms"),
        "evolution.shards_rebuilt_per_op": (
            _ratio(final["migration_shards_rebuilt"] - before["migration_shards_rebuilt"], evolutions),
            "ratio"),
        "trace.overhead_frac": (1.0 - traced_ops / plain_ops, "ratio"),
        "trace.accounted_frac": (_ratio(sum(client.values()), traced_s), "ratio"),
    }
    breakdown = {
        "client_thread_self_s": dict(sorted(client.items())),
        "client_unspanned_s": traced_s - sum(client.values()),
        "worker_threads_self_s": {k: v for t in threads.values() for k, v in sorted(t.items())},
        "worker_unspanned_s": traced_s * max(1, len(threads)) - worker_busy,
        "traced_wall_s": traced_s,
        "untraced_ops_per_s": plain_ops,
        "traced_ops_per_s": traced_ops,
        "slices": [(t, n, round(s, 4)) for t, n, s in timed.slices],
    }
    return metrics, breakdown


def execute(workload: str, seed: int, seconds: float, traced: bool, root, log):
    """Set up, drive and check one stack; returns the run and its phases."""
    from drive import Run
    from gen import make_inputs
    from spans import Tracer

    wall = [time.perf_counter()]
    inputs = make_inputs(workload, seed)
    wall.append(time.perf_counter())
    tracer = Tracer() if traced else None
    run = Run(inputs, root, tracer)
    if tracer is not None:
        run.probe.install()
        tracer.active = True
    try:
        run.set_up()
        wall.append(time.perf_counter())
        timed, epilogue, before, after = run.run(seconds)
        run.final_stats = run.server.stats_dict()
        live = sum(len(rows) for _, rows in run.server.state())
        run.store_bytes_per_row = _dir_bytes(root / "primary") / max(1, live)
        wall.append(time.perf_counter())
        if tracer is not None:
            tracer.active = False
        run.checks = run.check()
        wall.append(time.perf_counter())
        run.set_up_again()
        wall.append(time.perf_counter())
    finally:
        if run.server is not None:
            run.server.stop()
            run.server.service.close()
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    run.wall_s = dict(zip(("generate", "set_up", "serve", "check", "set_up_again"),
                          (round(b - a, 3) for a, b in zip(wall, wall[1:]))))
    log(f"{workload} seed={seed} traced={traced}: {timed.completed} ops in "
        f"{timed.seconds:.2f}s, set-up {run.setup['total']:.3f}s, "
        f"wall {run.wall_s}, checks {run.checks}")
    return run, timed, epilogue, before, after


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    work = ROOT / ".perfbench_store" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        host = host_fingerprint(work)
        gc.collect()
        run, timed, epilogue, before, after = execute(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work / "stack", log)
        detail = {"setup_parts_s": run.setup,
                  "setup_samples_s": run.setup_parts["total"],
                  "wall_s": run.wall_s}
        if args.trace:
            metrics, detail["breakdown"] = per_layer(
                run, timed, epilogue, before, after)
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            # one file per workload, the latest traced run's
            with gzip.open(out / f"spans-{args.workload}.json.gz", "wt") as f:
                json.dump({"seed": args.seed,
                           "fields": ["id", "parent", "thread", "phase", "name",
                                      "start", "end"],
                           "spans": run.tracer.spans}, f)
        else:
            metrics = end_to_end(run, timed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_store").rmdir()
        except OSError:
            pass
    checks = {k: v for k, v in run.checks.items() if v is not True}
    correct = not checks and run.failed == 0
    detail.update(
        host=host,
        workload=args.workload,
        seed=args.seed,
        samples={"writes": len(timed.write_lat), "reads": len(timed.read_lat),
                 "evolves": len(epilogue.evolve_lat)},
        latency_ms={kind: _profile(lat) for kind, lat in
                    (("write", timed.write_lat), ("read", timed.read_lat))},
        slice_ops_per_s=[round(n / secs) for _, n, secs in timed.slices],
        cpu_loop_after_ms=round(_cpu_ms(), 3),
        failed_frac=run.failed / run.attempted,
        failed_checks=checks,
    )
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
