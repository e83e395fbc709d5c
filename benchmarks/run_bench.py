"""Perf-trajectory harness for the scan and ingest pipelines.

``--bench scan`` (the default) times the three scan-shaped workloads the
paper's evaluation leans on — full-table scan, SPJ propagation, and
group-by aggregation — at the paper's annotation ratios, in both
pipeline configurations:

* ``before`` — per-row loading (``scan_block_size=1``, deserialization
  cache disabled): the pipeline prior to the block-prefetch rework.
* ``after`` — the current defaults (block prefetch + LRU cache).

``--bench ingest`` times bulk annotation ingestion at the same ratios in
the two write-path configurations (see ``bench_ingest.py``):

* ``single`` — one ``add_annotation`` call per annotation,
* ``batched`` — the whole load through one ``add_annotations`` call.

``--bench shard`` sweeps the storage shard count (1/2/4/8) under mixed
load — four writer threads bulk-ingesting annotations while eight
reader threads run scatter-gather pushdown queries (see
``bench_sharding.py``); ``shards_1`` is the single-file baseline and
``shards_N`` partitions the store over N files with independently
serialized per-shard writers.

``--bench serve`` drives the annotation **service layer** end to end:
N asyncio clients (1/4/16; 1/4 in --quick) issue a mixed workload —
sargable queries, zoom-ins, and bulk ``add_annotations`` batches —
against a long-running :class:`AnnotationServer` (see
``bench_serve.py``), reporting sustained QPS plus p50/p99 request
latency per cell:

* ``single`` — the single-file backend behind the async front end,
* ``sharded`` — 4 hash shards plus a second writer-lane thread.

``--bench zoomin`` replays a Zipf-skewed zoom-in reference stream over
four concurrent threads against the production **two-tier result
cache** (see ``bench_zoomin_cache.py``) at two memory/disk byte-budget
points, reporting hit ratio and p50/p99 zoom-in latency per cell:

* ``nocache`` — admission rejects everything: every zoom-in re-executes
  its referenced query (the lower bound),
* ``lru`` — LRU replacement with admit-all over the two tiers,
* ``rco`` — RCO replacement plus cost-aware admission (the production
  default).

A separate ``stampede`` cell fires 16 concurrent zoom-ins at one cold
qid and records how many times the query actually ran — the
single-flight guarantee is exactly once, and the gate enforces it even
in --quick mode.

Each cell reports the median of five runs plus the SQLite statement
count of a cold run, and the result lands in ``BENCH_scan.json`` /
``BENCH_ingest.json`` / ... at the repository root so successive commits
leave a comparable perf trajectory (the ``BENCH_*.json`` convention).
The ingest report also records annotations/second, and the run fails if
the batched path does not cut statements by at least 3x at the top
ratio.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py \
        [--bench {scan,ingest,shard,serve,zoomin}] \
        [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.session import InsightNotes  # noqa: E402
from repro.workloads import WorkloadConfig, build_workload  # noqa: E402

FULL_RATIOS = (30, 60, 120, 250)
QUICK_RATIOS = (30,)
REPEATS = 5

QUERIES = {
    "scan": "SELECT name, species, region, weight FROM birds",
    "spj": (
        "SELECT b.name, b.species, s.observer FROM birds b, sightings s "
        "WHERE b.species = s.species"
    ),
    "group_by": "SELECT species, count(*) FROM birds GROUP BY species",
}

MODES = {
    # Per-row loading with the deserialization cache off — the pipeline
    # before the block-prefetch rework.
    "before": {"scan_block_size": 1, "object_cache_size": 0},
    # Current defaults: block prefetch + LRU deserialization cache.
    "after": {},
}


def build_session(ratio: int, mode: str, quick: bool):
    """A populated workload session in the given pipeline configuration."""
    session = InsightNotes(**MODES[mode])
    return build_workload(
        WorkloadConfig(
            num_birds=4 if quick else 8,
            num_sightings=8 if quick else 16,
            annotations_per_row=ratio,
            document_fraction=0.02,
            seed=29,
        ),
        session=session,
    )


def median_of_runs(session, sql: str, repeats: int) -> float:
    """Median wall-clock seconds over ``repeats`` runs of ``sql``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        session.query(sql)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def cold_statement_count(session, sql: str) -> int:
    """SQLite statements issued by one cold (cache-dropped) run."""
    session.manager.drop_caches()
    restore = session.catalog.object_cache_info()["capacity"]
    session.catalog.configure_object_cache(0)
    try:
        with session.db.track_queries() as counter:
            session.query(sql)
    finally:
        session.catalog.configure_object_cache(restore)
    return counter.count


def run_scan(quick: bool, repeats: int) -> dict:
    ratios = QUICK_RATIOS if quick else FULL_RATIOS
    results: dict = {}
    for ratio in ratios:
        for mode in MODES:
            workload = build_session(ratio, mode, quick)
            session = workload.session
            try:
                for name, sql in QUERIES.items():
                    cell = results.setdefault(name, {}).setdefault(
                        f"{ratio}x", {}
                    )
                    cell[mode] = {
                        "median_s": round(
                            median_of_runs(session, sql, repeats), 6
                        ),
                        "statements": cold_statement_count(session, sql),
                    }
            finally:
                session.close()
    for name, series in results.items():
        for ratio_key, cell in series.items():
            before, after = cell["before"], cell["after"]
            cell["speedup"] = round(
                before["median_s"] / max(after["median_s"], 1e-9), 3
            )
            cell["statement_ratio"] = round(
                before["statements"] / max(after["statements"], 1), 2
            )
    return results


def run_ingest(quick: bool, repeats: int) -> dict:
    """Median-of-``repeats`` ingest timings, single vs batched."""
    from benchmarks.bench_ingest import measure_ingest

    ratios = QUICK_RATIOS if quick else FULL_RATIOS
    num_birds = 4 if quick else 8
    results: dict = {"ingest": {}}
    for ratio in ratios:
        cell: dict = {}
        for mode in ("single", "batched"):
            runs = [
                measure_ingest(num_birds, ratio, mode) for _ in range(repeats)
            ]
            median_s = statistics.median(r["seconds"] for r in runs)
            annotations = runs[0]["annotations"]
            cell[mode] = {
                "median_s": round(median_s, 6),
                "statements": runs[0]["statements"],
                "annotations": annotations,
                "annotations_per_s": round(annotations / max(median_s, 1e-9)),
            }
        single, batched = cell["single"], cell["batched"]
        cell["speedup"] = round(
            single["median_s"] / max(batched["median_s"], 1e-9), 3
        )
        cell["statement_ratio"] = round(
            single["statements"] / max(batched["statements"], 1), 2
        )
        results["ingest"][f"{ratio}x"] = cell
    return results


def run_shard(quick: bool, repeats: int) -> dict:
    """Shard-count sweep under mixed ingest/read load (bench_sharding).

    ``ingest_under_read`` (the gated workload) times four writer threads
    draining a fixed number of bulk batches while eight reader threads
    query continuously; ``read_under_ingest`` times a fixed read load
    under continuous ingest.  Quick mode runs the 1- and 4-shard
    endpoints only; full mode sweeps 1/2/4/8 shards.
    """
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from benchmarks.bench_sharding import (
        BATCH_ROWS,
        MODES as SHARD_MODES,
        READERS,
        WRITERS,
        build_sharding_session,
        ingest_statements,
        make_batches,
        measure_ingest_under_read,
        measure_read_under_ingest,
        shard_write_batches,
        warm_readers,
    )

    modes = ("shards_1", "shards_4") if quick else tuple(SHARD_MODES)
    num_rows = 4_000 if quick else 20_000
    batches_per_writer = 6 if quick else 60
    per_reader = 2 if quick else 6
    ingest_key = f"{WRITERS}w"
    read_key = f"{READERS}t"
    results: dict = {"ingest_under_read": {}, "read_under_ingest": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in modes:
            session = build_sharding_session(
                f"{tmp}/{mode}.db", num_rows, mode
            )
            writer_pool = ThreadPoolExecutor(max_workers=WRITERS)
            reader_pool = ThreadPoolExecutor(max_workers=READERS)
            try:
                warm_readers(session, reader_pool, READERS)
                batches = make_batches(
                    WRITERS, batches_per_writer, BATCH_ROWS, num_rows
                )
                statements = ingest_statements(session, batches[0][0])
                # One unmeasured run brings WAL files and page caches to
                # their steady state before timing starts.
                measure_ingest_under_read(
                    session, writer_pool, reader_pool, batches, READERS
                )
                before = session.db.backend.counters()
                runs = [
                    measure_ingest_under_read(
                        session, writer_pool, reader_pool, batches, READERS
                    )
                    for _ in range(repeats)
                ]
                after = session.db.backend.counters()
                median_s = statistics.median(run["seconds"] for run in runs)
                annotations = runs[0]["annotations"]
                cell = results["ingest_under_read"].setdefault(ingest_key, {})
                cell[mode] = {
                    "median_s": round(median_s, 6),
                    "statements": statements,
                    "annotations": annotations,
                    "annotations_per_s": int(
                        round(annotations / max(median_s, 1e-9))
                    ),
                    "writer_batches": runs[0]["writer_batches"],
                    "reader_queries": int(
                        statistics.median(
                            run["reader_queries"] for run in runs
                        )
                    ),
                    "shard_write_batches": shard_write_batches(before, after),
                }
                read_runs = [
                    measure_read_under_ingest(
                        session, writer_pool, reader_pool, batches,
                        READERS, per_reader,
                    )
                    for _ in range(repeats)
                ]
                read_median = statistics.median(
                    run["seconds"] for run in read_runs
                )
                queries = read_runs[0]["queries"]
                cell = results["read_under_ingest"].setdefault(read_key, {})
                cell[mode] = {
                    "median_s": round(read_median, 6),
                    "statements": statements,
                    "queries": queries,
                    "queries_per_s": round(queries / max(read_median, 1e-9), 1),
                    "writer_batches": int(
                        statistics.median(
                            run["writer_batches"] for run in read_runs
                        )
                    ),
                }
            finally:
                writer_pool.shutdown()
                reader_pool.shutdown()
                session.close()
    for series in results.values():
        for cell in series.values():
            base, sharded = cell["shards_1"], cell["shards_4"]
            cell["speedup"] = round(
                base["median_s"] / max(sharded["median_s"], 1e-9), 3
            )
            cell["statement_ratio"] = round(
                base["statements"] / max(sharded["statements"], 1), 2
            )
    return results


def run_serve(quick: bool, repeats: int) -> dict:
    """Client-count sweep through the served asyncio front end."""
    import asyncio
    import tempfile

    from benchmarks.bench_serve import (
        CLIENT_COUNTS,
        MODES as SERVE_MODES,
        build_serve_server,
        measure_serve,
        run_load,
    )

    client_counts = (1, 4) if quick else CLIENT_COUNTS
    num_rows = 4_000 if quick else 20_000
    per_client = 16 if quick else 48
    results: dict = {"mixed_load": {}}

    async def sweep() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            for mode in SERVE_MODES:
                server = await build_serve_server(
                    f"{tmp}/{mode}.db", num_rows, mode, max(client_counts)
                )
                try:
                    # One unmeasured run at full fan-out warms worker
                    # threads, WAL readers, and the summary caches.
                    await run_load(server, max(client_counts), per_client)
                    for n_clients in client_counts:
                        cell = results["mixed_load"].setdefault(
                            f"{n_clients}c", {}
                        )
                        cell[mode] = await measure_serve(
                            server, n_clients, per_client, repeats
                        )
                finally:
                    await server.stop()

    asyncio.run(sweep())
    for cell in results["mixed_load"].values():
        single, sharded = cell["single"], cell["sharded"]
        cell["speedup"] = round(
            single["median_s"] / max(sharded["median_s"], 1e-9), 3
        )
    return results


def run_zoomin(quick: bool, repeats: int) -> dict:
    """Concurrent Zipf replay over the tiered zoom-in result cache.

    ``zipf_replay`` sweeps three cache modes (no-cache lower bound,
    LRU + admit-all, RCO + cost-aware admission) at two memory/disk
    byte-budget points; ``stampede`` is the single-flight cell — 16
    concurrent zoom-ins at one cold qid, recomputations counted.
    """
    from benchmarks.bench_zoomin_cache import (
        STAMPEDE_THREADS,
        TIERED_MODES,
        build_tiered_state,
        measure_stampede,
        measure_tiered,
    )

    state = build_tiered_state(quick)
    total = state["total_bytes"]
    # Budgets are fractions of the working set's in-memory footprint,
    # both chosen to keep the replacement policy under genuine pressure
    # ("tight" fits the head of the Zipf distribution only, "mid" the
    # hot set but not the tail) — an unconstrained cache measures only
    # its admission policy, not replacement.
    budgets = {
        "tight": (max(4096, int(total * 0.15)), max(8192, int(total * 0.3))),
        "mid": (max(4096, int(total * 0.2)), max(8192, int(total * 0.4))),
    }
    results: dict = {"zipf_replay": {}}
    try:
        for budget_key, (memory_bytes, disk_bytes) in budgets.items():
            cell = results["zipf_replay"].setdefault(budget_key, {})
            for mode in TIERED_MODES:
                cell[mode] = measure_tiered(
                    state, mode, memory_bytes, disk_bytes, repeats
                )
            cell["speedup"] = round(
                cell["nocache"]["median_s"]
                / max(cell["rco"]["median_s"], 1e-9),
                3,
            )
            cell["p50_speedup"] = round(
                cell["nocache"]["p50_ms"]
                / max(cell["rco"]["p50_ms"], 1e-9),
                3,
            )
        results["stampede"] = {
            f"{STAMPEDE_THREADS}t": measure_stampede(state)
        }
    finally:
        state["session"].close()
    return results


def check_zoomin_gate(results: dict, quick: bool) -> list[str]:
    """The tiered zoom-in acceptance gate (empty list = pass).

    Hard in every mode: the stampede cell must have executed its query
    exactly once — the single-flight guarantee is structural, not a
    timing property, so even --quick enforces it.  In full mode
    additionally, at every budget point: RCO must match or beat LRU on
    hit ratio at the same byte budgets (and clear a 0.35 absolute
    floor), and the RCO path must serve zoom-ins at least 2x faster at
    p50 than the no-cache lower bound.  --quick workloads are too small
    for stable latency, so those misses only warn.
    """
    failures: list[str] = []
    stampede = results["stampede"].get(
        next(iter(results["stampede"]), ""), {}
    )
    if stampede.get("computes") != 1:
        failures.append(
            f"zoomin stampede: {stampede.get('computes')} query "
            f"executions under {stampede.get('threads')} concurrent "
            "misses — single-flight must run the query exactly once"
        )
    for budget_key, cell in results["zipf_replay"].items():
        rco, lru = cell["rco"], cell["lru"]
        soft: list[str] = []
        if rco["hit_ratio"] < lru["hit_ratio"] - 0.02:
            soft.append(
                f"zoomin {budget_key}: RCO hit ratio "
                f"{rco['hit_ratio']:.3f} below LRU "
                f"{lru['hit_ratio']:.3f} at the same byte budget"
            )
        if rco["hit_ratio"] < 0.35:
            soft.append(
                f"zoomin {budget_key}: RCO hit ratio "
                f"{rco['hit_ratio']:.3f} below the 0.35 floor"
            )
        if cell["p50_speedup"] < 2.0:
            soft.append(
                f"zoomin {budget_key}: p50 speedup "
                f"{cell['p50_speedup']:.2f}x — the cached path must be "
                "at least 2x faster than no-cache at p50"
            )
        for message in soft:
            if quick:
                print(f"warning: {message} (tolerated in --quick mode)")
            else:
                failures.append(message)
    return failures


def check_serve_gate(results: dict, quick: bool) -> list[str]:
    """The served-load acceptance gate (empty list = pass).

    Hard in every mode: each cell must finish healthy — zero rejected,
    timed-out, or failed requests.  Queues are sized to the offered
    load, so any nonzero health counter means the server dropped work
    and the cell's QPS is fiction.  In full mode there is additionally
    a no-collapse bound: at every measured client count the single-file
    configuration must sustain at least 0.4x the 1-client QPS.  The
    mixed workload is hydration-heavy, so aggregate throughput is
    GIL-bound and roughly *flat* as clients are added — the gate does
    not demand scaling, but a fall below the bound is the signature of
    a serialization bug (e.g. reads accidentally queueing behind the
    writer lock).  In --quick mode the workload is too small for stable
    timings, so a throughput miss only warns.
    """
    failures: list[str] = []
    series = results["mixed_load"]
    for clients_key, cell in series.items():
        for mode in ("single", "sharded"):
            health = cell[mode]["health"]
            if any(health.values()):
                failures.append(
                    f"serve {clients_key}/{mode}: unhealthy run {health} — "
                    "a served benchmark that drops requests reports "
                    "fantasy QPS"
                )
    baseline_qps = series.get("1c", {}).get("single", {}).get("qps")
    if baseline_qps is None:
        return failures + ["serve: no 1-client single-file cell measured"]
    for clients_key, cell in series.items():
        sustained = cell["single"]["qps"]
        if sustained < 0.4 * baseline_qps:
            message = (
                f"serve {clients_key}/single: {sustained:.1f} qps vs "
                f"{baseline_qps:.1f} qps at 1c — sustained throughput "
                "collapsed below 0.4x of the 1-client baseline"
            )
            if quick:
                print(f"warning: {message} (tolerated in --quick mode)")
            else:
                failures.append(message)
    return failures


def check_shard_gate(results: dict, quick: bool) -> list[str]:
    """The sharded-ingest acceptance gate (empty list = pass).

    With four writers under continuous read pressure, four shards must
    at least double ingest throughput over the single-file baseline —
    the write work is fixed, so ``speedup >= 2.0`` on wall-clock is a
    2x throughput gain.  In --quick mode the workload is too small for
    stable timings under scheduler noise, so a miss only warns.
    """
    failures: list[str] = []
    cell = results["ingest_under_read"].get("4w")
    if cell is None:
        return ["shard: no 4-writer ingest cell was measured"]
    if cell["speedup"] < 2.0:
        message = (
            f"shard ingest at 4w: speedup {cell['speedup']:.2f}x — four "
            "shards must at least double ingest throughput under "
            "concurrent reads over the single-file baseline"
        )
        if quick:
            print(f"warning: {message} (tolerated in --quick mode)")
        else:
            failures.append(message)
    return failures


def check_ingest_gate(results: dict, quick: bool) -> list[str]:
    """The ingest acceptance gate: returns failure messages (empty = pass).

    At the top measured ratio the batched path must issue at least 3x
    fewer SQLite statements and, in full mode, win on wall-clock too
    (in --quick mode the workload is too small for stable timings, so a
    wall-clock loss only warns).
    """
    failures: list[str] = []
    series = results["ingest"]
    top = max(series, key=lambda key: int(key.rstrip("x")))
    cell = series[top]
    if cell["statement_ratio"] < 3.0:
        failures.append(
            f"ingest at {top}: statement_ratio {cell['statement_ratio']:.2f} "
            "< 3.0 — the batched path must cut statements by at least 3x"
        )
    if cell["speedup"] <= 1.0:
        message = (
            f"ingest at {top}: speedup {cell['speedup']:.2f}x — the batched "
            "path did not win on wall-clock"
        )
        if quick:
            print(f"warning: {message} (tolerated in --quick mode)")
        else:
            failures.append(message)
    return failures


BENCHES = {
    "scan": {
        "run": run_scan,
        "benchmark": "scan_pipeline",
        "output": "BENCH_scan.json",
        "modes": {
            "before": "scan_block_size=1, deserialization cache off",
            "after": "block prefetch (256) + LRU deserialization cache",
        },
        "pair": ("before", "after"),
    },
    "ingest": {
        "run": run_ingest,
        "benchmark": "ingest_pipeline",
        "output": "BENCH_ingest.json",
        "modes": {
            "single": "one add_annotation call per annotation",
            "batched": "whole load through one add_annotations call",
        },
        "pair": ("single", "batched"),
        "gate": check_ingest_gate,
    },
    "shard": {
        "run": run_shard,
        "benchmark": "sharded_ingest",
        "output": "BENCH_shard.json",
        "modes": {
            "shards_1": "single-file baseline (one serialized writer)",
            "shards_2": "2 hash shards, per-shard writers and pools",
            "shards_4": "4 hash shards, per-shard writers and pools",
            "shards_8": "8 hash shards, per-shard writers and pools",
        },
        "pair": ("shards_1", "shards_4"),
        "gate": check_shard_gate,
    },
    "serve": {
        "run": run_serve,
        "benchmark": "served_mixed_load",
        "output": "BENCH_serve.json",
        "modes": {
            "single": "single-file backend behind the asyncio server",
            "sharded": "4 hash shards + second writer lane behind the "
            "asyncio server",
        },
        "pair": ("single", "sharded"),
        "gate": check_serve_gate,
    },
    "zoomin": {
        "run": run_zoomin,
        "benchmark": "zoomin_tiered_cache",
        "output": "BENCH_zoomin.json",
        "modes": {
            "nocache": "admission rejects everything: every zoom-in "
            "re-executes its query",
            "lru": "LRU replacement + admit-all over the two-tier cache",
            "rco": "RCO replacement + cost-aware admission "
            "(production default)",
        },
        "pair": ("nocache", "rco"),
        "gate": check_zoomin_gate,
    },
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", choices=sorted(BENCHES), default="scan",
        help="which pipeline to measure (default: scan)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload, 30x only (CI smoke run)",
    )
    parser.add_argument(
        "--repeats", type=int, default=REPEATS,
        help=f"timed runs per cell (median reported; default {REPEATS})",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="where to write the JSON report "
        "(default: BENCH_<bench>.json at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    bench = BENCHES[args.bench]
    output = args.output or REPO_ROOT / bench["output"]
    if not output.parent.is_dir():
        parser.error(f"--output directory does not exist: {output.parent}")

    results = bench["run"](quick=args.quick, repeats=args.repeats)
    report = {
        "benchmark": bench["benchmark"],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "quick": args.quick,
        "repeats": args.repeats,
        "modes": bench["modes"],
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {output}")
    first, second = bench["pair"]
    for name, series in results.items():
        for ratio_key, cell in series.items():
            if first not in cell or second not in cell:
                # Single-measurement cells (e.g. the single-flight
                # stampede) carry their numbers directly.
                detail = "  ".join(
                    f"{key} {value}" for key, value in cell.items()
                )
                print(f"  {name:9s} {ratio_key:>5s}  {detail}")
                continue
            if "hit_ratio" in cell[first]:
                # Cache-replay cells report hit ratio and per-reference
                # latency rather than statement counts.
                print(
                    f"  {name:9s} {ratio_key:>5s}  "
                    f"{first} p50 {cell[first]['p50_ms']:7.2f} ms "
                    f"(hit {cell[first]['hit_ratio']:.2f})  "
                    f"{second} p50 {cell[second]['p50_ms']:7.2f} ms "
                    f"(hit {cell[second]['hit_ratio']:.2f})  "
                    f"p50 speedup {cell['p50_speedup']:.2f}x"
                )
                continue
            if "statements" not in cell[first]:
                # Served cells report throughput/latency, not statement
                # counts (the request mix spans the whole engine).
                print(
                    f"  {name:9s} {ratio_key:>5s}  "
                    f"{first} {cell[first]['qps']:7.1f} q/s "
                    f"(p99 {cell[first]['p99_ms']:8.2f} ms)  "
                    f"{second} {cell[second]['qps']:7.1f} q/s "
                    f"(p99 {cell[second]['p99_ms']:8.2f} ms)  "
                    f"speedup {cell['speedup']:.2f}x"
                )
                continue
            extra = (
                f"  ann/s {cell[first]['annotations_per_s']:6d} -> "
                f"{cell[second]['annotations_per_s']:6d}"
                if "annotations_per_s" in cell[first]
                else ""
            )
            print(
                f"  {name:9s} {ratio_key:>5s}  "
                f"{first} {cell[first]['median_s'] * 1000:8.2f} ms "
                f"({cell[first]['statements']:6d} stmts)  "
                f"{second} {cell[second]['median_s'] * 1000:8.2f} ms "
                f"({cell[second]['statements']:6d} stmts)  "
                f"speedup {cell['speedup']:.2f}x, "
                f"stmts {cell['statement_ratio']:.1f}x fewer{extra}"
            )
    gate = bench.get("gate")
    if gate is not None:
        failures = gate(results, quick=args.quick)
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
