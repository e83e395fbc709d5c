"""EXP-SV — Served mixed-workload latency and throughput under load.

Drives the annotation **service layer** end to end: N simulated clients
(asyncio tasks) issue a deterministic mixed workload — sargable SQL
queries, zoom-ins back to raw annotations, and bulk ``add_annotations``
ingest batches — against one long-running :class:`AnnotationServer`,
in two storage configurations:

* ``single`` — the single-file backend: one serialized writer, pooled
  per-thread readers.
* ``sharded`` — ``shards=4``: hash-partitioned storage with per-shard
  writers and pools, plus a second writer-lane thread so concurrent
  ingest batches can actually overlap their per-shard commits.

Each cell fixes the offered load (``n_clients x per_client`` requests)
and measures the wall-clock to complete it plus **per-request latency
percentiles by operation class** — the tail-latency-under-contention
numbers nothing in the library-level benchmarks measures.  Admission
queues are sized to the offered load, so a healthy run completes with
zero rejections/timeouts; any other outcome fails the gate outright
(a load generator that silently drops work reports fantasy QPS).
"""

from __future__ import annotations

import asyncio
import statistics
import time

import pytest

from benchmarks.conftest import write_report
from repro.serve.server import AnnotationServer, ServerConfig
from repro.serve.stats import percentile

MODES = {
    "single": {"shards": 1, "writers": 1},
    "sharded": {"shards": 4, "writers": 2},
}

#: Reader-lane worker threads — the served analogue of the concurrency
#: bench's pooled topology (SQLite scans release the GIL, so reader
#: threads overlap).
READERS = 4

#: Sargable reader mix over the stable ``birds`` relation (never written
#: during measurement, so every query has one deterministic answer).
QUERIES = [
    "SELECT name, species FROM birds "
    "WHERE weight > 64.6 AND region = 'north' LIMIT 25",
    "SELECT name FROM birds WHERE species = 'species7' AND weight < 0.4",
    "SELECT name, weight FROM birds WHERE weight >= 129.3",
]

#: The zoom-in reference query: its rows are all annotated at build
#: time, so the ZOOMIN expansion always has components to fetch.
ZOOM_QUERY = "SELECT name, species FROM birds LIMIT 30"

#: Annotations per ingest request (one bulk add_annotations call).
INGEST_BATCH = 10

#: ~600-byte annotation bodies, as in the sharding bench ("even
#: metadata is getting big").
_TEXT = (
    "observed feeding on stonewort near the reed bed at dawn; "
    "ring read, condition good, no sign of avian pox or influenza "
) * 5

_TRAINING = [
    ("observed feeding on stonewort at dawn", "Behavior"),
    ("seen foraging among pond weeds", "Behavior"),
    ("shows symptoms of avian influenza", "Disease"),
    ("appears infected with avian pox", "Disease"),
]


async def build_serve_server(
    path: str, num_rows: int, mode: str, max_clients: int
) -> AnnotationServer:
    """A started server over a populated file-backed workload session.

    Admission queues are sized to the sweep's maximum client count:
    the benchmark measures latency under contention, not the rejection
    path (the error-path tests own that).
    """
    settings = dict(MODES[mode])
    writers = settings.pop("writers")
    config = ServerConfig(
        readers=READERS,
        writers=writers,
        read_queue_depth=max(32, 4 * max_clients),
        write_queue_depth=max(16, 2 * max_clients),
        request_timeout_s=None,
    )
    server = AnnotationServer(config=config, path=path, **settings)
    await server.start()
    session = server.session
    session.create_table("birds", ["name", "species", "region", "weight"])
    session.create_table("sightings", ["site", "count"])
    names = ["finch", "heron", "plover", "warbler", "sparrow", "egret"]
    await server.insert_many(
        "birds",
        [
            (
                f"{names[i % 6]} {i}",
                f"species{i % 12}",
                ("north", "south", "east", "west")[i % 4],
                (i * 7 % 13000) / 100.0,
            )
            for i in range(num_rows)
        ],
    )
    await server.insert_many(
        "sightings", [(f"site{i % 20}", i) for i in range(200)]
    )
    session.define_classifier("BirdClass", ["Behavior", "Disease"], _TRAINING)
    session.link("BirdClass", "birds")
    # Annotate every ZOOM_QUERY row (so expansions always match) plus a
    # sprinkle across the relation.
    await server.add_annotations(
        [
            {
                "text": "observed feeding on stonewort at dawn",
                "table": "birds",
                "row_id": row_id,
            }
            for row_id in range(1, 31)
        ]
        + [
            {
                "text": f"observed feeding note {i}",
                "table": "birds",
                "row_id": i * 200 + 31,
            }
            for i in range((num_rows - 31) // 200)
        ]
    )
    return server


def ingest_specs(worker: int, round_number: int) -> list[dict]:
    """One bulk-ingest request's annotation batch (sightings rows)."""
    return [
        {
            "text": f"{_TEXT} w{worker} r{round_number} i{i}",
            "table": "sightings",
            "row_id": (worker * 31 + round_number * 7 + i) % 200 + 1,
        }
        for i in range(INGEST_BATCH)
    ]


async def run_load(
    server: AnnotationServer, n_clients: int, per_client: int
) -> dict:
    """Drive the fixed mixed load; returns wall-clock plus latencies.

    Each client walks a deterministic schedule of ``per_client`` slots:
    slot 7 of every 8 is a bulk ingest, slot 3 is a zoom-in (reference
    query + ZOOMIN expansion), everything else is a sargable query.
    Latencies are recorded per request, keyed by operation class.
    """
    latencies: dict[str, list[float]] = {
        "query": [],
        "ingest": [],
        "zoomin": [],
    }

    async def timed(kind: str, coroutine) -> object:
        started = time.perf_counter()
        result = await coroutine
        latencies[kind].append(time.perf_counter() - started)
        return result

    async def client(worker: int) -> None:
        for slot in range(per_client):
            if slot % 8 == 7:
                await timed(
                    "ingest",
                    server.add_annotations(ingest_specs(worker, slot)),
                )
            elif slot % 8 == 3:
                reference = await timed("query", server.query(ZOOM_QUERY))
                await timed(
                    "zoomin",
                    server.zoomin(
                        f"ZOOMIN REFERENCE QID = {reference.qid} "
                        "ON BirdClass DETAIL FULL"
                    ),
                )
            else:
                sql = QUERIES[(worker + slot) % len(QUERIES)]
                await timed("query", server.query(sql))

    started = time.perf_counter()
    await asyncio.gather(*(client(worker) for worker in range(n_clients)))
    elapsed = time.perf_counter() - started
    requests = sum(len(samples) for samples in latencies.values())
    return {
        "seconds": elapsed,
        "requests": requests,
        "latencies": latencies,
    }


def _health(server: AnnotationServer) -> dict[str, int]:
    """Rejection/timeout/failure totals across both lanes."""
    totals = {"rejected": 0, "timed_out": 0, "failed": 0}
    for lane in server.stats.snapshot()["lanes"].values():
        totals["rejected"] += (
            lane["rejected_overload"] + lane["rejected_closed"]
        )
        totals["timed_out"] += lane["timed_out"]
        totals["failed"] += lane["failed"]
    return totals


async def measure_serve(
    server: AnnotationServer,
    n_clients: int,
    per_client: int,
    repeats: int,
) -> dict:
    """Median-of-``repeats`` cell for one (server, client-count) pair.

    Wall-clock is the median across runs; latency percentiles pool every
    run's samples (more tail resolution than any single run).  Health
    counters are the *delta* across the cell, so a dirty earlier cell
    cannot hide — or fabricate — problems here.
    """
    before = _health(server)
    runs = [
        await run_load(server, n_clients, per_client) for _ in range(repeats)
    ]
    after = _health(server)
    pooled: dict[str, list[float]] = {"query": [], "ingest": [], "zoomin": []}
    for run in runs:
        for kind, samples in run["latencies"].items():
            pooled[kind].extend(samples)
    every = [sample for samples in pooled.values() for sample in samples]
    median_s = statistics.median(run["seconds"] for run in runs)
    requests = runs[0]["requests"]
    cell = {
        "median_s": round(median_s, 6),
        "requests": requests,
        "qps": round(requests / max(median_s, 1e-9), 1),
        "p50_ms": round(percentile(every, 0.50) * 1000, 3),
        "p99_ms": round(percentile(every, 0.99) * 1000, 3),
        "ops": {
            kind: {
                "count": len(samples),
                "p50_ms": round(percentile(samples, 0.50) * 1000, 3),
                "p99_ms": round(percentile(samples, 0.99) * 1000, 3),
            }
            for kind, samples in pooled.items()
            if samples
        },
        "health": {
            key: after[key] - before[key] for key in after
        },
    }
    return cell


# -- pytest entry point ----------------------------------------------------

_SMOKE_ROWS = 4_000
_SMOKE_PER_CLIENT = 12


@pytest.mark.parametrize("mode", sorted(MODES))
def test_served_mixed_workload_report(tmp_path, mode):
    """Series table: client sweep through the served front end."""

    async def scenario() -> list[list[object]]:
        server = await build_serve_server(
            str(tmp_path / f"{mode}.db"), _SMOKE_ROWS, mode, max_clients=4
        )
        rows = []
        try:
            await run_load(server, 4, _SMOKE_PER_CLIENT)  # warm
            for n_clients in (1, 4):
                cell = await measure_serve(
                    server, n_clients, _SMOKE_PER_CLIENT, repeats=3
                )
                assert cell["health"] == {
                    "rejected": 0,
                    "timed_out": 0,
                    "failed": 0,
                }
                rows.append(
                    [
                        mode,
                        n_clients,
                        cell["qps"],
                        cell["p50_ms"],
                        cell["p99_ms"],
                    ]
                )
        finally:
            await server.stop()
        return rows

    rows = asyncio.run(scenario())
    write_report(
        f"exp_sv_serve_{mode}",
        f"EXP-SV: served mixed workload ({mode} backend)",
        ["mode", "clients", "qps", "p50 ms", "p99 ms"],
        rows,
    )
