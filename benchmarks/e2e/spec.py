"""Workload and metric definitions — the single source ``BENCHMARK.json`` mirrors.

Sizes are frozen after calibration on the 2-core reference box.  The
driver's time cap (92 runs in 3420 s) leaves 37 s per run, and the box has
a slow state a quarter slower than its fast one, so a run is sized to take
about 28 s in the slow state: a set-up of 2-4 s, a warm-up round, about
20 s of measured rounds and the correctness gate.  The tables are therefore
far smaller than the issue's starting sizes and every class is played just
often enough to pool 100 samples, which makes the mixes nearly flat; what
sets the workloads apart is the shape of the data (rows per group,
annotations per row on either side of a join), not the mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Default ``--seed`` (SIGMOD 2015 opened on 31 May 2015).  The contract
#: fixes BENCHMARK.json's keys, so the default is recorded here instead.
DEFAULT_SEED = 20150531

READ_CLASSES = ("select", "summary", "join", "groupby")
OP_CLASSES = READ_CLASSES + ("zoomin", "ingest_batch")

#: The four summary instances of the paper's Figure 1.
CLASSIFIERS = ("ClassBird1", "ClassBird2")
CLUSTER = "SimCluster"
SNIPPET = "TextSummary1"
CLASSBIRD1_LABELS = ("Behavior", "Disease", "Anatomy", "Other")

#: Bulk-load batch size (``add_annotations`` calls during set-up).
BULK_BATCH = 500
#: A zoom-in names one of this many most recent reads of its script parity.
ZOOM_WINDOW = 8
ZOOM_ZIPF = 1.2
#: Server lanes of the ``served`` workload (``nproc`` = 2).
SERVE_READERS = 2
SERVE_WRITERS = 1
SERVE_CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One fixed-script workload: data shape, op mix, how it is driven.

    ``birds`` and ``sightings`` are multiples of ``species * regions`` so
    every (species, region) cell holds the same number of rows: a join or
    group-by costs the same whatever parameters the seed draws, which is
    what lets a per-class median repeat across seeds.
    """

    name: str
    why: str
    wire: bool
    birds: int
    sightings: int
    #: Annotations per ``birds`` row and per ``sightings`` row in the bulk load.
    ratio: int
    sightings_ratio: int
    species: int
    regions: int
    #: Ops per script round, by class; every class is present everywhere.
    mix: dict[str, int]
    batch: int
    #: Share of multi-row (2-8 rows) specs in ingest batches and the bulk
    #: load; zero where the script must also travel as JSON (no CellRef).
    multi_row: float
    #: ``select`` keeps at least this share of its region's rows.
    select_min_keep: float
    #: What one script round takes on the reference box.  ``--seconds`` is
    #: turned into a whole number of rounds with it, so a run is bounded by
    #: op count and every run of one ``--seconds`` plays the same multiset.
    round_s: float
    #: Selects and ingest batches follow one region cursor, so reads hit
    #: rows whose summary objects were just rewritten.
    follow_writes: bool = False
    #: The traced run also times fixed probes on a ``shards=4`` copy.
    shard_probe: bool = False

    @property
    def ops_per_round(self) -> int:
        return sum(self.mix.values())

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def quick(self) -> "Workload":
        """The ``--quick`` variant: one cell per (species, region), ~60 ops."""
        cells = self.species * self.regions
        scale = max(1, self.ops_per_round // 60)
        return Workload(
            name=self.name,
            why=self.why,
            wire=self.wire,
            birds=cells * max(1, min(2, self.birds // cells)),
            sightings=cells,
            ratio=min(self.ratio, 6),
            sightings_ratio=min(self.sightings_ratio, 2),
            species=self.species,
            regions=self.regions,
            mix={cls: max(2, count // scale) for cls, count in self.mix.items()},
            batch=min(self.batch, 4),
            multi_row=self.multi_row,
            select_min_keep=self.select_min_keep,
            round_s=self.round_s,
            follow_writes=self.follow_writes,
            shard_probe=self.shard_probe,
        )


_LOOKUP = dict(
    birds=240, sightings=240, ratio=38, sightings_ratio=2, species=30, regions=8,
    mix={
        "select": 30, "zoomin": 22, "summary": 17,
        "join": 17, "groupby": 17, "ingest_batch": 17,
    },
    batch=5, multi_row=0.0, select_min_keep=0.25,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lookup",
            why="small-result reads in-process, one bird per species and region so "
                "joins and group-bys merge next to nothing: engine, storage and "
                "projection own the time; most zoom-ins hit the result cache",
            wire=False, round_s=2.85, **_LOOKUP,
        ),
        Workload(
            name="explore",
            why="summary-carrying joins and group-bys at 80 and 130 annotations per "
                "row: summaries merge/copy/project own the time and results are "
                "large against the 4 MiB zoom-in cache",
            wire=False,
            birds=48, sightings=16, ratio=80, sightings_ratio=130, species=2, regions=4,
            mix={
                "join": 10, "groupby": 10, "summary": 10,
                "select": 10, "zoomin": 10, "ingest_batch": 10,
            },
            batch=5, multi_row=0.25, select_min_keep=0.8, round_s=2.0,
        ),
        Workload(
            name="curate",
            why="writes beside reads: batches of 20 land on the rows the next "
                "selects and zoom-ins read; maintenance, text, fold and storage "
                "writes own the time, reads see cache invalidation",
            wire=False,
            birds=200, sightings=50, ratio=16, sightings_ratio=40, species=5, regions=10,
            mix={
                "ingest_batch": 24, "select": 12, "zoomin": 10,
                "summary": 10, "join": 10, "groupby": 10,
            },
            batch=20, multi_row=0.25, select_min_keep=0.02, round_s=2.0,
            follow_writes=True, shard_probe=True,
        ),
        Workload(
            name="served",
            why="the lookup script through python -m repro.serve on two closed-"
                "loop JSON-lines connections: the per-class gap to lookup is the "
                "serve layer plus 2-way contention",
            wire=True, round_s=3.3, **_LOOKUP,
        ),
    )
}


#: The ``src/repro`` packages, plus the harness itself as ``client``.
LAYERS = ("client", "serve", "engine", "storage", "maintenance", "summaries", "zoomin", "text")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str


#: Every time and rate an untraced run takes.
TIMINGS: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "one full set-up: tables, four instances trained and linked to both "
           "tables, bulk load, analyze(), reopen (served: start server, connect)"),
    Metric("bulk_ingest_ann_s", "ann/s", "higher",
           "annotations / seconds inside the set-up bulk load (batches of 500)"),
    Metric("throughput_ops_s", "ops/s", "higher",
           "measured ops / the busiest caller's summed latencies, over all kept rounds"),
    *(
        Metric(f"{cls}_p50_ms", "ms", "lower",
               f"median latency of `{cls}` ops over the pooled measured rounds")
        for cls in OP_CLASSES
    ),
)
#: The timings that are end-to-end metrics.  ``setup_s`` is one because the
#: driver's contract requires it; the others are those whose relative IQR
#: stayed within two thirds of the contract's widest bound (0.25) on every
#: workload and in both sets of the committed A/A run (``results/``), so the
#: bound is at least 1.5 times the widest spread seen.  The traced run
#: reports the rest as ``client.<name>``, without a bound.  See the README
#: (*Noise*) for why the issue's 10 % rule could not be the cut.
E2E_TIMINGS = frozenset(
    ("setup_s", "bulk_ingest_ann_s", "throughput_ops_s", "join_p50_ms", "groupby_p50_ms")
)

#: Reported by every untraced run of every workload.  ``failed_ops_ratio``
#: is not here: it is 0 on a healthy run and the contract forbids metrics
#: that can be 0 — the result line's ``failed`` / ``attempted`` carry it.
END_TO_END: tuple[Metric, ...] = (
    *(m for m in TIMINGS if m.name in E2E_TIMINGS),
    Metric("peak_rss_mb", "MB", "lower",
           "VmHWM of the process running the engine at the end of the "
           "measured section (the server process for served)"),
    Metric("store_bytes_per_ann_byte", "ratio", "lower",
           "bytes of every database file after close (flush + checkpoint) / "
           "annotations.total_text_bytes()"),
)


#: Reported by the traced run.  ``ms`` entries are per-op medians of span
#: self time over the ops in which the span occurs; ``share.*`` are a
#: layer's total self time / total traced wall-clock.
PER_LAYER: tuple[Metric, ...] = (
    Metric("serve.decode_ms", "ms", "lower", "protocol.decode_request self time"),
    Metric("serve.encode_ms", "ms", "lower",
           "handle_request (result -> JSON-able dict) + encode_response self time"),
    Metric("serve.dispatch_ms", "ms", "lower",
           "AnnotationServer.query/zoomin/add_annotations self time: "
           "admission, executor hop, lane wait"),
    Metric("serve.response_bytes_per_op", "count", "lower", "encoded response bytes / op"),
    Metric("serve.read_lane_p50_ms", "ms", "lower", "server stats op: read lane p50"),
    Metric("serve.write_lane_p50_ms", "ms", "lower", "server stats op: write lane p50"),
    Metric("serve.rejected_ratio", "ratio", "lower", "rejected / (admitted + rejected)"),
    Metric("serve.stale_reads", "count", "lower",
           "gate reads wrong on the live server and right on a restarted one"),
    Metric("serve.select_overhead_ms", "ms", "lower",
           "select p50 over the wire - in-process, same session, untraced"),
    Metric("serve.zoomin_overhead_ms", "ms", "lower",
           "zoomin p50 over the wire - in-process, same session, untraced"),
    Metric("engine.parse_ms", "ms", "lower", "sqlparser.parse_sql"),
    Metric("engine.plan_ms", "ms", "lower", "build_logical + Planner.prepare + Planner.physical"),
    Metric("engine.execute_self_ms", "ms", "lower",
           "execute_plan self time: operator loop, expressions, hash join, sort"),
    Metric("engine.register_ms", "ms", "lower",
           "observe_execution + CostModel.estimate + ResultRegistry.register + "
           "TraceStore.record_query"),
    Metric("engine.rows_scanned_per_result_row", "count", "lower", "result.stats"),
    Metric("engine.rows_hydrated_per_result_row", "count", "lower", "result.stats"),
    Metric("storage.scan_ms", "ms", "lower", "Database.scan (per next()) + scan_aggregate"),
    Metric("storage.hydrate_ms", "ms", "lower",
           "load_objects_for_table + attachments_for_rows under read ops"),
    Metric("storage.write_ms", "ms", "lower", "AnnotationStore.add_many + save_objects"),
    Metric("storage.read_statements_per_query", "count", "lower",
           "SELECT statements (track_queries) that ran during read ops / read ops"),
    Metric("storage.write_statements_per_batch", "count", "lower",
           "non-SELECT statements that ran during ingest batches / batches"),
    Metric("storage.object_cache_hit_ratio", "ratio", "higher", "catalog.object_cache_info delta"),
    Metric("storage.bytes_written_per_ann_byte", "ratio", "lower",
           "database file growth over the measured section / annotation bytes it ingested"),
    Metric("storage.write_wait_ms", "ms", "lower", "pool write_wait_ms delta / ingest batches"),
    Metric("storage.shard4_scan_ratio", "ratio", "lower",
           "curate only: read-probe time on a shards=4 copy / shards=1 (0 elsewhere)"),
    Metric("storage.shard4_write_ratio", "ratio", "lower",
           "curate only: ingest-probe time on a shards=4 copy / shards=1 (0 elsewhere)"),
    Metric("maintenance.add_self_ms", "ms", "lower", "SummaryManager.add_annotations self time"),
    Metric("maintenance.flush_ms", "ms", "lower", "SummaryManager.flush self time"),
    Metric("maintenance.summarize_once_hit_ratio", "ratio", "higher",
           "statistics()['summarize_once'] delta"),
    Metric("maintenance.folds_saved_per_batch", "count", "higher",
           "statistics()['maintenance'] delta"),
    Metric("maintenance.objects_updated_per_ann", "count", "lower",
           "statistics()['maintenance'] delta"),
    Metric("summaries.merge_ms", "ms", "lower", "SummaryObject.merge, all types"),
    Metric("summaries.merge_cluster_ms", "ms", "lower", "ClusterSummary.merge"),
    Metric("summaries.merge_classifier_ms", "ms", "lower", "ClassifierSummary.merge"),
    Metric("summaries.merge_snippet_ms", "ms", "lower", "SnippetSummary.merge"),
    Metric("summaries.merges_per_op", "count", "lower", "merge calls / read ops"),
    Metric("summaries.project_ms", "ms", "lower", "remove_annotations"),
    Metric("summaries.fold_ms", "ms", "lower", "fold_many + instance analyze, minus text"),
    Metric("summaries.copy_ms", "ms", "lower", "for_query + copy"),
    Metric("summaries.bytes_per_result_row", "count", "lower",
           "QueryResult.size_estimate() / result rows"),
    Metric("zoomin.execute_self_ms", "ms", "lower", "ZoomInExecutor.execute self time"),
    Metric("zoomin.cache_get_ms", "ms", "lower", "cache.get / get_or_compute"),
    Metric("zoomin.cache_put_ms", "ms", "lower", "cache.put (under queries and recomputes)"),
    Metric("zoomin.fetch_ms", "ms", "lower", "AnnotationStore.get_many under a zoom-in"),
    Metric("zoomin.hit_ratio", "ratio", "higher", "cache.stats_json delta"),
    Metric("zoomin.recompute_ratio", "ratio", "lower", "zoom-ins answered from a recompute"),
    Metric("zoomin.evictions_per_put", "count", "lower", "cache.stats_json delta"),
    Metric("zoomin.annotations_per_zoomin", "count", "lower", "raw annotations returned"),
    Metric("text.tokenize_ms", "ms", "lower", "Tokenizer.tokens / tokenize"),
    Metric("text.vectorize_ms", "ms", "lower",
           "term_frequencies + normalize + TfIdfVectorizer.vector*"),
    Metric("text.similarity_calls_per_op", "count", "lower", "cosine_similarity calls / op"),
    *(
        Metric(f"client.{m.name}", m.unit, m.better, f"{m.what} (no bound: see the A/A run)")
        for m in TIMINGS if m.name not in E2E_TIMINGS
    ),
    *(
        Metric(f"client.{cls}_p95_ms", "ms", "lower",
               f"`{cls}`: highest percentile with >= 10 samples beyond it (untraced)")
        for cls in OP_CLASSES
    ),
    Metric("client.round_drift_ratio", "ratio", "higher",
           "last untraced measured round ops/s / first"),
    Metric("client.calib_ms", "ms", "lower", "fastest fixed pure-Python calibration loop"),
    Metric("client.trace_overhead_ratio", "ratio", "higher",
           "traced / untraced throughput_ops_s"),
    *(
        Metric(f"share.{layer}", "ratio", "lower",
               f"total self time of `{layer}` spans / total traced op wall-clock")
        for layer in LAYERS
    ),
)

