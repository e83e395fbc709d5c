"""EXP-SH — Bulk-ingest throughput under concurrent reads, 1 vs 4 shards.

Compares one and four shards of the hash-partitioned storage backend
under the mixed load the sharding rework targets: **four writer
threads bulk-ingesting annotation batches while eight reader threads
run scatter-gather pushdown queries**.  ``shards_1`` is the single-file
compatibility baseline (one lock-serialized writer); at ``shards_N``
each shard has its own SQLite file, connection pool, and independently
serialized writer, so concurrent batches land on disjoint write locks
and overlap their commit / WAL work instead of queueing.

The workload, ``ingest_under_read``, is the wall-clock for the four
writers to finish a fixed number of ``AnnotationStore.add_many`` batches
each while the readers query continuously.  The write work is fixed, so
the ``shards_1 / shards_4`` wall-clock ratio *is* the ingest throughput
gain.

Ingest goes through the storage layer (``session.annotations.add_many``)
rather than the session facade: the benchmark isolates the storage
backend, and the facade's summary-maintenance fold holds a single
process-wide lock that would serialize both topologies equally.  The
annotation shape follows the paper's setting — **~600-byte bodies
attached to three cells each** (one observation often concerns several
tuples), ingested in small frequent batches (10 per commit).  That is
the regime per-shard writers target: every commit is a write-lock
acquisition plus WAL append on the baseline's one file, while the
block-affine id placement gives each sharded batch a private shard —
under heavy concurrent read pressure the baseline writer that holds
the single write lock keeps losing its GIL timeslice to readers,
convoying every other writer behind it, which per-shard locks avoid.
"""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.conftest import write_report
from repro.engine.session import InsightNotes
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationDraft

MODES = {
    "shards_1": {"shards": 1},
    "shards_4": {"shards": 4},
}

#: Concurrent ingest threads; also the cell key (``4w``).
WRITERS = 4

#: Concurrent query threads; also the cell key (``8t``).  Deliberately
#: heavier than the writer side: the paper's scenario is many consumers
#: browsing summaries while annotations stream in, and read pressure is
#: what amplifies the baseline's single-write-lock convoy.
READERS = 8

#: Cells attached per annotation (the same observation attached to
#: several tuples).
CELLS_PER_ANNOTATION = 3

#: Sargable mix: every predicate/LIMIT compiles into the storage scan,
#: so sharded runs exercise the scatter-gather merge end to end.
QUERIES = [
    "SELECT name, species FROM birds "
    "WHERE weight > 64.6 AND region = 'north' LIMIT 25",
    "SELECT name FROM birds WHERE species = 'species7' AND weight < 0.4",
    "SELECT name, weight FROM birds WHERE weight >= 129.3",
]

#: ~600 bytes per annotation ("even metadata is getting big") — enough
#: WAL payload per batch that commit work is measurable, small enough
#: that batches stay frequent.
_TEXT = (
    "observed feeding on stonewort near the reed bed at dawn; "
    "ring read, condition good, no sign of avian pox or influenza "
) * 5


def build_sharding_session(path: str, num_rows: int, mode: str
                           ) -> InsightNotes:
    """A file-backed session with a scannable ``birds`` relation.

    ``birds`` is the query target *and* the attachment target of the
    ingested annotations, so reads scatter-gather over exactly the
    shards the writers are committing into.
    """
    session = InsightNotes(path, **MODES[mode])
    session.create_table("birds", ["name", "species", "region", "weight"])
    names = ["finch", "heron", "plover", "warbler", "sparrow", "egret"]
    session.insert_many(
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
    return session


def make_batches(
    n_writers: int, batches_per_writer: int, batch_rows: int, num_rows: int
) -> list[list[list[AnnotationDraft]]]:
    """Prebuilt per-writer draft batches (``[writer][batch] -> drafts``).

    Drafts are immutable value objects, so the same batches can be
    replayed across repeats; texts are distinct, every annotation
    attaches to :data:`CELLS_PER_ANNOTATION` cells, and rows cycle over
    the whole relation so attachments spread across every shard.
    """
    batches: list[list[list[AnnotationDraft]]] = []
    for writer in range(n_writers):
        per_writer: list[list[AnnotationDraft]] = []
        for batch in range(batches_per_writer):
            start = (writer * batches_per_writer + batch) * batch_rows
            per_writer.append(
                [
                    AnnotationDraft(
                        text=f"{_TEXT}#{start + i}",
                        cells=tuple(
                            CellRef(
                                "birds",
                                (start + i + k * 97) % num_rows + 1,
                                "name",
                            )
                            for k in range(CELLS_PER_ANNOTATION)
                        ),
                    )
                    for i in range(batch_rows)
                ]
            )
        batches.append(per_writer)
    return batches


def warm_readers(
    session: InsightNotes, executor: ThreadPoolExecutor, workers: int
) -> None:
    """Run the query mix once on every reader thread (opens and warms
    each thread's pooled read connections before measurement)."""
    barrier = threading.Barrier(workers)

    def warm() -> None:
        barrier.wait(timeout=30)
        for sql in QUERIES:
            session.query(sql)

    futures = [executor.submit(warm) for _ in range(workers)]
    for future in futures:
        future.result()


def measure_ingest_under_read(
    session: InsightNotes,
    writer_pool: ThreadPoolExecutor,
    reader_pool: ThreadPoolExecutor,
    batches: list[list[list[AnnotationDraft]]],
    n_readers: int,
) -> dict:
    """Wall-clock for every writer to drain its batch list while
    ``n_readers`` query threads run the mix continuously.

    The write work is fixed, so ``seconds`` across modes compares ingest
    throughput directly; reader progress is reported so a mode cannot
    "win" by starving reads.
    """
    stop = threading.Event()
    barrier = threading.Barrier(len(batches))

    def writer(worker: int) -> int:
        barrier.wait(timeout=30)
        done = 0
        for batch in batches[worker]:
            session.annotations.add_many(batch)
            done += 1
        return done

    def reader(worker: int) -> int:
        done = 0
        while not stop.is_set():
            session.query(QUERIES[(worker + done) % len(QUERIES)])
            done += 1
        return done

    reader_futures = [reader_pool.submit(reader, k) for k in range(n_readers)]
    started = time.perf_counter()
    writer_futures = [
        writer_pool.submit(writer, k) for k in range(len(batches))
    ]
    batch_count = sum(future.result() for future in writer_futures)
    elapsed = time.perf_counter() - started
    stop.set()
    queries = sum(future.result() for future in reader_futures)
    annotations = batch_count * len(batches[0][0])
    return {
        "seconds": elapsed,
        "annotations": annotations,
        "annotations_per_s": annotations / max(elapsed, 1e-9),
        "writer_batches": batch_count,
        "reader_queries": queries,
    }


# -- pytest entry point ----------------------------------------------------

_SMOKE_ROWS = 2_000
_SMOKE_BATCH = 50
_SMOKE_BATCHES_PER_WRITER = 3


@pytest.mark.parametrize("mode", sorted(MODES))
def test_sharded_ingest_report(tmp_path, mode):
    """Series table: ingest-under-read wall-clock, one shard count."""
    session = build_sharding_session(
        str(tmp_path / f"{mode}.db"), _SMOKE_ROWS, mode
    )
    writer_pool = ThreadPoolExecutor(max_workers=WRITERS)
    reader_pool = ThreadPoolExecutor(max_workers=READERS)
    try:
        warm_readers(session, reader_pool, READERS)
        batches = make_batches(
            WRITERS, _SMOKE_BATCHES_PER_WRITER, _SMOKE_BATCH, _SMOKE_ROWS
        )
        runs = [
            measure_ingest_under_read(
                session, writer_pool, reader_pool, batches, READERS
            )
            for _ in range(3)
        ]
        median = statistics.median(run["seconds"] for run in runs)
        counters = session.db.backend.counters()
        # Sanity, not a perf gate (CI machines vary too much): every
        # batch landed, readers made progress, and — when sharded —
        # every shard took writes.
        assert all(
            run["writer_batches"] == WRITERS * _SMOKE_BATCHES_PER_WRITER
            for run in runs
        )
        assert all(run["reader_queries"] >= 1 for run in runs)
        assert all(
            pool["write_batches"] >= 1 for pool in counters.values()
        )
        write_report(
            f"exp_sh_sharding_{mode}",
            f"EXP-SH: ingest under concurrent reads ({mode})",
            ["mode", "writers", "median ms", "annotations/s"],
            [
                [
                    mode,
                    WRITERS,
                    round(median * 1000, 1),
                    round(runs[0]["annotations"] / max(median, 1e-9), 1),
                ]
            ],
        )
    finally:
        writer_pool.shutdown()
        reader_pool.shutdown()
        session.close()
