"""EXP-M4 — Bulk annotation ingestion vs. one-at-a-time maintenance.

Measures annotation ingest throughput at the paper's annotation ratios
(30x-250x) in the two write-path configurations:

* ``single`` — one :meth:`~repro.engine.session.InsightNotes.add_annotation`
  call per annotation: per-annotation transactions, per-annotation
  instance resolution, per-annotation summary write-back.
* ``batched`` — one
  :meth:`~repro.engine.session.InsightNotes.add_annotations` call for the
  whole load: two ``executemany`` inserts for the raw annotations,
  instances resolved once per table, summary objects bulk-loaded, each
  annotation analyzed at most once per instance, and one bulk
  ``executemany`` summary write-back.

Both paths produce byte-identical summary state (the equivalence
property test holds them to it); the benchmark quantifies what the
batching buys — SQLite statements issued and annotations/second.

Shape expected: the statement count of the batched path collapses to a
small multiple of the touched-object count (≥3x fewer statements is the
gate at the top ratio), and throughput rises accordingly.

The statement gate itself is a tier-1 test
(``tests/maintenance/test_bulk_ingest.py``); this module reports the
series.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import PAPER_RATIOS, write_report
from repro.engine.session import InsightNotes
from repro.model.cell import CellRef
from repro.workloads import WorkloadConfig, build_workload
from repro.workloads.corpus import AnnotationFactory

#: Generation knobs mirroring the workload generator's annotation mix.
DOCUMENT_FRACTION = 0.02
COLUMN_FRACTION = 0.3
MULTI_ROW_FRACTION = 0.1

_AUTHORS = ["aria", "ben", "carla", "dmitri", "elena", "farid"]


def build_empty_workload(
    num_birds: int, seed: int = 29
) -> tuple[InsightNotes, list[int], tuple[str, ...]]:
    """A session with tables and linked instances but zero annotations.

    Returns ``(session, bird row ids, bird columns)`` — the fixed target
    every ingest run starts from.
    """
    workload = build_workload(
        WorkloadConfig(
            num_birds=num_birds,
            num_sightings=2 * num_birds,
            annotations_per_row=0,
            seed=seed,
        )
    )
    session = workload.session
    return session, workload.bird_rows, session.db.columns("birds")


def make_specs(
    row_ids: list[int],
    columns: tuple[str, ...],
    ratio: int,
    seed: int = 29,
) -> list[dict]:
    """Deterministic ``add_annotations`` specs at ``ratio`` per row.

    Mirrors the workload generator's annotation mix: a small fraction of
    large documents, a fraction attached to one column, and a fraction
    attached to two rows (the multi-tuple annotations whose contributions
    the batch analyzes once — the summarize-once guarantee batch-wide).
    """
    rng = random.Random(seed)
    factory = AnnotationFactory(seed=seed)
    specs: list[dict] = []
    for row_id in row_ids:
        for _ in range(ratio):
            if rng.random() < DOCUMENT_FRACTION:
                title, body = factory.draw_document()
                specs.append(
                    {
                        "text": body,
                        "table": "birds",
                        "row_id": row_id,
                        "document": True,
                        "title": title,
                        "author": rng.choice(_AUTHORS),
                    }
                )
                continue
            text, _category = factory.draw()
            spec: dict = {"text": text, "table": "birds", "row_id": row_id}
            if rng.random() < COLUMN_FRACTION:
                spec["columns"] = [rng.choice(columns)]
            if rng.random() < MULTI_ROW_FRACTION and len(row_ids) > 1:
                other = rng.choice([r for r in row_ids if r != row_id])
                column = rng.choice(columns)
                spec = {
                    "text": text,
                    "cells": [
                        CellRef("birds", row_id, column),
                        CellRef("birds", other, column),
                    ],
                }
            spec["author"] = rng.choice(_AUTHORS)
            specs.append(spec)
    return specs


def ingest_single(session: InsightNotes, specs: list[dict]) -> None:
    """The one-at-a-time write path: one ``add_annotation`` per spec."""
    for spec in specs:
        session.add_annotation(**spec)


def ingest_batched(session: InsightNotes, specs: list[dict]) -> None:
    """The bulk write path: the whole load in one ``add_annotations``."""
    session.add_annotations(specs)


INGEST_MODES = {"single": ingest_single, "batched": ingest_batched}


def measure_ingest(num_birds: int, ratio: int, mode: str) -> dict:
    """Statements issued and wall-clock seconds for one cold ingest run.

    Builds a fresh annotation-free session (construction not counted),
    then times the whole load going through ``mode``'s write path under
    the statement tracer.
    """
    import time

    session, row_ids, columns = build_empty_workload(num_birds)
    try:
        specs = make_specs(row_ids, columns, ratio)
        run = INGEST_MODES[mode]
        with session.db.track_queries() as counter:
            started = time.perf_counter()
            run(session, specs)
            elapsed = time.perf_counter() - started
    finally:
        session.close()
    return {
        "annotations": len(specs),
        "seconds": elapsed,
        "statements": counter.count,
    }


# -- pytest-benchmark entry points -----------------------------------------

_BENCH_BIRDS = 6
_BENCH_RATIOS = (30, 120)


@pytest.mark.parametrize("ratio", _BENCH_RATIOS)
@pytest.mark.parametrize("mode", sorted(INGEST_MODES))
def test_ingest_throughput(benchmark, ratio, mode):
    run = INGEST_MODES[mode]

    def setup():
        session, row_ids, columns = build_empty_workload(_BENCH_BIRDS)
        return (session, make_specs(row_ids, columns, ratio)), {}

    benchmark.extra_info["ratio"] = ratio
    benchmark.extra_info["mode"] = mode
    benchmark.pedantic(run, setup=setup, rounds=3)


def test_ingest_statement_reduction_report():
    """Series table: statements and throughput per ratio, both modes."""
    rows = []
    for ratio in PAPER_RATIOS:
        cells = {
            mode: measure_ingest(_BENCH_BIRDS, ratio, mode)
            for mode in INGEST_MODES
        }
        single, batched = cells["single"], cells["batched"]
        ratio_stmts = single["statements"] / max(batched["statements"], 1)
        rows.append(
            [
                f"{ratio}x",
                single["annotations"],
                single["statements"],
                batched["statements"],
                round(ratio_stmts, 1),
                round(single["annotations"] / max(single["seconds"], 1e-9)),
                round(batched["annotations"] / max(batched["seconds"], 1e-9)),
            ]
        )
        assert ratio_stmts >= 3.0, (
            f"batched ingest at {ratio}x issued only {ratio_stmts:.1f}x "
            "fewer statements (expected >= 3x)"
        )
    write_report(
        "exp_m4_ingest",
        "EXP-M4: bulk ingest vs one-at-a-time (statements and ann/s)",
        ["ratio", "anns", "stmts single", "stmts batched", "stmt ratio",
         "ann/s single", "ann/s batched"],
        rows,
    )
