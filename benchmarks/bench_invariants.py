"""EXP-M2 — The summarize-once optimization (invariant properties).

An annotation attached to *k* tuples must be analyzed once, not *k*
times (§2.3).  Every built-in ``analyze`` depends on the annotation
alone, so the production ingest path (``InsightNotes.add_annotations``)
analyzes each annotation once per instance per batch whatever the
instance declares: the classifier is run here with the invariant flags
on (defaults) and off (declared non-invariant), and the bench counts
calls by wrapping the live instance's ``analyze``.

Shape expected: analyze calls stay at 1 per annotation regardless of
fan-out and of the flags, and insertion time grows only with the
per-object fold and write-back cost.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import time_call, write_report
from repro import InsightNotes
from repro.model.cell import CellRef
from repro.workloads.corpus import AnnotationFactory

FANOUTS = (1, 8, 32)


def _session(invariant: bool) -> tuple[InsightNotes, list[int]]:
    """A session with one classifier linked to ``birds``, and its
    analyze-call counter."""
    notes = InsightNotes()
    notes.create_table("birds", ["name"])
    notes.insert_many("birds", [(f"bird-{i}",) for i in range(max(FANOUTS))])
    factory = AnnotationFactory(seed=53)
    training = factory.training_set(8)
    labels = sorted({label for _, label in training})
    instance = notes.catalog.define_instance(
        "Classifier",
        "Cf",
        {
            "labels": labels,
            "annotation_invariant": invariant,
            "data_invariant": invariant,
        },
    )
    instance.train(training)
    notes.link("Cf", "birds")
    calls = [0]
    analyze = instance.analyze

    def counting(annotation):
        calls[0] += 1
        return analyze(annotation)

    instance.analyze = counting
    return notes, calls


def _add_multi_tuple(notes: InsightNotes, factory: AnnotationFactory,
                     fanout: int) -> None:
    text, _category = factory.draw()
    cells = [CellRef("birds", row_id, "name") for row_id in range(1, fanout + 1)]
    notes.add_annotations([{"text": text, "cells": cells}])


@pytest.mark.parametrize("fanout", FANOUTS)
def test_summarize_once_enabled(benchmark, fanout):
    notes, _calls = _session(invariant=True)
    factory = AnnotationFactory(seed=71)
    benchmark.extra_info["fanout"] = fanout
    benchmark(lambda: _add_multi_tuple(notes, factory, fanout))
    notes.close()


@pytest.mark.parametrize("fanout", FANOUTS)
def test_summarize_once_disabled(benchmark, fanout):
    notes, _calls = _session(invariant=False)
    factory = AnnotationFactory(seed=71)
    benchmark.extra_info["fanout"] = fanout
    benchmark(lambda: _add_multi_tuple(notes, factory, fanout))
    notes.close()


def test_report_series(benchmark):
    rows = []
    for fanout in FANOUTS:
        series = []
        for invariant in (True, False):
            notes, calls = _session(invariant)
            factory = AnnotationFactory(seed=71)
            repeats = 3
            elapsed = time_call(
                lambda: _add_multi_tuple(notes, factory, fanout), repeats
            )
            series.append((elapsed * 1000, calls[0] / repeats))
            notes.close()
        (on_ms, on_calls), (off_ms, off_calls) = series
        rows.append((fanout, on_ms, off_ms, on_calls, off_calls))
    write_report(
        "exp_m2_invariants",
        "EXP-M2: multi-tuple annotation insert, invariant flags on/off",
        ["fanout", "invariant ms", "non-invariant ms",
         "analyze/annot (inv)", "analyze/annot (non-inv)"],
        rows,
    )
    benchmark(lambda: None)


def test_analyze_call_counts(benchmark):
    """Hard check: fan-out 32 analyzes once, flags on and off."""
    for invariant in (True, False):
        notes, calls = _session(invariant)
        before = notes.statistics()["summarize_once"]
        _add_multi_tuple(notes, AnnotationFactory(seed=71), 32)
        after = notes.statistics()["summarize_once"]
        assert calls[0] == 1
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 31
        notes.close()
    benchmark(lambda: None)
