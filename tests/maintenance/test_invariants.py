"""Summarize-once on the write path.

Every built-in ``analyze`` reads only the annotation, so
:meth:`SummaryManager.add_annotations` keeps one batch-local
``(instance, annotation id) -> contribution`` map: an annotation is
analyzed once per instance for the whole batch, across rows and tables,
and that contribution is folded into every tuple it covers.  No
contribution outlives its batch.  ``statistics()["summarize_once"]``
counts the reuse: ``hits`` are applications that reused a contribution,
``misses`` are ``analyze`` calls.
"""

import pytest

from repro import InsightNotes
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationDraft
from tests.conftest import TRAINING


def count_analyze_calls(notes: InsightNotes, name: str) -> list[int]:
    """Wrap one live instance's ``analyze``; returns the call-count cell."""
    instance = notes.catalog.get_instance(name)
    calls = [0]
    analyze = instance.analyze

    def counting(annotation):
        calls[0] += 1
        return analyze(annotation)

    instance.analyze = counting
    return calls


def summarize_once(notes: InsightNotes) -> dict:
    return notes.statistics()["summarize_once"]


@pytest.fixture
def notes():
    """A classifier and a cluster, both linked to tables ``a`` and ``b``."""
    session = InsightNotes()
    session.create_table("a", ["x"])
    session.create_table("b", ["y"])
    session.insert_many("a", [("a1",), ("a2",), ("a3",)])
    session.insert_many("b", [("b1",)])
    session.define_classifier("Cf", ["Behavior", "Disease"], TRAINING)
    session.define_cluster("Cl", threshold=0.3)
    for name in ("Cf", "Cl"):
        for table in ("a", "b"):
            session.link(name, table)
    yield session
    session.close()


class TestContributionCache:
    """The batch's contribution map: one analysis per (instance,
    annotation) per batch, dropped when the batch ends."""

    def test_invariant_instance_analyzed_once(self, notes):
        calls = count_analyze_calls(notes, "Cf")
        notes.add_annotations(
            [
                {
                    "text": "observed feeding on stonewort",
                    "cells": [CellRef("a", row, "x") for row in (1, 2, 3)],
                }
            ]
        )
        assert calls[0] == 1
        for row in (1, 2, 3):
            label = notes.manager.current_object("Cf", "a", row)
            assert label.count("Behavior") == 1

    def test_distinct_annotations_cached_separately(self, notes):
        calls = count_analyze_calls(notes, "Cf")
        cells = [CellRef("a", 1, "x"), CellRef("a", 2, "x")]
        notes.add_annotations(
            [
                {"text": "observed feeding on stonewort", "cells": cells},
                {"text": "tested positive for botulism", "cells": cells},
            ]
        )
        assert calls[0] == 2
        obj = notes.manager.current_object("Cf", "a", 1)
        assert obj.count("Behavior") == 1
        assert obj.count("Disease") == 1

    def test_hit_ratio(self, notes):
        before = summarize_once(notes)
        notes.add_annotations(
            [
                {
                    "text": "observed feeding on stonewort",
                    "cells": [CellRef("a", row, "x") for row in (1, 2, 3)],
                }
            ]
        )
        after = summarize_once(notes)
        # Two instances, three rows each: 2 analyses, 4 reuses.
        assert after["misses"] - before["misses"] == 2
        assert after["hits"] - before["hits"] == 4
        assert after["hit_ratio"] == pytest.approx(2 / 3)

    def test_invalidate_annotation(self, notes):
        (added,) = notes.add_annotations(
            [
                {
                    "text": "observed feeding on stonewort",
                    "cells": [CellRef("a", 1, "x"), CellRef("a", 2, "x")],
                }
            ]
        )
        calls = count_analyze_calls(notes, "Cf")
        notes.update_annotation(
            added.annotation_id, text="tested positive for botulism"
        )
        # The new text is analyzed afresh, once for both rows.
        assert calls[0] == 1
        for row in (1, 2):
            obj = notes.manager.current_object("Cf", "a", row)
            assert obj.count("Disease") == 1
            assert obj.count("Behavior") == 0

    def test_clear_keeps_stats(self, notes):
        """The map is dropped with its batch; the counters outlive it."""
        before = summarize_once(notes)
        for text in ("observed feeding on stonewort", "seen diving for fish"):
            notes.add_annotations(
                [
                    {
                        "text": text,
                        "cells": [CellRef("a", row, "x") for row in (1, 2, 3)],
                    }
                ]
            )
        after = summarize_once(notes)
        assert after["misses"] - before["misses"] == 4
        assert after["hits"] - before["hits"] == 8

    def test_invalidate_instance(self):
        """A retrained model reaches the next write: no contribution
        outlives its batch, so nothing needs invalidating."""
        with InsightNotes() as notes:
            notes.create_table("t", ["v"])
            notes.insert("t", ("x",))
            # Mistrained on purpose: "pelagic ... offshore" reads as Disease.
            notes.define_classifier(
                "C",
                ["Behavior", "Disease"],
                [
                    ("pelagic swimming sighted offshore", "Disease"),
                    ("pelagic lesions spreading offshore", "Disease"),
                    ("observed feeding near shore", "Behavior"),
                ],
            )
            notes.link("C", "t")
            text = "pelagic foraging sighted offshore"
            added = notes.add_annotation(text, table="t", row_id=1)
            assert notes.manager.current_object("C", "t", 1).count("Disease") == 1
            notes.retrain_classifier(
                "C", [("pelagic foraging sighted at sea", "Behavior")] * 4
            )
            notes.update_annotation(added.annotation_id, text=text)
            obj = notes.manager.current_object("C", "t", 1)
            assert obj.count("Behavior") == 1
            assert obj.count("Disease") == 0


class TestBatchWideSummarizeOnce:
    def test_annotation_spanning_two_tables_analyzed_once_per_instance(
        self, notes
    ):
        classifier = count_analyze_calls(notes, "Cf")
        cluster = count_analyze_calls(notes, "Cl")
        before = summarize_once(notes)
        notes.add_annotations(
            [
                {
                    "text": "seen foraging among pond weeds",
                    "cells": [
                        CellRef("a", 1, "x"),
                        CellRef("a", 2, "x"),
                        CellRef("b", 1, "y"),
                    ],
                }
            ]
        )
        after = summarize_once(notes)
        assert classifier[0] == 1
        assert cluster[0] == 1
        # Three rows x two instances = 6 applications, 2 analyses.
        assert after["hits"] - before["hits"] == 4
        assert after["misses"] - before["misses"] == 2
        assert "bypasses" not in after
        for table, row in (("a", 1), ("a", 2), ("b", 1)):
            obj = notes.manager.current_object("Cl", table, row)
            assert len(obj.annotation_ids()) == 1

    def test_single_add_analyzes_once_per_instance(self, notes):
        calls = count_analyze_calls(notes, "Cl")
        cells = [CellRef("a", 1, "x"), CellRef("a", 2, "x"), CellRef("b", 1, "y")]
        annotation = notes.annotations.add_many(
            [AnnotationDraft("seen foraging among pond weeds", tuple(cells))]
        )[0]
        assert notes.manager.on_annotation_added(annotation, cells) == 6
        assert calls[0] == 1

    def test_invariant_flags_gate_nothing(self, notes):
        """A classifier declared non-invariant is still analyzed once:
        the flags are metadata, and ``analyze`` reads the annotation only."""
        notes.catalog.define_instance(
            "Classifier",
            "Nf",
            {
                "labels": ["Behavior", "Disease"],
                "annotation_invariant": False,
                "data_invariant": False,
            },
        ).train(TRAINING)
        notes.link("Nf", "a")
        calls = count_analyze_calls(notes, "Nf")
        notes.add_annotations(
            [
                {
                    "text": "observed feeding on stonewort",
                    "cells": [CellRef("a", row, "x") for row in (1, 2, 3)],
                }
            ]
        )
        assert calls[0] == 1
        for row in (1, 2, 3):
            assert notes.manager.current_object("Nf", "a", row).count("Behavior") == 1
