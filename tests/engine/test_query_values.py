"""A query's summary values are taken under the manager's lock.

A reader that already holds its block's summaries must see the state
before a concurrent write or the state after it — never an object a fold
is halfway through — and the value it returned must not change once the
write finishes.  The writer here pauses inside ``fold_many`` right after
``_writable()`` (the point where the object has dropped its cached value
but not yet folded), while the reader, paused after its block fetch,
finishes its query.
"""

from __future__ import annotations

import threading

from repro import InsightNotes
from repro.summaries.classifier import ClassifierSummary
from tests.conftest import TRAINING


def test_value_is_before_or_after_a_concurrent_fold(monkeypatch):
    notes = InsightNotes()
    notes.create_table("birds", ["name", "weight"])
    notes.insert("birds", ("Swan Goose", 3.2))
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    first = notes.add_annotation("observed feeding at dawn", table="birds", row_id=1)
    sql = "SELECT name, weight FROM birds"
    notes.query(sql)  # warm: the cached object has a cached value

    reader_holds, resume_reader = threading.Event(), threading.Event()
    writer_paused, resume_writer = threading.Event(), threading.Event()
    results: list = []
    reader = threading.Thread(target=lambda: results.append(notes.query(sql)))
    writer = threading.Thread(
        target=notes.add_annotation,
        args=("shows symptoms of avian pox",),
        kwargs={"table": "birds", "row_id": 1},
    )
    folding = threading.local()

    attachments_for_rows = notes.manager.attachments_for_rows

    def reader_pause(*args, **kwargs):
        maps = attachments_for_rows(*args, **kwargs)
        if threading.current_thread() is reader:
            reader_holds.set()
            resume_reader.wait(timeout=10)
        return maps

    fold_many = ClassifierSummary.fold_many
    writable = ClassifierSummary._writable

    def marked_fold(self, *args, **kwargs):
        folding.active = True
        try:
            return fold_many(self, *args, **kwargs)
        finally:
            folding.active = False

    def writer_pause(self):
        writable(self)
        if getattr(folding, "active", False) and not writer_paused.is_set():
            writer_paused.set()
            resume_writer.wait(timeout=10)

    monkeypatch.setattr(notes.manager, "attachments_for_rows", reader_pause)
    monkeypatch.setattr(ClassifierSummary, "fold_many", marked_fold)
    monkeypatch.setattr(ClassifierSummary, "_writable", writer_pause)
    try:
        reader.start()
        assert reader_holds.wait(timeout=10)
        writer.start()
        assert writer_paused.wait(timeout=10)
        resume_reader.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        (row,) = results[0].tuples
        value = row.summaries["BirdClass"]
        seen = (value.annotation_ids(), value.counts())
        resume_writer.set()
        writer.join(timeout=10)
        assert not writer.is_alive()

        stored = notes.annotations.annotation_ids_for_row("birds", 1)
        assert len(stored) == 2  # premise: the write landed
        assert seen[0] in (frozenset({first.annotation_id}), frozenset(stored))
        assert (value.annotation_ids(), value.counts()) == seen
    finally:
        resume_reader.set()
        resume_writer.set()
        notes.close()
