"""A catalog read's cache fill must not hide a write that landed during
its fetch.

``SummaryCatalog`` probes its deserialization LRU under its lock, fetches
the misses with the lock released, and fills the LRU afterwards.  A
writer that saves (and so invalidates) a row's object between that fetch
and that fill must win: the reader may return what it fetched, but the
pre-write object — or the "never summarized" marker, for a row written
for the first time — must not be cached, or every later query reads the
old state.  The reader here is paused right after its SQL fetch while an
annotation lands on the row.
"""

from __future__ import annotations

import threading

import pytest

from repro import InsightNotes
from tests.conftest import TRAINING


def _session(annotated: bool) -> InsightNotes:
    notes = InsightNotes()
    notes.create_table("birds", ["name", "weight"])
    notes.insert("birds", ("Swan Goose", 3.2))
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    if annotated:
        notes.add_annotation("observed feeding at dawn", table="birds", row_id=1)
    notes.manager.drop_caches()
    return notes


_READS = {
    "load_objects_for_table": lambda notes: notes.manager.objects_for_rows(
        ["BirdClass"], "birds", [1]
    ),
    "load_object": lambda notes: notes.catalog.load_object("BirdClass", "birds", 1),
}


@pytest.mark.parametrize("annotated", [True, False], ids=["object", "absent"])
@pytest.mark.parametrize("read", sorted(_READS))
def test_write_during_fetch_shows_in_the_next_query(monkeypatch, read, annotated):
    notes = _session(annotated)
    fetched = threading.Event()
    release = threading.Event()
    reader = threading.Thread(target=_READS[read], args=(notes,))

    def pausing(fetch):
        def paused(*args, **kwargs):
            rows = fetch(*args, **kwargs)
            if threading.current_thread() is reader and not fetched.is_set():
                fetched.set()
                release.wait(timeout=10)
            return rows

        return paused

    for name in ("fetch_one", "fetch_all"):
        monkeypatch.setattr(notes.db, name, pausing(getattr(notes.db, name)))
    try:
        reader.start()
        assert fetched.wait(timeout=10)
        added = notes.add_annotation(
            "shows symptoms of avian pox", table="birds", row_id=1
        )
        release.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        notes.manager.drop_caches()
        (row,) = notes.query("SELECT name, weight FROM birds").tuples
        stored = notes.annotations.annotation_ids_for_row("birds", 1)
        assert added.annotation_id in stored  # premise
        assert "BirdClass" in row.summaries
        assert row.summaries["BirdClass"].annotation_ids() == frozenset(stored)
    finally:
        release.set()
        notes.close()
