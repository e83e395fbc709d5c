"""A read's cache fill must not hide a write that landed during its fetch.

``SummaryManager`` probes its attachments LRU under its lock, fetches the
misses with the lock released, and fills the LRU afterwards.  A writer
that invalidates a row between that fetch and that fill must win: the
reader may return what it fetched, but the stale map must not be cached,
or every later query hides the new annotation until the row is written
again.  The reader here is paused inside the store fetch (after it read
the pre-write state) while the write lands.
"""

from __future__ import annotations

import threading

import pytest

from repro import InsightNotes
from repro.concurrency import InvalidationStamps


def _session() -> InsightNotes:
    notes = InsightNotes()
    notes.create_table("birds", ["name", "weight"])
    notes.insert("birds", ("Swan Goose", 3.2))
    notes.add_annotation("observed feeding at dawn", table="birds", row_id=1)
    notes.manager.drop_caches()
    return notes


@pytest.mark.parametrize(
    "read",
    [
        lambda manager: manager.attachments_for_rows("birds", [1]),
        lambda manager: manager.attachments_for_row("birds", 1),
    ],
    ids=["attachments_for_rows", "attachments_for_row"],
)
def test_write_during_fetch_shows_in_the_next_query(monkeypatch, read):
    notes = _session()
    fetched = threading.Event()
    release = threading.Event()
    reader = threading.Thread(target=read, args=(notes.manager,))

    def pausing(fetch):
        def paused(*args, **kwargs):
            result = fetch(*args, **kwargs)
            if threading.current_thread() is reader:
                fetched.set()
                release.wait(timeout=10)
            return result

        return paused

    for name in ("attachments_for_row", "attachments_for_rows"):
        monkeypatch.setattr(
            notes.annotations, name, pausing(getattr(notes.annotations, name))
        )
    try:
        reader.start()
        assert fetched.wait(timeout=10)
        (added,) = notes.add_annotations(
            [{"text": "shows symptoms of avian pox", "table": "birds", "row_id": 1}]
        )
        release.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        (row,) = notes.query("SELECT name, weight FROM birds").tuples
        assert added.annotation_id in row.annotation_ids()
    finally:
        release.set()
        notes.close()


def test_read_between_summary_update_and_store_delete_is_not_cached(monkeypatch):
    """``delete_annotation`` invalidates the attachments LRU before the
    store delete; a read landing in between must not leave the pre-delete
    map cached for the next query."""
    notes = InsightNotes()
    try:
        notes.create_table("birds", ["name", "weight"])
        notes.insert("birds", ("Swan Goose", 3.2))
        first, second = notes.add_annotations(
            [
                {"text": "observed feeding at dawn", "table": "birds", "row_id": 1},
                {"text": "shows symptoms of avian pox", "table": "birds", "row_id": 1},
            ]
        )
        store_delete = notes.annotations.delete

        def delete_after_a_read(annotation_id):
            notes.manager.attachments_for_rows("birds", [1])
            store_delete(annotation_id)

        monkeypatch.setattr(notes.annotations, "delete", delete_after_a_read)
        notes.delete_annotation(second.annotation_id)
        stored = notes.annotations.attachments_for_rows("birds", [1])[1]
        assert set(stored) == {first.annotation_id}  # premise
        (row,) = notes.query("SELECT name, weight FROM birds").tuples
        assert set(row.annotation_ids()) == {first.annotation_id}
    finally:
        notes.close()


def test_invalidation_stamps_stay_bounded():
    notes = InsightNotes()
    try:
        notes.create_table("birds", ["name"])
        rows = notes.insert_many("birds", [(f"b{i}",) for i in range(40)])
        manager = notes.manager
        manager._attachment_stamps = InvalidationStamps(capacity=8)
        for row_id in rows:
            notes.add_annotation("a note", table="birds", row_id=row_id)
        assert len(manager._attachment_stamps.stamps) <= 8
        # A fill after the stamps were forgotten still caches fresh maps.
        manager.attachments_for_rows("birds", rows[:3])
        assert ("birds", rows[0]) in manager._attachments
    finally:
        notes.close()
