"""A read's cache fill must not hide a write that landed during its fetch.

``SummaryManager.objects_for_rows`` probes the object cache under the
manager's lock, fetches the misses from the catalog with the lock
released, and fills the cache afterwards.  A write between that fetch and
that fill must win: the reader may return what it fetched, but the
pre-write object — or the "never summarized" marker, for a row written
for the first time — must not be cached, or every later query reads the
old state.  The reader here is paused right after its SQL fetch while the
write lands.  The maintenance write then leaves the cache (as an eviction
would), so only the write's invalidation stamp stands between the stale
fetch and the cache; a rebuild writes around the manager altogether.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import CellRef, InsightNotes
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


def _add_annotation(notes: InsightNotes) -> None:
    notes.add_annotation("shows symptoms of avian pox", table="birds", row_id=1)
    notes.manager.drop_caches()


def _rebuild_summaries(notes: InsightNotes) -> None:
    # Stored without maintenance, so only the rebuild summarizes it.
    notes.annotations.add(
        "shows symptoms of avian pox", [CellRef("birds", 1, "name")]
    )
    notes.rebuild_summaries()


_WRITES = {
    "add_annotation": _add_annotation,
    "rebuild_summaries": _rebuild_summaries,
}


@pytest.mark.parametrize("write", sorted(_WRITES))
@pytest.mark.parametrize("annotated", [True, False], ids=["object", "absent"])
def test_write_during_fetch_shows_in_the_next_query(monkeypatch, annotated, write):
    notes = _session(annotated)
    fetched = threading.Event()
    release = threading.Event()
    reader = threading.Thread(
        target=notes.manager.objects_for_rows, args=(["BirdClass"], "birds", [1])
    )

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
        _WRITES[write](notes)
        release.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        (row,) = notes.query("SELECT name, weight FROM birds").tuples
        stored = notes.annotations.annotation_ids_for_row("birds", 1)
        assert len(stored) == (2 if annotated else 1)  # premise
        assert "BirdClass" in row.summaries
        assert row.summaries["BirdClass"].annotation_ids() == frozenset(stored)
    finally:
        release.set()
        notes.close()


def test_concurrent_reads_leave_no_stale_object_cached(tmp_path):
    """Readers racing a writer and cache drops: once all stop, every
    cached object matches the annotations stored for its row."""
    notes = InsightNotes(str(tmp_path / "race.db"))
    notes.create_table("birds", ["name", "weight"])
    rows = notes.insert_many("birds", [(f"b{i}", float(i)) for i in range(6)])
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    done = threading.Event()
    errors: list[BaseException] = []

    def read() -> None:
        try:
            while not done.is_set():
                notes.manager.objects_for_rows(["BirdClass"], "birds", rows)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    def write() -> None:
        try:
            for i in range(60):
                notes.add_annotation(
                    f"observed feeding at dawn {i}",
                    table="birds", row_id=rows[i % len(rows)],
                )
                notes.manager.drop_caches()  # as eviction would
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=read) for _ in range(4)]
    threads.append(threading.Thread(target=write))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(not thread.is_alive() for thread in threads)
        assert not errors, errors
        cached = notes.manager.objects_for_rows(["BirdClass"], "birds", rows)
        for row_id in rows:
            stored = notes.annotations.annotation_ids_for_row("birds", row_id)
            assert cached[("BirdClass", row_id)].annotation_ids() == frozenset(stored)
    finally:
        done.set()
        sys.setswitchinterval(interval)
        notes.close()
