"""The one write path: pinned ids through the batch API, and the fan-out.

A single write is a batch of one, so pinning a rowid or an annotation id
goes through ``insert_many(row_ids=...)`` and pinned
:class:`~repro.storage.annotations.AnnotationDraft` batches, and every
sharded batch reaches the shards through :meth:`Database.commit_shards`.
Every case runs on the single-file store and on four shards.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import AnnotationError, StorageError
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationDraft, AnnotationStore
from repro.storage.database import Database

CELL = (CellRef("birds", 1, "name"),)


@pytest.fixture(params=[1, 4], ids=["shards=1", "shards=4"])
def db(request, tmp_path):
    shards = request.param
    path = ":memory:" if shards == 1 else str(tmp_path / "writes.db")
    database = Database(path, shards=shards)
    database.create_table("birds", ["name"])
    yield database
    database.close()


@pytest.fixture
def store(db):
    db.insert_many("birds", [("swan",)])
    return AnnotationStore(db)


class TestPinnedRowids:
    def test_pinned_rowid_raises_the_floor(self, db):
        assert db.insert_many("birds", [("swan",)], row_ids=[10]) == [10]
        assert db.insert_many("birds", [("goose",)]) == [11]
        assert db.get_row("birds", 10) == ("swan",)
        assert db.get_row("birds", 11) == ("goose",)

    def test_single_insert_is_a_batch_of_one(self, db):
        assert db.insert("birds", {"name": "swan"}, row_id=10) == 10
        assert db.insert("birds", ("goose",)) == 11

    def test_rowid_count_must_match_rows(self, db):
        with pytest.raises(StorageError, match="rowids given"):
            db.insert_many("birds", [("a",), ("b",)], row_ids=[1])
        assert db.row_count("birds") == 0


class TestPinnedAnnotationIds:
    def test_pinned_ids_raise_the_floor(self, store):
        pinned = store.add_many(
            [
                AnnotationDraft("five", CELL, annotation_id=5),
                AnnotationDraft("nine", CELL, annotation_id=9),
            ]
        )
        assert [a.annotation_id for a in pinned] == [5, 9]
        fresh = store.add_many(
            [AnnotationDraft("ten", CELL), AnnotationDraft("eleven", CELL)]
        )
        assert [a.annotation_id for a in fresh] == [10, 11]
        assert [a.text for a in store.get_many([5, 9, 10, 11])] == [
            "five", "nine", "ten", "eleven",
        ]

    def test_single_add_is_a_batch_of_one(self, store):
        assert store.add("five", CELL, annotation_id=5).annotation_id == 5
        assert store.add("six", CELL).annotation_id == 6
        assert store.cells_of(5) == list(CELL)

    def test_mixed_batch_raises_and_writes_nothing(self, store):
        with pytest.raises(AnnotationError, match="every annotation id or none"):
            store.add_many(
                [
                    AnnotationDraft("pinned", CELL, annotation_id=5),
                    AnnotationDraft("free", CELL),
                ]
            )
        assert store.count() == 0
        # Nothing was pinned either: the next free id is still the first.
        assert store.add("first", CELL).annotation_id == 1


class TestCommitShards:
    def test_statements_run_in_order_per_shard(self, db):
        insert = "INSERT INTO birds (rowid, name) VALUES (?, ?)"
        rename = "UPDATE birds SET name = ? WHERE rowid = ?"
        db.commit_shards(
            {
                shard: [
                    (insert, [(100 + shard, "draft")]),
                    (rename, [("final", 100 + shard)]),
                ]
                for shard in range(db.shard_count)
            }
        )
        for shard in range(db.shard_count):
            assert db.fetch_all("SELECT rowid, name FROM birds", shard=shard) == [
                (100 + shard, "final")
            ]

    def test_failing_statement_rolls_back_only_its_shard(self, db):
        insert = "INSERT INTO birds (rowid, name) VALUES (?, ?)"
        failing = db.shard_count - 1
        batches = {
            shard: [(insert, [(100 + shard, f"row{shard}")])]
            for shard in range(db.shard_count)
        }
        # The second statement re-inserts the first one's rowid.
        batches[failing].append((insert, [(100 + failing, "duplicate")]))
        with pytest.raises(sqlite3.IntegrityError):
            db.commit_shards(batches)
        assert db.fetch_all("SELECT rowid FROM birds", shard=failing) == []
        for shard in range(db.shard_count):
            if shard != failing:
                assert db.fetch_all(
                    "SELECT rowid FROM birds", shard=shard
                ) == [(100 + shard,)]
