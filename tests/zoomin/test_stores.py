"""Tests for result serialization and the disk-based cache store."""

import pytest

from repro import InsightNotes
from repro.engine.results import QueryResult
from repro.summaries.registry import default_registry
from repro.zoomin.stores import SQLiteResultStore
from repro.zoomin.tiered import TieredZoomInCache
from tests.conftest import TRAINING


@pytest.fixture
def populated():
    notes = InsightNotes()
    notes.create_table("birds", ["name", "weight"])
    notes.insert("birds", ("Swan", 3.2))
    notes.insert("birds", ("Goose", None))
    notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
    notes.define_cluster("Cl", threshold=0.3)
    notes.link("C", "birds")
    notes.link("Cl", "birds")
    notes.add_annotation("observed feeding on stonewort",
                         table="birds", row_id=1)
    notes.add_annotation("shows symptoms of avian pox",
                         table="birds", row_id=1, columns=["weight"])
    yield notes
    notes.close()


class TestResultSerialization:
    def test_round_trip_preserves_everything(self, populated):
        result = populated.query("SELECT name, weight FROM birds")
        revived = QueryResult.from_json(
            result.to_json(), populated.catalog.registry
        )
        assert revived.qid == result.qid
        assert revived.columns == result.columns
        assert revived.rows() == result.rows()
        for left, right in zip(result.tuples, revived.tuples):
            assert left.attachments == right.attachments
            assert left.source_rows == right.source_rows
            assert {k: v.render() for k, v in left.summaries.items()} == {
                k: v.render() for k, v in right.summaries.items()
            }

    def test_round_trip_is_json_safe(self, populated):
        import json

        result = populated.query("SELECT name FROM birds")
        json.dumps(result.to_json())  # no raise

    def test_zoom_components_survive(self, populated):
        result = populated.query("SELECT name, weight FROM birds")
        revived = QueryResult.from_json(
            result.to_json(), populated.catalog.registry
        )
        original = result.tuples[0].summaries["C"].zoom_components()
        rebuilt = revived.tuples[0].summaries["C"].zoom_components()
        assert [(c.label, c.annotation_ids) for c in original] == [
            (c.label, c.annotation_ids) for c in rebuilt
        ]


class TestSQLiteResultStore:
    def test_put_get_delete(self, populated):
        store = SQLiteResultStore(registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        size = store.put(result)
        assert size > 0
        revived = store.get(result.qid)
        assert revived is not None
        assert revived.rows() == result.rows()
        store.delete(result.qid)
        assert store.get(result.qid) is None
        store.close()

    def test_put_is_upsert(self, populated):
        store = SQLiteResultStore(registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        store.put(result)
        store.put(result)
        assert store.get(result.qid) is not None
        store.close()

    def test_file_backed_store(self, populated, tmp_path):
        path = str(tmp_path / "cache.db")
        store = SQLiteResultStore(path, registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        store.put(result)
        store.close()
        reopened = SQLiteResultStore(path, registry=populated.catalog.registry)
        assert reopened.get(result.qid) is not None
        reopened.close()

    def test_charged_bytes_are_encoded_payload_size(self, populated):
        import json

        store = SQLiteResultStore(registry=populated.catalog.registry)
        result = populated.query("SELECT name, weight FROM birds")
        size = store.put(result)
        payload = json.dumps(result.to_json(), ensure_ascii=False)
        assert size == len(payload.encode("utf-8"))
        store.close()

    def test_non_ascii_payload_charges_bytes_not_chars(self, populated):
        """Regression: ``len(payload)`` counts characters and
        undercharges multi-byte annotation text; the disk tier must
        charge what actually lands in the file."""
        import json

        notes = InsightNotes()
        notes.create_table("t", ["v"])
        notes.insert("t", ("Anser cygnoïdes — 鸿雁",))
        result = notes.query("SELECT v FROM t")
        payload = json.dumps(result.to_json(), ensure_ascii=False)
        assert len(payload.encode("utf-8")) > len(payload)  # premise
        store = SQLiteResultStore(registry=notes.catalog.registry)
        assert store.put(result) == len(payload.encode("utf-8"))
        store.close()
        notes.close()

    def test_memory_store_charges_size_estimate(self, populated):
        cache = TieredZoomInCache(disk_bytes=0)
        result = populated.query("SELECT name FROM birds")
        cache.put(result)
        assert cache.memory_bytes_used == result.size_estimate()


class TestStoredMetadata:
    def test_put_persists_replacement_metadata(self, populated):
        store = SQLiteResultStore(registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        size = store.put(result, cost=42.5, access_count=3, last_access=17)
        (meta,) = store.load_metadata()
        assert meta.qid == result.qid
        assert meta.size_bytes == size
        assert meta.cost == 42.5
        assert meta.access_count == 3
        assert meta.last_access == 17
        store.close()

    def test_cost_defaults_to_plan_cost(self, populated):
        store = SQLiteResultStore(registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        store.put(result)
        (meta,) = store.load_metadata()
        assert meta.cost == float(result.plan_cost)
        store.close()

    def test_update_access_refreshes_bookkeeping(self, populated):
        store = SQLiteResultStore(registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        store.put(result)
        store.update_access(result.qid, access_count=9, last_access=33)
        (meta,) = store.load_metadata()
        assert (meta.access_count, meta.last_access) == (9, 33)
        store.close()

    def test_metadata_survives_reopen(self, populated, tmp_path):
        path = str(tmp_path / "cache.db")
        store = SQLiteResultStore(path, registry=populated.catalog.registry)
        result = populated.query("SELECT name FROM birds")
        store.put(result, cost=7.0, access_count=2, last_access=5)
        store.close()
        reopened = SQLiteResultStore(path, registry=populated.catalog.registry)
        (meta,) = reopened.load_metadata()
        assert (meta.cost, meta.access_count, meta.last_access) == (7.0, 2, 5)
        reopened.close()

    def test_migrates_pre_metadata_schema(self, populated, tmp_path):
        """A cache file written by the two-column schema gains the
        metadata columns in place and keeps its payloads readable."""
        import json
        import sqlite3

        path = str(tmp_path / "old.db")
        result = populated.query("SELECT name FROM birds")
        legacy = sqlite3.connect(path)
        legacy.execute(
            "CREATE TABLE cached_results (qid INTEGER PRIMARY KEY, "
            "payload TEXT NOT NULL)"
        )
        legacy.execute(
            "INSERT INTO cached_results VALUES (?, ?)",
            (result.qid, json.dumps(result.to_json())),
        )
        legacy.commit()
        legacy.close()
        store = SQLiteResultStore(path, registry=populated.catalog.registry)
        revived = store.get(result.qid)
        assert revived is not None and revived.rows() == result.rows()
        (meta,) = store.load_metadata()
        assert meta.qid == result.qid
        assert meta.size_bytes == 0  # unknown for legacy rows
        store.update_access(result.qid, access_count=1, last_access=1)
        store.close()


def _disk_only_cache(store: SQLiteResultStore, disk_bytes: int):
    """``memory_bytes=1`` admits every result straight to the store."""
    return TieredZoomInCache(
        memory_bytes=1,
        disk_bytes=disk_bytes,
        disk_store=store,
    )


class TestCacheWithDiskStore:
    def test_cache_over_sqlite_store(self, populated):
        cache = _disk_only_cache(
            SQLiteResultStore(registry=populated.catalog.registry), 10**6
        )
        result = populated.query("SELECT name FROM birds")
        assert cache.put(result)  # too big for memory: goes to disk
        assert cache.tier_of(result.qid) == "disk"
        revived = cache.get(result.qid)
        assert revived is not None
        assert revived.rows() == result.rows()
        assert cache.counters.disk_hits == 1

    def test_eviction_deletes_from_store(self, populated):
        store = SQLiteResultStore(registry=populated.catalog.registry)
        first = populated.query("SELECT name FROM birds")
        single = store.put(first)
        store.delete(first.qid)
        cache = _disk_only_cache(store, int(single * 2.2))
        qids = []
        for _ in range(3):
            result = populated.query("SELECT name FROM birds")
            cache.put(result)
            qids.append(result.qid)
        assert len(cache) == 2
        assert store.get(qids[0]) is None  # evicted from disk too

    def test_session_with_disk_cache(self):
        notes = InsightNotes(cache_bytes=1, cache_disk_bytes=1 << 20)
        notes.create_table("t", ["v"])
        notes.insert("t", ("x",))
        notes.define_classifier("C", ["a", "b"], [("one", "a"), ("two", "b")])
        notes.link("C", "t")
        notes.add_annotation("one one", table="t", row_id=1)
        result = notes.query("SELECT v FROM t")
        zoom = notes.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON C INDEX 1")
        assert zoom.cache_hit
        assert zoom.source == "disk"
        assert zoom.annotation_count() == 1
        notes.close()

    def test_cache_store_is_the_disk_tier_file(self, tmp_path):
        path = str(tmp_path / "cache.db")
        notes = InsightNotes(cache_bytes=1, cache_store=path, cache_disk_bytes=1 << 20)
        notes.create_table("t", ["v"])
        notes.insert("t", ("x",))
        qid = notes.query("SELECT v FROM t").qid
        notes.close()
        reopened = SQLiteResultStore(path)
        assert [meta.qid for meta in reopened.load_metadata()] == [qid]
        reopened.close()
        with pytest.raises(ValueError, match="cache_disk_bytes"):
            InsightNotes(cache_store=path)

    def test_memory_store_is_default(self):
        notes = InsightNotes()
        assert notes.cache.disk_bytes == 0
        assert notes.cache.stats_json()["policy"] == "RCO"
        notes.close()
