"""Tests for the bulk read paths and the object cache the block scan
reads through."""

import pytest

from repro.maintenance.incremental import SummaryManager
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationStore
from repro.storage.catalog import SummaryCatalog
from repro.storage.database import Database
from repro.summaries.classifier import ClassifierSummary


@pytest.fixture
def stack():
    db = Database()
    db.create_table("birds", ["name", "weight"])
    store = AnnotationStore(db)
    catalog = SummaryCatalog(db)
    yield db, store, catalog
    db.close()


def make_manager(stack) -> SummaryManager:
    """A manager whose object cache holds four entries."""
    db, store, catalog = stack
    return SummaryManager(db, store, catalog, object_cache_size=4)


class TestAttachmentsForRows:
    def test_matches_per_row_results(self, stack):
        db, store, _catalog = stack
        for i in range(6):
            db.insert("birds", (f"b{i}", float(i)))
        store.add("note one", [CellRef("birds", 1, "name")])
        store.add("note two", [CellRef("birds", 1, "weight"),
                               CellRef("birds", 3, "name")])
        bulk = store.attachments_for_rows("birds", [1, 2, 3, 4])
        assert set(bulk) == {1, 2, 3, 4}
        for row_id in (1, 2, 3, 4):
            assert bulk[row_id] == store.attachments_for_row("birds", row_id)

    def test_unannotated_rows_map_to_empty(self, stack):
        db, store, _catalog = stack
        db.insert("birds", ("b0", 0.0))
        bulk = store.attachments_for_rows("birds", [1, 99])
        assert bulk == {1: {}, 99: {}}

    def test_chunks_large_row_lists(self, stack):
        db, store, _catalog = stack
        row = db.insert("birds", ("b0", 0.0))
        store.add("note", [CellRef("birds", row, "name")])
        # 1200 ids forces three 500-variable chunks.
        bulk = store.attachments_for_rows("birds", list(range(1, 1201)))
        assert len(bulk) == 1200
        assert bulk[row] and all(not bulk[i] for i in range(2, 1201))


class TestLoadObjectsForTable:
    def _save(self, catalog, instance, row_id, labels=("a",)):
        obj = ClassifierSummary(instance, ["a", "b"])
        for position, label in enumerate(labels, start=1):
            obj.add(position, label)
        catalog.save_object(instance, "birds", row_id, obj)
        return obj

    def test_returns_only_summarized_pairs(self, stack):
        _db, _store, catalog = stack
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        self._save(catalog, "C1", 1)
        self._save(catalog, "C1", 3)
        loaded = catalog.load_objects_for_table(["C1"], "birds", [1, 2, 3, 4])
        assert set(loaded) == {("C1", 1), ("C1", 3)}
        assert loaded[("C1", 1)].annotation_ids() == frozenset({1})

    def test_matches_per_row_load_object(self, stack):
        _db, _store, catalog = stack
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        self._save(catalog, "C1", 2, labels=("a", "b"))
        bulk = catalog.load_objects_for_table(["C1"], "birds", [2])
        single = catalog.load_object("C1", "birds", 2)
        assert bulk[("C1", 2)].to_json() == single.to_json()

    def test_bulk_load_populates_cache(self, stack):
        db, _store, catalog = stack
        manager = make_manager(stack)
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        self._save(catalog, "C1", 1)
        manager.objects_for_rows(["C1"], "birds", [1, 2])
        with db.track_queries() as counter:
            again = manager.objects_for_rows(["C1"], "birds", [1, 2])
        assert set(again) == {("C1", 1)}
        assert all("summary_state" not in s for s in counter.statements)

    def test_negative_caching_covers_absent_rows(self, stack):
        db, _store, catalog = stack
        manager = make_manager(stack)
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        manager.current_object("C1", "birds", 42)  # never summarized
        with db.track_queries() as counter:
            assert manager.current_object("C1", "birds", 42) is None
        assert counter.count == 0
        assert manager.cache_info()["hits"] == 1


class TestObjectCache:
    def _annotate(self, stack, manager, row_id, text):
        _db, store, _catalog = stack
        cells = [CellRef("birds", row_id, "name")]
        manager.on_annotation_added(store.add(text, cells), cells)

    def _linked(self, stack):
        db, _store, catalog = stack
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        catalog.get_instance("C1").train([("alpha", "a"), ("beta", "b")])
        catalog.link("C1", "birds")
        for i in range(8):
            db.insert("birds", (f"b{i}", float(i)))

    def test_save_invalidates_cached_entry(self, stack):
        manager = make_manager(stack)
        self._linked(stack)
        self._annotate(stack, manager, 1, "alpha one")
        first = manager.current_object("C1", "birds", 1)
        self._annotate(stack, manager, 1, "beta two")
        reloaded = manager.current_object("C1", "birds", 1)
        assert reloaded.annotation_ids() == frozenset({1, 2})
        assert first.annotation_ids() == frozenset({1})  # a value never changes

    def test_delete_invalidates_cached_entry(self, stack):
        manager = make_manager(stack)
        self._linked(stack)
        self._annotate(stack, manager, 1, "alpha one")
        assert manager.current_object("C1", "birds", 1) is not None
        manager.on_row_deleted("birds", 1)
        assert manager.current_object("C1", "birds", 1) is None

    def test_lru_bound_respected(self, stack):
        _db, _store, catalog = stack
        manager = make_manager(stack)
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        for row_id in range(1, 8):
            catalog.save_object(
                "C1", "birds", row_id, ClassifierSummary("C1", ["a", "b"])
            )
            manager.current_object("C1", "birds", row_id)
        info = manager.cache_info()
        assert info["entries"] <= 4  # fixture capacity
        assert info["capacity"] == 4

    def test_eviction_saves_a_dirty_entry(self, stack):
        db, store, catalog = stack
        manager = SummaryManager(
            db, store, catalog, write_through=False, object_cache_size=4
        )
        self._linked(stack)
        self._annotate(stack, manager, 1, "alpha one")
        assert catalog.load_object("C1", "birds", 1) is None  # deferred
        for row_id in range(2, 8):
            manager.current_object("C1", "birds", row_id)  # reads evict
        assert manager.cache_info()["entries"] <= 4
        stored = catalog.load_object("C1", "birds", 1)
        assert stored.annotation_ids() == frozenset({1})

    def test_drop_caches_forces_a_storage_read(self, stack):
        db, _store, catalog = stack
        manager = make_manager(stack)
        catalog.define_instance("Classifier", "C1", {"labels": ["a", "b"]})
        catalog.save_object(
            "C1", "birds", 1, ClassifierSummary("C1", ["a", "b"])
        )
        manager.current_object("C1", "birds", 1)
        manager.drop_caches()
        with db.track_queries() as counter:
            manager.current_object("C1", "birds", 1)
        assert any("summary_state" in s for s in counter.statements)


class TestInstancesForTableJoin:
    def test_single_query_resolves_linked_instances(self, stack):
        db, _store, catalog = stack
        catalog.define_instance("Classifier", "C1", {"labels": ["a"]})
        catalog.define_instance("Cluster", "K1", {})
        catalog.link("C1", "birds")
        catalog.link("K1", "birds")
        catalog._live_instances.clear()
        with db.track_queries() as counter:
            instances = catalog.instances_for_table("birds")
        assert [i.name for i in instances] == ["C1", "K1"]
        assert counter.count == 1


class TestDatabaseTuning:
    def test_in_memory_skips_wal(self):
        db = Database()
        journal = db.connection.execute("PRAGMA journal_mode").fetchone()[0]
        assert journal.lower() != "wal"
        db.close()

    def test_file_backed_gets_wal_and_normal_sync(self, tmp_path):
        db = Database(str(tmp_path / "tuned.db"))
        journal = db.connection.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = db.connection.execute("PRAGMA synchronous").fetchone()[0]
        assert journal.lower() == "wal"
        assert synchronous == 1  # NORMAL
        db.close()

    def test_track_queries_counts_and_classifies(self, stack):
        db, _store, _catalog = stack
        with db.track_queries() as counter:
            db.insert("birds", ("b", 1.0))
            db.row_count("birds")
        assert counter.count >= 2
        prefixes = counter.by_prefix()
        assert prefixes.get("INSERT", 0) >= 1
        assert prefixes.get("SELECT", 0) >= 1

    def test_summary_state_scan_lookup_uses_covering_index(self, stack):
        db, _store, catalog = stack
        catalog.define_instance("Classifier", "C1", {"labels": ["a"]})
        catalog.save_object(
            "C1", "birds", 1, ClassifierSummary("C1", ["a"])
        )
        plan = db.connection.execute(
            "EXPLAIN QUERY PLAN SELECT instance_name, object "
            "FROM _in_summary_state "
            "WHERE table_name = ? AND row_id IN (1, 2)",
            ("birds",),
        ).fetchall()
        rendered = " ".join(str(row) for row in plan)
        assert "_in_summary_state_by_table_row" in rendered
