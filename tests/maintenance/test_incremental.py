"""Tests for repro.maintenance.incremental."""

import pytest

from repro import InsightNotes
from repro.maintenance.incremental import SummaryManager
from repro.maintenance.rebuild import rebuild_table
from tests.conftest import TRAINING


@pytest.fixture
def stack():
    notes = InsightNotes()
    notes.create_table("birds", ["name", "weight"])
    notes.insert("birds", ("Swan", 3.2))
    notes.insert("birds", ("Goose", 2.4))
    notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
    notes.link("C", "birds")
    yield notes
    notes.close()


class TestAddition:
    def test_add_updates_summary(self, stack):
        stack.add_annotation("observed feeding on stonewort",
                             table="birds", row_id=1)
        obj = stack.manager.current_object("C", "birds", 1)
        assert obj.count("Behavior") == 1

    def test_add_is_idempotent_on_replay(self, stack):
        annotation = stack.add_annotation("seen foraging near shore",
                                          table="birds", row_id=1)
        cells = stack.annotations.cells_of(annotation.annotation_id)
        updated = stack.manager.on_annotation_added(annotation, cells)
        assert updated == 0  # replay changes nothing
        obj = stack.manager.current_object("C", "birds", 1)
        assert len(obj.annotation_ids()) == 1

    def test_multi_row_annotation_updates_all_rows(self, stack):
        from repro.model.cell import CellRef

        stack.add_annotation(
            "shows symptoms of avian pox",
            cells=[CellRef("birds", 1, "name"), CellRef("birds", 2, "name")],
        )
        for row_id in (1, 2):
            obj = stack.manager.current_object("C", "birds", row_id)
            assert obj.count("Disease") == 1

    def test_unlinked_table_not_summarized(self, stack):
        stack.create_table("plain", ["v"])
        stack.insert("plain", ("x",))
        stack.add_annotation("whatever text", table="plain", row_id=1)
        assert stack.manager.current_object("C", "plain", 1) is None

    def test_stats_track_processing(self, stack):
        stack.add_annotation("observed feeding", table="birds", row_id=1)
        stats = stack.manager.stats
        assert stats.annotations_processed == 1
        assert stats.objects_updated >= 1


class TestDeletion:
    def test_delete_removes_effect(self, stack):
        annotation = stack.add_annotation("observed feeding on stonewort",
                                          table="birds", row_id=1)
        stack.delete_annotation(annotation.annotation_id)
        obj = stack.manager.current_object("C", "birds", 1)
        assert obj.count("Behavior") == 0

    def test_delete_reelects_cluster_representative(self, stack):
        stack.define_cluster("Cl", threshold=0.2)
        stack.link("Cl", "birds")
        first = stack.add_annotation("feeding on stonewort beds",
                                     table="birds", row_id=1)
        stack.add_annotation("feeding on stonewort beds today",
                             table="birds", row_id=1)
        obj = stack.manager.current_object("Cl", "birds", 1)
        representative = obj.groups[0].representative
        stack.delete_annotation(representative)
        obj = stack.manager.current_object("Cl", "birds", 1)
        assert obj.groups[0].representative is not None
        assert obj.groups[0].representative != representative

    def test_delete_then_add_round_trip(self, stack):
        annotation = stack.add_annotation("seen diving for insects",
                                          table="birds", row_id=1)
        stack.delete_annotation(annotation.annotation_id)
        stack.add_annotation("seen diving for insects",
                             table="birds", row_id=1)
        obj = stack.manager.current_object("C", "birds", 1)
        assert len(obj.annotation_ids()) == 1


class TestPersistenceModes:
    def test_write_through_persists_immediately(self, stack):
        stack.add_annotation("observed feeding", table="birds", row_id=1)
        # Bypass the manager cache entirely.
        stored = stack.catalog.load_object("C", "birds", 1)
        assert stored is not None
        assert stored.count("Behavior") == 1

    def test_deferred_mode_persists_on_flush(self):
        notes = InsightNotes()
        notes.create_table("t", ["v"])
        notes.insert("t", ("x",))
        notes.define_classifier("C", ["a", "b"], [("one", "a"), ("two", "b")])
        notes.link("C", "t")
        notes.manager.write_through = False
        notes.add_annotation("one one", table="t", row_id=1)
        assert notes.catalog.load_object("C", "t", 1) is None
        written = notes.manager.flush()
        assert written == 1
        assert notes.catalog.load_object("C", "t", 1) is not None
        notes.close()

    def test_eviction_writes_dirty_objects(self):
        notes = InsightNotes()
        notes.create_table("t", ["v"])
        for i in range(5):
            notes.insert("t", (i,))
        notes.define_classifier("C", ["a", "b"], [("one", "a"), ("two", "b")])
        notes.link("C", "t")
        manager = SummaryManager(
            notes.db, notes.annotations, notes.catalog,
            write_through=False, object_cache_size=2,
        )
        for row_id in range(1, 6):
            annotation = notes.annotations.add(
                "one", [__import__("repro").CellRef("t", row_id, "v")]
            )
            manager.on_annotation_added(
                annotation, notes.annotations.cells_of(annotation.annotation_id)
            )
        manager.flush()
        for row_id in range(1, 6):
            assert notes.catalog.load_object("C", "t", row_id) is not None
        notes.close()

    def test_drop_caches_round_trips(self, stack):
        stack.add_annotation("observed feeding", table="birds", row_id=1)
        stack.manager.drop_caches()
        obj = stack.manager.current_object("C", "birds", 1)
        assert obj.count("Behavior") == 1

    def test_invalid_cache_size_rejected(self, stack):
        with pytest.raises(ValueError, match="object_cache_size"):
            SummaryManager(
                stack.db, stack.annotations, stack.catalog, object_cache_size=0
            )


class TestSummarizeTable:
    """Linking summarizes a table's existing rows: a rebuild of the pair."""

    def test_bootstrap_existing_annotations(self, stack):
        stack.add_annotation("observed feeding on weeds",
                             table="birds", row_id=1)
        stack.define_classifier("Late", ["Behavior", "Disease"], TRAINING)
        stack.catalog.link("Late", "birds")
        with stack.manager.bypass():
            summarized = rebuild_table(
                stack.db, stack.annotations, stack.catalog, "Late", "birds"
            )
        assert summarized == 1  # only row 1 has annotations
        obj = stack.manager.current_object("Late", "birds", 1)
        assert obj.count("Behavior") == 1

    def test_bootstrap_clears_stale_state(self, stack):
        stack.add_annotation("observed feeding", table="birds", row_id=1)
        stack.link("C", "birds")
        obj = stack.manager.current_object("C", "birds", 1)
        assert len(obj.annotation_ids()) == 1  # not doubled

    def test_rows_without_annotations_have_no_object(self, stack):
        stack.link("C", "birds")
        assert stack.catalog.load_object("C", "birds", 2) is None

    @pytest.mark.parametrize("shards", [1, 4])
    def test_link_writes_once_per_shard_not_per_row(self, tmp_path, shards):
        path = ":memory:" if shards == 1 else str(tmp_path / "link.db")
        notes = InsightNotes(path, shards=shards)
        try:
            notes.create_table("birds", ["name"])
            notes.insert_many("birds", [(f"bird{i}",) for i in range(40)])
            notes.add_annotation("observed feeding", table="birds", row_id=3)
            notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
            with notes.db.track_queries() as counter:
                notes.link("C", "birds")
            begins = counter.by_prefix().get("BEGIN", 0)
            # One transaction for the link row, then one per shard for
            # the rebuilt state — never one per row.
            assert 1 <= begins <= shards + 1
            obj = notes.manager.current_object("C", "birds", 3)
            assert obj.count("Behavior") == 1
        finally:
            notes.close()
