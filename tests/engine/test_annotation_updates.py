"""Tests for annotation updates and session statistics."""

import pytest

from repro import InsightNotes
from repro.errors import UnknownAnnotationError
from tests.conftest import TRAINING


@pytest.fixture
def stack():
    notes = InsightNotes()
    notes.create_table("birds", ["name", "weight"])
    notes.insert("birds", ("Swan", 3.2))
    notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
    notes.define_cluster("Cl", threshold=0.3)
    notes.link("C", "birds")
    notes.link("Cl", "birds")
    yield notes
    notes.close()


class TestUpdateAnnotation:
    def test_update_changes_classification(self, stack):
        annotation = stack.add_annotation("observed feeding on stonewort",
                                          table="birds", row_id=1)
        obj = stack.manager.current_object("C", "birds", 1)
        assert obj.count("Behavior") == 1
        stack.update_annotation(
            annotation.annotation_id,
            text="shows symptoms of avian influenza",
        )
        obj = stack.manager.current_object("C", "birds", 1)
        assert obj.count("Behavior") == 0
        assert obj.count("Disease") == 1

    def test_update_preserves_identity(self, stack):
        annotation = stack.add_annotation("observed feeding", author="ana",
                                          table="birds", row_id=1,
                                          created_at=42.0)
        updated = stack.update_annotation(annotation.annotation_id,
                                          text="new text entirely")
        assert updated.annotation_id == annotation.annotation_id
        assert updated.author == "ana"
        assert updated.created_at == 42.0

    def test_update_title_only(self, stack):
        annotation = stack.add_annotation("body text", table="birds",
                                          row_id=1, title="Old")
        updated = stack.update_annotation(annotation.annotation_id,
                                          title="New")
        assert updated.text == "body text"
        assert updated.title == "New"

    def test_update_persists(self, stack):
        annotation = stack.add_annotation("original", table="birds", row_id=1)
        stack.update_annotation(annotation.annotation_id, text="changed")
        assert stack.annotations.get(annotation.annotation_id).text == "changed"

    def test_update_moves_cluster_group(self, stack):
        stack.add_annotation("observed feeding on stonewort beds",
                             table="birds", row_id=1)
        lone = stack.add_annotation("completely unrelated topic here",
                                    table="birds", row_id=1)
        obj = stack.manager.current_object("Cl", "birds", 1)
        assert len(obj.groups) == 2
        stack.update_annotation(lone.annotation_id,
                                text="also observed feeding on stonewort")
        obj = stack.manager.current_object("Cl", "birds", 1)
        assert len(obj.groups) == 1

    def test_update_unknown_raises(self, stack):
        with pytest.raises(UnknownAnnotationError):
            stack.update_annotation(999, text="x")

    def test_zoomin_sees_updated_text(self, stack):
        annotation = stack.add_annotation("observed feeding",
                                          table="birds", row_id=1)
        result = stack.query("SELECT name, weight FROM birds")
        stack.update_annotation(annotation.annotation_id,
                                text="observed diving instead")
        zoom = stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON C")
        texts = [a.text for m in zoom.matches for a in m.annotations]
        assert "observed diving instead" in texts


class TestStatistics:
    def test_snapshot_shape(self, stack):
        stack.add_annotation("observed feeding", table="birds", row_id=1)
        stack.query("SELECT name FROM birds")
        stats = stack.statistics()
        assert stats["tables"] == 1
        assert stats["rows"] == 1
        assert stats["annotations"] == 1
        assert stats["summary_instances"] == 2
        assert stats["summary_links"] == 2
        assert stats["queries_registered"] == 1
        assert stats["maintenance"]["annotations_processed"] == 1
        assert 0.0 <= stats["zoomin"]["hit_ratio"] <= 1.0

    def test_counters_move_with_activity(self, stack):
        before = stack.statistics()
        stack.add_annotation("seen foraging", table="birds", row_id=1)
        result = stack.query("SELECT name FROM birds")
        stack.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON C")
        after = stack.statistics()
        assert after["annotations"] == before["annotations"] + 1
        assert after["zoomin"]["memory_hits"] == before["zoomin"]["memory_hits"] + 1
