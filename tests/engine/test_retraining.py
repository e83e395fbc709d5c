"""Tests for classifier retraining and summary rebuilds."""

import pytest

from repro import InsightNotes


@pytest.fixture
def stack():
    notes = InsightNotes()
    notes.create_table("t", ["v"])
    notes.insert("t", ("x",))
    notes.insert("t", ("y",))
    # Deliberately mistrained: "pelagic ... offshore" was labelled Disease
    # by the first curator, so the new annotation misclassifies.
    notes.define_classifier("C", ["Behavior", "Disease"], [
        ("pelagic swimming sighted offshore", "Disease"),
        ("pelagic lesions spreading offshore", "Disease"),
        ("observed feeding near shore", "Behavior"),
    ])
    notes.link("C", "t")
    notes.add_annotation("pelagic foraging sighted offshore",
                         table="t", row_id=1)
    yield notes
    notes.close()


class TestRetrainClassifier:
    def test_retrain_relabels_existing_summaries(self, stack):
        before = stack.manager.current_object("C", "t", 1)
        assert before.count("Disease") == 1  # misclassified initially
        stack.retrain_classifier(
            "C", [("pelagic foraging sighted at sea", "Behavior")] * 4
        )
        after = stack.manager.current_object("C", "t", 1)
        assert after.count("Behavior") == 1
        assert after.count("Disease") == 0

    def test_retrain_persists_model(self, stack):
        stack.retrain_classifier(
            "C", [("pelagic foraging sighted at sea", "Behavior")] * 4
        )
        fresh_catalog_instance = type(stack.catalog)(stack.db).get_instance("C")
        assert fresh_catalog_instance.model.predict(
            "pelagic foraging sighted offshore"
        ) == "Behavior"

    def test_retrain_invalidates_contribution_cache(self, stack):
        # No contribution outlives its batch: the live instance analyzes
        # with the retrained model, and rewriting the annotation folds the
        # new label, not the one computed before retraining.
        annotation = stack.annotations.get(1)
        assert stack.catalog.get_instance("C").analyze(annotation) == "Disease"
        stack.retrain_classifier(
            "C", [("pelagic foraging sighted at sea", "Behavior")] * 4
        )
        fresh = stack.catalog.get_instance("C").analyze(annotation)
        assert fresh == "Behavior"
        stack.update_annotation(1, text=annotation.text)
        obj = stack.manager.current_object("C", "t", 1)
        assert obj.count("Behavior") == 1
        assert obj.count("Disease") == 0

    def test_new_annotations_use_new_model(self, stack):
        stack.retrain_classifier(
            "C", [("pelagic foraging sighted at sea", "Behavior")] * 4
        )
        stack.add_annotation("another pelagic foraging sighting",
                             table="t", row_id=2)
        obj = stack.manager.current_object("C", "t", 2)
        assert obj.count("Behavior") == 1


class TestRebuildSummaries:
    def test_rebuild_scopes(self, stack):
        stack.create_table("u", ["w"])
        stack.insert("u", ("z",))
        stack.link("C", "u")
        assert stack.rebuild_summaries() == 2  # (C,t) and (C,u)
        assert stack.rebuild_summaries(table="t") == 1
        assert stack.rebuild_summaries(instance_name="C", table="u") == 1
        assert stack.rebuild_summaries(instance_name="missing") == 0

    def test_rebuild_repairs_tampered_state(self, stack):
        # Corrupt the stored object, then rebuild from raw annotations.
        stack.manager.drop_caches()
        with stack.db.connection:
            stack.db.connection.execute(
                "DELETE FROM _in_summary_state"
            )
        stack.rebuild_summaries()
        obj = stack.catalog.load_object("C", "t", 1)
        assert obj is not None
        assert len(obj.annotation_ids()) == 1
