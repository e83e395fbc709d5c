"""Tests for repro.summaries.cluster."""

import pytest

from repro.errors import MaintenanceError
from repro.model.annotation import Annotation
from repro.summaries.cluster import (
    ClusterGroup,
    ClusterInstance,
    ClusterSummary,
    ClusterType,
    make_preview,
)


def make_instance(threshold: float = 0.4) -> ClusterInstance:
    return ClusterInstance("SimCluster", threshold=threshold)


def add_texts(instance: ClusterInstance, obj: ClusterSummary, texts, start_id=1):
    for offset, text in enumerate(texts):
        annotation = Annotation(annotation_id=start_id + offset, text=text)
        instance.add_to(obj, annotation, instance.analyze(annotation))


class TestMakePreview:
    def test_short_text_unchanged(self):
        assert make_preview("two words") == "two words"

    def test_long_text_truncated(self):
        text = " ".join(str(i) for i in range(30))
        preview = make_preview(text, max_words=5)
        assert preview == "0 1 2 3 4 ..."


class TestAssignment:
    def test_similar_texts_group_together(self):
        instance = make_instance(threshold=0.3)
        obj = instance.new_object()
        add_texts(instance, obj, [
            "observed feeding on stonewort beds",
            "seen feeding on stonewort today",
            "wing shows lesions from infection",
        ])
        assert sorted(obj.group_sizes(), reverse=True) == [2, 1]

    def test_dissimilar_texts_start_new_groups(self):
        instance = make_instance(threshold=0.9)
        obj = instance.new_object()
        add_texts(instance, obj, [
            "completely different alpha words",
            "unrelated beta vocabulary here",
        ])
        assert obj.group_sizes() == [1, 1]

    def test_identical_texts_always_cluster(self):
        instance = make_instance(threshold=0.99)
        obj = instance.new_object()
        add_texts(instance, obj, ["same exact sentence"] * 4)
        assert obj.group_sizes() == [4]

    def test_empty_text_forms_singleton(self):
        instance = make_instance(threshold=0.1)
        obj = instance.new_object()
        add_texts(instance, obj, ["", "normal annotation text"])
        assert len(obj.groups) == 2

    def test_add_is_idempotent_by_id(self):
        instance = make_instance()
        obj = instance.new_object()
        annotation = Annotation(annotation_id=1, text="hello world")
        vector = instance.analyze(annotation)
        instance.add_to(obj, annotation, vector)
        instance.add_to(obj, annotation, vector)
        assert obj.group_sizes() == [1]

    def test_add_to_query_stripped_object_raises(self):
        instance = make_instance()
        obj = instance.new_object()
        add_texts(instance, obj, ["first annotation"])
        stripped = obj.for_query()
        annotation = Annotation(annotation_id=9, text="another one")
        with pytest.raises(MaintenanceError):
            instance.add_to(stripped, annotation, instance.analyze(annotation))

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            ClusterInstance("X", threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            ClusterInstance("X", threshold=1.5)


class TestRepresentatives:
    def test_representative_is_ranked_best(self):
        instance = make_instance(threshold=0.2)
        obj = instance.new_object()
        add_texts(instance, obj, [
            "feeding on stonewort",
            "feeding on stonewort beds today",
            "feeding on stonewort beds",
        ])
        group = obj.groups[0]
        assert group.representative == group.ranking[0]

    def test_representative_reelected_after_removal(self):
        # Figure 2: when a cluster's representative is dropped, another is
        # elected (A5 replacing A2).
        instance = make_instance(threshold=0.2)
        obj = instance.new_object()
        add_texts(instance, obj, [
            "feeding on stonewort beds",
            "feeding on stonewort beds today",
        ])
        group = obj.groups[0]
        old_representative = group.representative
        obj.remove_annotations({old_representative})
        new_representative = obj.groups[0].representative
        assert new_representative is not None
        assert new_representative != old_representative

    def test_representative_preview_available_at_query_time(self):
        instance = make_instance(threshold=0.2)
        obj = instance.new_object()
        add_texts(instance, obj, ["feeding on stonewort beds"])
        stripped = obj.for_query()
        assert stripped.groups[0].representative_preview() == (
            "feeding on stonewort beds"
        )

    def test_exhausted_previews_fall_back_to_min_id(self):
        group = ClusterGroup(member_ids={5, 9}, ranking=[], previews={})
        assert group.representative == 5
        assert group.representative_preview() is None


class TestRemoval:
    def test_remove_drops_empty_groups(self):
        instance = make_instance(threshold=0.9)
        obj = instance.new_object()
        add_texts(instance, obj, ["alpha words", "beta vocabulary"])
        obj.remove_annotations({1})
        assert len(obj.groups) == 1
        assert obj.annotation_ids() == frozenset({2})

    def test_remove_unknown_ids_is_noop(self):
        instance = make_instance()
        obj = instance.new_object()
        add_texts(instance, obj, ["hello there"])
        obj.remove_annotations({42})
        assert obj.group_sizes() == [1]

    def test_group_size_tracks_members(self):
        instance = make_instance(threshold=0.1)
        obj = instance.new_object()
        add_texts(instance, obj, ["same text"] * 3)
        obj.remove_annotations({1})
        assert obj.group_sizes() == [2]


class TestMerge:
    def _group(self, ids, previews=None):
        return ClusterGroup(
            member_ids=set(ids), ranking=list(ids), previews=previews or {}
        )

    def test_overlapping_groups_combine(self):
        # Figure 2: groups sharing a member (A1/B5) are combined.
        left = ClusterSummary("S")
        left.groups = [self._group([1, 2])]
        right = ClusterSummary("S")
        right.groups = [self._group([2, 3])]
        merged = left.merge(right)
        assert len(merged.groups) == 1
        assert merged.groups[0].member_ids == {1, 2, 3}

    def test_disjoint_groups_propagate_separately(self):
        # Figure 2: non-overlapping groups (A5, B7) stay separate.
        left = ClusterSummary("S")
        left.groups = [self._group([1])]
        right = ClusterSummary("S")
        right.groups = [self._group([2])]
        merged = left.merge(right)
        assert len(merged.groups) == 2

    def test_transitive_overlap_coalesces(self):
        left = ClusterSummary("S")
        left.groups = [self._group([1, 2]), self._group([3, 4])]
        right = ClusterSummary("S")
        right.groups = [self._group([2, 3])]
        merged = left.merge(right)
        assert len(merged.groups) == 1
        assert merged.groups[0].member_ids == {1, 2, 3, 4}

    def test_merge_preserves_inputs(self):
        left = ClusterSummary("S")
        left.groups = [self._group([1])]
        right = ClusterSummary("S")
        right.groups = [self._group([1, 2])]
        left.merge(right)
        assert left.groups[0].member_ids == {1}

    def test_merge_type_mismatch(self):
        from repro.summaries.classifier import ClassifierSummary

        with pytest.raises(TypeError):
            ClusterSummary("S").merge(ClassifierSummary("C", ["a"]))

    def test_merge_keeps_previews(self):
        left = ClusterSummary("S")
        left.groups = [self._group([1], {1: "left preview"})]
        right = ClusterSummary("S")
        right.groups = [self._group([1, 2], {2: "right preview"})]
        merged = left.merge(right)
        assert merged.groups[0].previews[1] == "left preview"
        assert merged.groups[0].previews[2] == "right preview"


class TestQueryStripping:
    def test_for_query_drops_vectors(self):
        instance = make_instance()
        obj = instance.new_object()
        add_texts(instance, obj, ["hello world"])
        stripped = obj.for_query()
        assert stripped.groups[0].vectors is None
        assert obj.groups[0].vectors is not None  # original untouched

    def test_for_query_truncates_previews(self):
        instance = ClusterInstance("S", threshold=0.01, preview_limit=1)
        obj = instance.new_object()
        add_texts(instance, obj, ["same words here"] * 3)
        stripped = obj.for_query()
        assert len(stripped.groups[0].previews) == 1

    def test_centroid_requires_vectors(self):
        group = ClusterGroup(member_ids={1}, ranking=[1])
        group.vectors = None
        with pytest.raises(MaintenanceError):
            group.centroid()
        with pytest.raises(MaintenanceError):
            group.rerank()


class TestSerialization:
    def test_json_round_trip_with_heavy_state(self):
        instance = make_instance(threshold=0.2)
        obj = instance.new_object()
        add_texts(instance, obj, ["feeding on stonewort", "feeding on weeds"])
        reloaded = ClusterSummary.from_json(obj.to_json())
        assert reloaded.annotation_ids() == obj.annotation_ids()
        assert reloaded.group_sizes() == obj.group_sizes()
        assert reloaded.groups[0].vectors == obj.groups[0].vectors

    def test_json_round_trip_stripped(self):
        instance = make_instance()
        obj = instance.new_object()
        add_texts(instance, obj, ["hello world"])
        stripped = obj.for_query()
        reloaded = ClusterSummary.from_json(stripped.to_json())
        assert reloaded.groups[0].vectors is None

    def test_type_config_round_trip(self):
        instance = ClusterInstance(
            "S", threshold=0.55, preview_words=4, preview_limit=2
        )
        rebuilt = ClusterType().create_instance("S", instance.config())
        assert rebuilt.threshold == 0.55
        assert rebuilt.preview_words == 4
        assert rebuilt.preview_limit == 2
        assert not rebuilt.properties.annotation_invariant

    def test_zoom_components_expose_members(self):
        instance = make_instance(threshold=0.9)
        obj = instance.new_object()
        add_texts(instance, obj, ["alpha text", "beta words"])
        components = obj.zoom_components()
        assert [c.index for c in components] == [1, 2]
        assert components[0].annotation_ids == (1,)


def project(obj: ClusterSummary, aliased: bool, *drops: set[int]) -> ClusterSummary:
    """Drop each set in turn: in place on ``obj``, or with ``without()``
    on its query view when ``aliased``."""
    if aliased:
        obj = obj.for_query()
    for drop in drops:
        if aliased:
            obj = obj.without(drop)
        else:
            obj.remove_annotations(drop)
    return obj


class TestProjectionOrder:
    """Pinned projection behaviour: group order is kept, emptied groups
    drop out, and each representative is re-elected by ranking, falling
    back to the smallest surviving id once every ranked candidate is
    gone.  A query view carries only the top ``preview_limit`` ranks, so
    it falls back where the stored object still finds a ranked member."""

    @staticmethod
    def make() -> ClusterSummary:
        obj = ClusterSummary("K", preview_limit=2)
        obj.groups = [
            ClusterGroup({1, 2, 3}, ranking=[3, 1, 2], previews={3: "three", 1: "one"}),
            ClusterGroup({4, 5}, ranking=[5, 4], previews={5: "five"}),
            ClusterGroup({6, 7, 8, 10}, ranking=[8, 7, 10, 6], previews={8: "eight"}),
            ClusterGroup({9}, ranking=[9], previews={9: "nine"}),
        ]
        return obj

    @pytest.mark.parametrize(
        "aliased, representatives",
        [(False, [1, 10, 9]), (True, [1, 6, 9])],
        ids=["owned", "for_query"],
    )
    def test_order_emptied_groups_and_reelection(self, aliased, representatives):
        target = project(self.make(), aliased, {3, 4, 5, 7, 8})
        assert [sorted(g.member_ids) for g in target.groups] == [[1, 2], [6, 10], [9]]
        assert [g.representative for g in target.groups] == representatives
        assert [g.representative_preview() for g in target.groups] == [
            "one", None, "nine",
        ]

    @pytest.mark.parametrize("aliased", [False, True], ids=["owned", "for_query"])
    def test_split_drop_sets_reach_the_same_state(self, aliased):
        whole = project(self.make(), aliased, {3, 4, 5, 7, 8})
        split = project(self.make(), aliased, {8, 4}, {7, 3}, {5})
        assert split.to_json() == whole.to_json()
