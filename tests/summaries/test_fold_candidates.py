"""The candidate-group cluster fold equals the full-scan fold it replaced.

``ClusterSummary.fold_many`` keeps a running token sum per group and a
token -> group map, and compares each new annotation only with the groups
that share a token with it, passing cached norms to ``cosine_similarity``.
The folded state must equal, byte for byte, both a copy of the full-scan
batch loop it replaced and a sequence of ``ClusterInstance.add_to`` calls
(the recompute oracle's definition), across consecutive batches, from
empty objects and from objects read back through ``from_json``.  The
strategies force shared tokens (a small vocabulary), exact ties between
groups (duplicate texts), empty vectors (stopword-only texts), replayed
ids, ``threshold=1.0`` and thresholds equal to a similarity that occurs.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MaintenanceError
from repro.model.annotation import Annotation
from repro.summaries import cluster as cluster_module
from repro.summaries.cluster import (
    ClusterGroup,
    ClusterInstance,
    ClusterSummary,
    make_preview,
)
from repro.text import similarity as similarity_module
from repro.text.similarity import cosine_similarity

WORDS = ("heron", "marsh", "nest", "eggs", "flight", "wading")
STOPWORDS_ONLY = ("the and of", "it is", "")


def dump(summary: ClusterSummary) -> str:
    """Byte-level form: ``to_json`` with dict order kept."""
    return json.dumps(summary.to_json())


def reload(summary: ClusterSummary) -> ClusterSummary:
    """The object as the store reads it back."""
    return ClusterSummary.from_json(json.loads(dump(summary)))


# -- the full-scan batch loop the candidate fold replaced ---------------------


def _old_rerank(group: ClusterGroup) -> None:
    assert group.vectors is not None
    centroid = group.centroid()
    group.ranking = sorted(
        group.member_ids,
        key=lambda i: (-cosine_similarity(group.vectors.get(i, {}), centroid), i),
    )


def old_fold_many(
    obj: ClusterSummary, instance: ClusterInstance, items, similarity=cosine_similarity
) -> int:
    seen = set(obj.annotation_ids())
    fresh = []
    for annotation, vector in items:
        if annotation.annotation_id in seen:
            continue
        seen.add(annotation.annotation_id)
        fresh.append((annotation, vector))
    if not fresh:
        return 0
    centroids: dict[int, dict[str, float]] = {}
    touched: set[int] = set()
    for annotation, vector in fresh:
        best_index = None
        best_similarity = 0.0
        for index, group in enumerate(obj.groups):
            centroid = centroids.get(index)
            if centroid is None:
                centroid = centroids[index] = group.centroid()
            value = similarity(vector, centroid)
            if value > best_similarity:
                best_similarity = value
                best_index = index
        annotation_id = annotation.annotation_id
        preview = make_preview(annotation.text, instance.preview_words)
        if best_index is not None and best_similarity >= instance.threshold:
            group = obj.groups[best_index]
            group.member_ids.add(annotation_id)
            group.previews[annotation_id] = preview
            group.vectors[annotation_id] = vector
            centroids.pop(best_index, None)
            touched.add(best_index)
        else:
            obj.groups.append(
                ClusterGroup(
                    member_ids={annotation_id},
                    ranking=[annotation_id],
                    previews={annotation_id: preview},
                    vectors={annotation_id: vector},
                )
            )
    for index in sorted(touched):
        _old_rerank(obj.groups[index])
    return len(fresh)


# -- strategies ---------------------------------------------------------------

texts = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join),
    st.sampled_from(STOPWORDS_ONLY),
)


@st.composite
def workloads(draw):
    """``(texts, batches of text indexes)``: a small id space, so ids replay.

    The annotation id of ``texts[i]`` is ``i + 1``.
    """
    by_id = draw(st.lists(texts, min_size=1, max_size=14))
    # Duplicate texts under other ids give exact ties between groups.
    by_id += draw(st.lists(st.sampled_from(by_id), max_size=4))
    ids = st.integers(min_value=0, max_value=len(by_id) - 1)
    batches = draw(st.lists(st.lists(ids, max_size=8), min_size=1, max_size=4))
    return by_id, batches


def batch_items(instance: ClusterInstance, by_id, batch):
    items = []
    for index in batch:
        annotation = Annotation(annotation_id=index + 1, text=by_id[index])
        items.append((annotation, instance.analyze(annotation)))
    return items


def occurring_similarities(by_id, batches) -> list[float]:
    """Similarities in (0, 1] that the full-scan fold computes at 0.5.

    The first of them is computed again, unchanged, at any threshold.
    """
    seen: list[float] = []
    instance = ClusterInstance("SimCluster", threshold=0.5)
    obj = instance.new_object()

    def recording(left, right):
        value = cosine_similarity(left, right)
        if 0.0 < value <= 1.0:
            seen.append(value)
        return value

    for batch in batches:
        old_fold_many(obj, instance, batch_items(instance, by_id, batch), recording)
    return seen


thresholds = st.sampled_from([0.2, 0.35, 0.5, 0.8, 1.0])


def fold_three_ways(threshold: float, by_id, batches, reload_between: bool):
    instance = ClusterInstance("SimCluster", threshold=threshold)
    folded, reference, sequential = (instance.new_object() for _ in range(3))
    for batch in batches:
        if reload_between:
            folded, reference, sequential = map(reload, (folded, reference, sequential))
        items = batch_items(instance, by_id, batch)
        count = folded.fold_many(instance, items)
        assert count == old_fold_many(reference, instance, items)
        for annotation, vector in items:
            instance.add_to(sequential, annotation, vector)
        assert dump(folded) == dump(reference)
        assert dump(folded) == dump(sequential)
    return folded


class TestFoldLaw:
    @settings(max_examples=250, deadline=None)
    @given(workloads(), thresholds, st.booleans())
    def test_equals_full_scan_and_sequential(self, workload, threshold, reload_between):
        by_id, batches = workload
        fold_three_ways(threshold, by_id, batches, reload_between)

    @settings(max_examples=150, deadline=None)
    @given(workloads(), st.booleans(), st.data())
    def test_threshold_equal_to_an_occurring_similarity(self, workload, reload_between, data):
        by_id, batches = workload
        occurring = occurring_similarities(by_id, batches)
        if not occurring:
            occurring = [1.0]
        threshold = data.draw(st.sampled_from(occurring))
        fold_three_ways(threshold, by_id, batches, reload_between)

    @settings(max_examples=150, deadline=None)
    @given(workloads(), thresholds)
    def test_rerank_gets_the_centroid_of_the_members(self, workload, threshold):
        """The running sums give ``centroid()``'s floats in its key order."""
        by_id, batches = workload
        instance = ClusterInstance("SimCluster", threshold=threshold)
        obj = instance.new_object()
        reranked = []
        rerank = ClusterGroup.rerank

        def spy(group, centroid=None):
            reranked.append((group, centroid))
            rerank(group, centroid)

        with mock.patch.object(ClusterGroup, "rerank", spy):
            for batch in batches:
                reranked.clear()
                obj.fold_many(instance, batch_items(instance, by_id, batch))
                for group, centroid in reranked:
                    assert centroid is not None
                    assert list(centroid.items()) == list(group.centroid().items())

    def test_exact_ties_take_the_lowest_index(self):
        # "heron marsh" ties exactly between the "heron" and "marsh" groups.
        by_id = ["heron", "marsh", "heron", "heron marsh"]
        obj = fold_three_ways(0.5, by_id, [[0, 1], [2, 3]], reload_between=True)
        assert [sorted(group.member_ids) for group in obj.groups] == [[1, 3, 4], [2]]

    def test_threshold_equal_to_the_similarity_joins(self):
        instance = ClusterInstance("SimCluster", threshold=0.5)
        left, right = (
            instance.analyze(Annotation(annotation_id=i, text=text))
            for i, text in enumerate(("heron marsh", "heron nest"), start=1)
        )
        at = cosine_similarity(right, left)
        obj = fold_three_ways(at, ["heron marsh", "heron nest"], [[0, 1]], False)
        assert [sorted(group.member_ids) for group in obj.groups] == [[1, 2]]

    def test_stopword_only_text_seeds_its_own_group(self):
        obj = fold_three_ways(0.2, ["heron", "the and of", "it is"], [[0, 1, 2]], False)
        assert [sorted(group.member_ids) for group in obj.groups] == [[1], [2], [3]]


# -- what the candidate fold pays ---------------------------------------------

FIXTURE = [
    "heron wading marsh",
    "heron nest eggs",
    "flight over marsh",
    "eggs in the nest",
    "wading heron",
    "falcon stoop",
    "owl hooting dusk",
    "sparrow song",
    "heron marsh flight",
    "crane dance",
    "falcon nest cliff",
    "owl pellet",
]


def test_similarity_calls_bounded_by_token_sharing_pairs(monkeypatch):
    instance = ClusterInstance("SimCluster", threshold=0.5)
    batches = [
        batch_items(instance, FIXTURE, range(6)),
        batch_items(instance, FIXTURE, range(6, len(FIXTURE))),
    ]

    # Sequential replay: count the (annotation, group) pairs that share a
    # token, the full scan's pairs, and the members of the groups that each
    # batch grows (and so reranks once at its end).
    reference = instance.new_object()
    bound = full_scan = 0
    for items in batches:
        grown: set[int] = set()
        for annotation, vector in items:
            for group in reference.groups:
                full_scan += 1
                if any(not set(vector).isdisjoint(v) for v in group.vectors.values()):
                    bound += 1
            count = len(reference.groups)
            instance.add_to(reference, annotation, vector)
            if len(reference.groups) == count:
                grown.update(
                    index
                    for index, group in enumerate(reference.groups)
                    if annotation.annotation_id in group.member_ids
                )
        bound += sum(len(reference.groups[index].member_ids) for index in grown)

    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return cosine_similarity(*args, **kwargs)

    def no_centroid(self):
        raise AssertionError("fold_many must not rebuild a centroid from its members")

    monkeypatch.setattr(cluster_module, "cosine_similarity", counting)
    monkeypatch.setattr(ClusterGroup, "centroid", no_centroid)
    obj = instance.new_object()
    for items in batches:
        obj.fold_many(instance, items)
    monkeypatch.undo()

    assert dump(obj) == dump(reference)
    assert 0 < calls <= bound
    assert calls < full_scan


def test_fold_passes_cached_norms(monkeypatch):
    """Norms come from one ``magnitude`` per vector, not two per comparison."""
    instance = ClusterInstance("SimCluster", threshold=0.5)
    items = batch_items(instance, FIXTURE, range(len(FIXTURE)))
    computed = 0
    magnitude = similarity_module.magnitude

    def counting(vector):
        nonlocal computed
        computed += 1
        return magnitude(vector)

    comparisons = 0

    def comparing(*args, **kwargs):
        nonlocal comparisons
        comparisons += 1
        return cosine_similarity(*args, **kwargs)

    monkeypatch.setattr(similarity_module, "magnitude", counting)
    monkeypatch.setattr(cluster_module, "magnitude", counting)
    monkeypatch.setattr(cluster_module, "cosine_similarity", comparing)
    instance.new_object().fold_many(instance, items)
    assert comparisons > 0
    assert computed < 2 * comparisons


def test_fold_of_stripped_object_still_refused():
    instance = ClusterInstance("SimCluster", threshold=0.35)
    obj = instance.new_object()
    obj.fold_many(instance, batch_items(instance, FIXTURE, range(3)))
    stripped = ClusterSummary.from_json(obj.for_query().to_json())
    with pytest.raises(MaintenanceError):
        stripped.fold_many(instance, batch_items(instance, FIXTURE, range(3, 5)))
