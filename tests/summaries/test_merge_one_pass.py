"""The one-pass k-way merge equals the pairwise merge it replaced.

``ClusterSummary.merge`` visits every input's groups once and keeps an
annotation id -> group slot map; the pairwise merge it replaced copied
every group, scanned the merged list for an overlap per group and
re-coalesced after every absorb.  The two must agree byte for byte —
group order, rankings, preview order and the reranks that run only when
both sides of a combination carry vectors — on maintenance objects, on
their values (with and without heavy state), and on projected values.  For every
built-in type, ``a.merge(b, c, ...)`` must equal the left fold
``a.merge(b).merge(c)...``, and no input may change.
"""

from __future__ import annotations

import json
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries.classifier import ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterSummary
from repro.summaries.snippet import SnippetEntry, SnippetSummary
from repro.summaries.terms import TermsSummary
from repro.summaries.timeline import TimelineSummary

LABELS = ("Behavior", "Disease", "Other")
TERMS = ("alpha", "beta", "gamma", "delta")
TOKENS = ("t0", "t1", "t2", "t3")

# A small id space, so groups of different inputs overlap often and
# overlaps chain across several groups.
ids = st.integers(min_value=1, max_value=24)


def dump(summary) -> str:
    """Byte-level form: ``to_json`` with dict order kept."""
    return json.dumps(summary.to_json())


# -- the pairwise merge the one-pass merge replaced --------------------------


def _old_combine_into(target: ClusterGroup, source: ClusterGroup) -> None:
    target.member_ids |= source.member_ids
    seen = set(target.ranking)
    target.ranking.extend(i for i in source.ranking if i not in seen)
    for annotation_id, preview in source.previews.items():
        target.previews.setdefault(annotation_id, preview)
    if target.vectors is not None and source.vectors is not None:
        for annotation_id, vector in source.vectors.items():
            target.vectors.setdefault(annotation_id, vector)
        target.rerank()
    else:
        target.vectors = None


def _old_coalesce(groups: list[ClusterGroup]) -> list[ClusterGroup]:
    result: list[ClusterGroup] = []
    for group in groups:
        target = None
        for existing in result:
            if existing.member_ids & group.member_ids:
                target = existing
                break
        if target is None:
            result.append(group)
        else:
            _old_combine_into(target, group)
    if len(result) != len(groups):
        return _old_coalesce(result)
    return result


def old_merge(left: ClusterSummary, right: ClusterSummary) -> ClusterSummary:
    pool = [group.copy() for group in left.groups] + [
        group.copy() for group in right.groups
    ]
    merged: list[ClusterGroup] = []
    for group in pool:
        absorbed = False
        for existing in merged:
            if existing.member_ids & group.member_ids:
                _old_combine_into(existing, group)
                absorbed = True
                break
        if absorbed:
            merged = _old_coalesce(merged)
        else:
            merged.append(group)
    result = ClusterSummary(
        left.instance_name, max(left.preview_limit, right.preview_limit)
    )
    result.groups = merged
    return result


# -- strategies ---------------------------------------------------------------


@st.composite
def cluster_groups(draw, vectors: str) -> ClusterGroup:
    members = draw(st.sets(ids, min_size=1, max_size=6))
    ranking = draw(st.permutations(sorted(members)))
    ranking = ranking[: draw(st.integers(0, len(ranking)))]
    previewed = ranking[: draw(st.integers(0, len(ranking)))]
    with_vectors = vectors == "all" or (vectors == "mixed" and draw(st.booleans()))
    group_vectors = None
    if with_vectors:
        group_vectors = {
            i: {
                token: draw(st.sampled_from((0.25, 0.5, 1.0)))
                for token in draw(st.sets(st.sampled_from(TOKENS), min_size=1))
            }
            for i in sorted(members)
        }
    return ClusterGroup(
        member_ids=members,
        ranking=ranking,
        previews={i: f"preview-{i}" for i in previewed},
        vectors=group_vectors,
    )


@st.composite
def raw_clusters(
    draw, vectors: str | None = None, disjoint: bool | None = None
) -> ClusterSummary:
    """Groups with vectors, without, or mixed.  Disjoint within an object
    unless drawn otherwise: a merge coalesces those too, though no
    maintained object has them."""
    if vectors is None:
        vectors = draw(st.sampled_from(("all", "none", "mixed")))
    if disjoint is None:
        disjoint = draw(st.booleans())
    summary = ClusterSummary("K", preview_limit=draw(st.integers(1, 4)))
    used: set[int] = set()
    for group in draw(st.lists(cluster_groups(vectors), max_size=5)):
        if disjoint:
            group = group.without(used)
            if not group.member_ids:
                continue
            used |= group.member_ids
        summary.groups.append(group)
    return summary


@st.composite
def held(draw, summary) -> tuple[object, list[object]]:
    """``summary`` as a pipeline would hold it: the maintenance object, a
    value keeping its heavy state, its query view, or a projection of
    the heavy value.  Returns the input and every other holder of its
    payload."""
    form = draw(st.sampled_from(("owned", "shared", "view", "projected")))
    if form == "owned":
        return summary, []
    if form == "view":
        return summary.for_query(), [summary]
    heavy = summary.merge()
    if form == "shared":
        return heavy, [summary]
    return heavy.without(draw(st.sets(ids, max_size=8))), [summary, heavy]


@st.composite
def cluster_inputs(draw) -> tuple[list[ClusterSummary], list[object]]:
    vectors = draw(st.sampled_from(("all", "none", "mixed", None)))
    inputs, holders = [], []
    for _ in range(draw(st.integers(2, 5))):
        obj, others = draw(held(draw(raw_clusters(vectors))))
        inputs.append(obj)
        holders.extend(others)
    return inputs, holders


@st.composite
def classifiers(draw) -> ClassifierSummary:
    summary = ClassifierSummary("C", LABELS)
    for annotation_id, label in draw(
        st.dictionaries(ids, st.sampled_from(LABELS), max_size=12)
    ).items():
        summary.add(annotation_id, label)
    return summary


@st.composite
def snippets(draw) -> SnippetSummary:
    summary = SnippetSummary("S")
    for annotation_id in draw(st.lists(ids, unique=True, max_size=8)):
        summary.add_entry(
            SnippetEntry(annotation_id, f"title-{annotation_id}", ("s.",))
        )
    return summary


@st.composite
def terms(draw) -> TermsSummary:
    summary = TermsSummary("W", top_k=draw(st.integers(1, 4)))
    for annotation_id, mentioned in draw(
        st.dictionaries(ids, st.sets(st.sampled_from(TERMS), min_size=1), max_size=10)
    ).items():
        summary.add(annotation_id, mentioned)
    return summary


@st.composite
def timelines(draw) -> TimelineSummary:
    summary = TimelineSummary("T", bucket_seconds=3600)
    for annotation_id, bucket in draw(
        st.dictionaries(ids, st.integers(0, 5), max_size=10)
    ).items():
        summary.add(annotation_id, bucket)
    return summary


BUILDERS = {
    "Classifier": classifiers,
    "Cluster": partial(raw_clusters, disjoint=True),
    "Snippet": snippets,
    "Terms": terms,
    "Timeline": timelines,
}

EMPTY = {
    "Classifier": lambda: ClassifierSummary("C", LABELS),
    "Cluster": lambda: ClusterSummary("K"),
    "Snippet": lambda: SnippetSummary("S"),
    "Terms": lambda: TermsSummary("W"),
    "Timeline": lambda: TimelineSummary("T"),
}


# -- the laws -----------------------------------------------------------------


class TestClusterMergeMatchesPairwise:
    @settings(max_examples=300, deadline=None)
    @given(cluster_inputs())
    def test_k_way_equals_old_left_fold(self, drawn):
        inputs, holders = drawn
        expected = dump(reduce(old_merge, inputs))
        before = [dump(obj) for obj in inputs + holders]
        merged = inputs[0].merge(*inputs[1:])
        assert dump(merged) == expected
        assert [dump(obj) for obj in inputs + holders] == before

    @settings(max_examples=200, deadline=None)
    @given(cluster_inputs())
    def test_pairwise_equals_old_pairwise(self, drawn):
        inputs, _holders = drawn
        expected = reduce(old_merge, inputs)
        actual = reduce(lambda left, right: left.merge(right), inputs)
        assert dump(actual) == dump(expected)

    @settings(max_examples=200, deadline=None)
    @given(cluster_inputs(), st.sets(ids, max_size=8))
    def test_projecting_the_result_equals_projecting_the_old_result(
        self, drawn, drop
    ):
        inputs, holders = drawn
        before = [dump(obj) for obj in inputs + holders]
        expected = reduce(old_merge, inputs)
        expected.remove_annotations(drop)
        merged = inputs[0].merge(*inputs[1:]).without(drop)
        assert dump(merged) == dump(expected)
        assert [dump(obj) for obj in inputs + holders] == before


@pytest.mark.parametrize("type_name", sorted(BUILDERS))
class TestKWayEqualsLeftFold:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merge_of_many_equals_left_fold(self, type_name, data):
        build = BUILDERS[type_name]
        inputs = [
            data.draw(held(data.draw(build())))[0]
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        before = [dump(obj) for obj in inputs]
        folded = reduce(lambda left, right: left.merge(right), inputs)
        merged = inputs[0].merge(*inputs[1:])
        assert dump(merged) == dump(folded)
        assert [dump(obj) for obj in inputs] == before

    def test_merge_with_no_others_is_an_equal_copy(self, type_name):
        summary = EMPTY[type_name]()
        merged = summary.merge()
        assert merged is not summary
        assert dump(merged) == dump(summary)

    def test_a_mismatched_type_anywhere_is_rejected(self, type_name):
        summary = EMPTY[type_name]()
        other = EMPTY["Classifier" if type_name == "Cluster" else "Cluster"]()
        with pytest.raises(TypeError):
            summary.merge(summary.copy(), other)
