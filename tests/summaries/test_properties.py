"""Property-based tests of the summary-object algebra.

The correctness of summary-aware query processing rests on a small
algebra: ``merge`` must behave like a dedup-aware union (commutative,
associative, idempotent up to rendering), ``remove_annotations`` must be
the inverse of addition and commute with merge, and serialization must be
lossless.  These properties are what make plan-invariant propagation
(Theorems 1-2) possible, so they are checked with hypothesis across the
three built-in summary types.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries.classifier import ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterSummary
from repro.summaries.snippet import SnippetEntry, SnippetSummary

LABELS = ("Behavior", "Disease", "Other")

# -- strategies ---------------------------------------------------------

ids = st.integers(min_value=1, max_value=30)


@st.composite
def classifier_summaries(draw) -> ClassifierSummary:
    summary = ClassifierSummary("C", LABELS)
    assignments = draw(st.dictionaries(ids, st.sampled_from(LABELS), max_size=15))
    for annotation_id, label in assignments.items():
        summary.add(annotation_id, label)
    return summary


@st.composite
def cluster_summaries(draw) -> ClusterSummary:
    summary = ClusterSummary("S")
    groups = draw(
        st.lists(st.sets(ids, min_size=1, max_size=6), min_size=0, max_size=5)
    )
    used: set[int] = set()
    for members in groups:
        members = members - used  # groups within one object are disjoint
        if not members:
            continue
        used |= members
        summary.groups.append(
            ClusterGroup(
                member_ids=members,
                ranking=sorted(members),
                previews={min(members): f"preview-{min(members)}"},
            )
        )
    return summary


@st.composite
def snippet_summaries(draw) -> SnippetSummary:
    summary = SnippetSummary("TS")
    for annotation_id in sorted(draw(st.sets(ids, max_size=10))):
        summary.add_entry(
            SnippetEntry(annotation_id, f"title-{annotation_id}", ("s.",))
        )
    return summary


SUMMARY_STRATEGIES = [classifier_summaries(), cluster_summaries(), snippet_summaries()]


def canonical(summary) -> object:
    """Type-aware canonical form for comparing summary contents."""
    if isinstance(summary, ClassifierSummary):
        return {label: summary.members(label) for label in summary.labels}
    if isinstance(summary, ClusterSummary):
        return frozenset(frozenset(g.member_ids) for g in summary.groups)
    if isinstance(summary, SnippetSummary):
        return summary.annotation_ids()
    raise TypeError(type(summary))


# -- classifier properties ----------------------------------------------


class TestClassifierAlgebra:
    @given(classifier_summaries(), classifier_summaries())
    def test_merge_commutative(self, left, right):
        # Merging can only conflict when the same id has different labels;
        # within one engine an annotation is always classified identically,
        # so constrain to compatible pairs.
        conflict = any(
            left.label_of(i) != right.label_of(i)
            for i in left.annotation_ids() & right.annotation_ids()
        )
        if conflict:
            return
        assert canonical(left.merge(right)) == canonical(right.merge(left))

    @given(classifier_summaries())
    def test_merge_idempotent(self, summary):
        assert canonical(summary.merge(summary)) == canonical(summary)

    @given(classifier_summaries(), st.sets(ids, max_size=10))
    def test_remove_is_subtraction(self, summary, removed):
        before = summary.annotation_ids()
        summary.remove_annotations(removed)
        assert summary.annotation_ids() == before - removed

    @given(classifier_summaries())
    def test_json_round_trip(self, summary):
        reloaded = ClassifierSummary.from_json(summary.to_json())
        assert canonical(reloaded) == canonical(summary)

    @given(classifier_summaries(), st.sets(ids, max_size=10))
    def test_copy_isolated_from_removal(self, summary, removed):
        clone = summary.copy()
        clone.remove_annotations(removed)
        assert canonical(summary) == canonical(
            ClassifierSummary.from_json(summary.to_json())
        )

    @given(classifier_summaries())
    def test_counts_match_members(self, summary):
        for label, count in summary.counts():
            assert count == len(summary.members(label))


# -- generic algebra across all types ------------------------------------


class TestMergeAlgebra:
    @given(cluster_summaries(), cluster_summaries())
    def test_cluster_merge_commutative(self, left, right):
        assert canonical(left.merge(right)) == canonical(right.merge(left))

    @given(cluster_summaries(), cluster_summaries(), cluster_summaries())
    @settings(max_examples=40)
    def test_cluster_merge_associative(self, a, b, c):
        assert canonical(a.merge(b).merge(c)) == canonical(a.merge(b.merge(c)))

    @given(cluster_summaries())
    def test_cluster_merge_idempotent(self, summary):
        assert canonical(summary.merge(summary)) == canonical(summary)

    @given(cluster_summaries(), cluster_summaries())
    def test_cluster_merge_preserves_all_members(self, left, right):
        merged = left.merge(right)
        assert merged.annotation_ids() == (
            left.annotation_ids() | right.annotation_ids()
        )

    @given(cluster_summaries(), cluster_summaries())
    def test_cluster_merge_groups_stay_disjoint(self, left, right):
        merged = left.merge(right)
        seen: set[int] = set()
        for group in merged.groups:
            assert not group.member_ids & seen
            seen |= group.member_ids

    @given(snippet_summaries(), snippet_summaries())
    def test_snippet_merge_commutative_on_ids(self, left, right):
        assert canonical(left.merge(right)) == canonical(right.merge(left))

    @given(snippet_summaries(), st.sets(ids, max_size=10))
    def test_snippet_remove_is_subtraction(self, summary, removed):
        before = summary.annotation_ids()
        summary.remove_annotations(removed)
        assert summary.annotation_ids() == before - removed

    @given(cluster_summaries(), st.sets(ids, max_size=10))
    def test_cluster_remove_is_subtraction(self, summary, removed):
        before = summary.annotation_ids()
        summary.remove_annotations(removed)
        assert summary.annotation_ids() == before - removed
        assert all(group.member_ids for group in summary.groups)


class TestSerializationAlgebra:
    @given(cluster_summaries())
    def test_cluster_json_round_trip(self, summary):
        reloaded = ClusterSummary.from_json(summary.to_json())
        assert canonical(reloaded) == canonical(summary)
        assert [g.ranking for g in reloaded.groups] == [
            g.ranking for g in summary.groups
        ]

    @given(snippet_summaries())
    def test_snippet_json_round_trip(self, summary):
        reloaded = SnippetSummary.from_json(summary.to_json())
        assert reloaded.entries == summary.entries

    @given(cluster_summaries())
    def test_for_query_preserves_membership(self, summary):
        assert canonical(summary.for_query()) == canonical(summary)


class TestProjectionMergeInteraction:
    """Removal before merge equals removal after merge.

    This is the heart of Theorems 1-2: projecting out an annotation set
    and then merging must give the same membership as merging first and
    projecting after — for membership-level state.  (Cluster *grouping*
    is where the two orders genuinely differ, which is why the engine
    must normalize; see test_plan_equivalence.py.)
    """

    @given(classifier_summaries(), classifier_summaries(), st.sets(ids, max_size=10))
    def test_classifier_remove_commutes_with_merge(self, left, right, removed):
        conflict = any(
            left.label_of(i) != right.label_of(i)
            for i in left.annotation_ids() & right.annotation_ids()
        )
        if conflict:
            return
        merged_then_removed = left.merge(right).without(removed)
        left2, right2 = left.copy(), right.copy()
        left2.remove_annotations(removed)
        right2.remove_annotations(removed)
        removed_then_merged = left2.merge(right2)
        assert canonical(merged_then_removed) == canonical(removed_then_merged)

    @given(snippet_summaries(), snippet_summaries(), st.sets(ids, max_size=10))
    def test_snippet_remove_commutes_with_merge(self, left, right, removed):
        merged = left.merge(right).without(removed)
        left2, right2 = left.copy(), right.copy()
        left2.remove_annotations(removed)
        right2.remove_annotations(removed)
        assert canonical(merged) == canonical(left2.merge(right2))
