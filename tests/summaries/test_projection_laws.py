"""Projection laws of the five built-in summary types.

Projection (``remove_annotations``) must not depend on how a drop set is
split or on which copy of the payload it runs: removing ``A`` and then
``B`` gives the same object as removing ``A ∪ B`` at once, and both equal
the deep-copy path (``copy()``, then remove).  Each law is checked on an
owned object and on a copy-on-write ``for_query()`` alias, by
``to_json``; on the alias path the object it aliases must come out
unchanged.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.summaries.classifier import ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterSummary
from repro.summaries.snippet import SnippetEntry, SnippetSummary
from repro.summaries.terms import TermsSummary
from repro.summaries.timeline import TimelineSummary

LABELS = ("Behavior", "Disease", "Other")
TERMS = ("alpha", "beta", "gamma", "delta", "eps")

ids = st.integers(min_value=1, max_value=30)
drop_sets = st.sets(ids, max_size=12)


@st.composite
def classifiers(draw) -> ClassifierSummary:
    summary = ClassifierSummary("C", LABELS)
    assignments = draw(st.dictionaries(ids, st.sampled_from(LABELS), max_size=20))
    for annotation_id, label in assignments.items():
        summary.add(annotation_id, label)
    return summary


@st.composite
def clusters(draw) -> ClusterSummary:
    """Disjoint groups with shuffled rankings, some previews and vectors."""
    summary = ClusterSummary("K", preview_limit=draw(st.integers(1, 4)))
    with_vectors = draw(st.booleans())
    used: set[int] = set()
    for members in draw(st.lists(st.sets(ids, min_size=1, max_size=6), max_size=6)):
        members = members - used
        if not members:
            continue
        used |= members
        ranking = draw(st.permutations(sorted(members)))
        previewed = ranking[: draw(st.integers(0, len(ranking)))]
        summary.groups.append(
            ClusterGroup(
                member_ids=members,
                ranking=ranking,
                previews={i: f"preview-{i}" for i in previewed},
                vectors=(
                    {i: {f"t{i % 3}": 1.0} for i in members}
                    if with_vectors
                    else None
                ),
            )
        )
    return summary


@st.composite
def snippets(draw) -> SnippetSummary:
    summary = SnippetSummary("S")
    for annotation_id in draw(st.lists(ids, unique=True, max_size=12)):
        summary.add_entry(
            SnippetEntry(annotation_id, f"title-{annotation_id}", ("s.",))
        )
    return summary


@st.composite
def terms(draw) -> TermsSummary:
    summary = TermsSummary("W", top_k=3)
    mentions = draw(
        st.dictionaries(ids, st.sets(st.sampled_from(TERMS), min_size=1), max_size=15)
    )
    for annotation_id, mentioned in mentions.items():
        summary.add(annotation_id, mentioned)
    return summary


@st.composite
def timelines(draw) -> TimelineSummary:
    summary = TimelineSummary("T", bucket_seconds=3600)
    buckets = draw(st.dictionaries(ids, st.integers(0, 5), max_size=15))
    for annotation_id, bucket in buckets.items():
        summary.add(annotation_id, bucket)
    return summary


SUMMARIES = st.one_of(classifiers(), clusters(), snippets(), terms(), timelines())


def fresh(summary):
    """An independent owned object equal to ``summary``."""
    return type(summary).from_json(summary.to_json())


def removed(summary, *drop):
    for ids_ in drop:
        summary.remove_annotations(ids_)
    return summary.to_json()


class TestProjectionLaws:
    @given(SUMMARIES, drop_sets, drop_sets)
    def test_owned_split_equals_union_equals_copy(self, summary, first, second):
        union = first | second
        stepwise = removed(fresh(summary), first, second)
        at_once = removed(fresh(summary), union)
        via_copy = removed(fresh(summary).copy(), union)
        assert stepwise == at_once == via_copy

    @given(SUMMARIES, drop_sets, drop_sets)
    def test_alias_split_equals_union_equals_copy(self, summary, first, second):
        union = first | second
        before = summary.to_json()
        stepwise = removed(summary.for_query(), first, second)
        at_once = removed(summary.for_query(), union)
        via_copy = removed(summary.for_query().copy(), union)
        assert stepwise == at_once == via_copy
        assert summary.to_json() == before

    @given(SUMMARIES, drop_sets)
    def test_alias_projection_equals_owned_projection(self, summary, drop):
        # Projecting the shared view and projecting an owned copy of the
        # same view are the same operation.
        view = summary.for_query()
        owned = fresh(view)
        assert removed(view, drop) == removed(owned, drop)

    @given(SUMMARIES, drop_sets, drop_sets)
    def test_projection_of_an_alias_of_a_projected_alias(self, summary, first, second):
        # Hydrate projects a view; a later operator shares and projects it
        # again.  Neither holder may see the other's removal.
        view = summary.for_query()
        view.remove_annotations(first)
        after_first = view.to_json()
        again = view.share()
        again.remove_annotations(second)
        assert view.to_json() == after_first
        assert again.to_json() == removed(summary.for_query(), first | second)
