"""Projection laws of the five built-in summary types.

Projection (``without``) must not depend on how a drop set is split or on
which object it runs: ``without(A).without(B)`` equals ``without(A ∪ B)``,
and both equal the reference path (``copy()``, then
``remove_annotations``), byte for byte.  Each law is checked on a
maintenance object and on its ``for_query()`` value; neither may change.
The in-place delete path (``remove_annotations``) obeys the same law.
"""

from __future__ import annotations

import json

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
    """An independent maintenance object equal to ``summary``."""
    return type(summary).from_json(summary.to_json())


def dump(summary) -> str:
    """Byte-level form: ``to_json`` with dict order kept."""
    return json.dumps(summary.to_json())


def removed(summary, *drop):
    """The reference projection: ``copy()``, then remove in place."""
    clone = summary.copy()
    for ids_ in drop:
        clone.remove_annotations(ids_)
    return dump(clone)


def projected(summary, *drop):
    for ids_ in drop:
        summary = summary.without(ids_)
    return dump(summary)


class TestProjectionLaws:
    @given(SUMMARIES, drop_sets, drop_sets)
    def test_owned_split_equals_union_equals_copy(self, summary, first, second):
        union = first | second
        before = dump(summary)
        assert (
            projected(summary, first, second)
            == projected(summary, union)
            == removed(summary, union)
        )
        # The in-place delete path obeys the same law.
        stepwise = fresh(summary)
        stepwise.remove_annotations(first)
        stepwise.remove_annotations(second)
        at_once = fresh(summary)
        at_once.remove_annotations(union)
        assert dump(stepwise) == dump(at_once) == removed(summary, union)
        assert dump(summary) == before

    @given(SUMMARIES, drop_sets, drop_sets)
    def test_alias_split_equals_union_equals_copy(self, summary, first, second):
        union = first | second
        before = dump(summary)
        view = summary.for_query()
        view_before = dump(view)
        assert (
            projected(view, first, second)
            == projected(view, union)
            == removed(view, union)
        )
        assert dump(summary) == before
        assert dump(view) == view_before

    @given(SUMMARIES, drop_sets)
    def test_alias_projection_equals_owned_projection(self, summary, drop):
        # Projecting the shared view and projecting an owned copy of the
        # same view are the same operation.
        view = summary.for_query()
        assert projected(view, drop) == projected(fresh(view), drop)

    @given(SUMMARIES, drop_sets, drop_sets)
    def test_projection_of_an_alias_of_a_projected_alias(self, summary, first, second):
        # Hydrate projects a view; a later operator projects the result
        # again.  Neither holder may see the other's removal.
        once = summary.for_query().without(first)
        after_first = dump(once)
        again = once.without(second)
        assert dump(once) == after_first
        assert dump(again) == projected(summary.for_query(), first | second)
