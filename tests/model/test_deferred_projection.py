"""Deferred projection on a row equals eager projection, byte for byte.

``AnnotatedTuple.drop`` only records dropped ids; an instance is projected
on its first read.  Whatever the reads in between — none, one instance,
or every instance — each value read after drop sets ``D1`` and ``D2`` must
serialize exactly like the eager chain ``for_query().without(D1)
.without(D2)``.  Checked for the five built-in types and the
``AuthorSummary`` extension type of ``examples/extensibility.py``, whose
``without()`` is the base class's copy-then-remove.
"""

from __future__ import annotations

import importlib.util
import pathlib

from hypothesis import given
from hypothesis import strategies as st

from repro.model.tuple import AnnotatedTuple
from tests.summaries.test_projection_laws import (
    classifiers,
    clusters,
    drop_sets,
    dump,
    ids,
    snippets,
    terms,
    timelines,
)

_spec = importlib.util.spec_from_file_location(
    "extensibility_example",
    pathlib.Path(__file__).parents[2] / "examples" / "extensibility.py",
)
_example = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_example)
AuthorSummary = _example.AuthorSummary

AUTHORS = ("aria", "ben", "cy")


@st.composite
def authors(draw) -> AuthorSummary:
    summary = AuthorSummary("A")
    for annotation_id, author in draw(
        st.dictionaries(ids, st.sampled_from(AUTHORS), max_size=15)
    ).items():
        summary.by_author.setdefault(author, set()).add(annotation_id)
    return summary


#: One maintenance object per type, each under its own instance name.
OBJECTS = st.tuples(classifiers(), clusters(), snippets(), terms(), timelines(), authors())

#: What happens between the two drop sets: nothing, a read of one
#: instance (by position in OBJECTS), or a read of every instance.
READS = st.one_of(st.none(), st.integers(0, 5), st.just("all"))


def hydrated(objects) -> AnnotatedTuple:
    """A row carrying each object's query value, nothing pending."""
    return AnnotatedTuple(
        values=(),
        summaries={obj.instance_name: obj.for_query() for obj in objects},
    )


def read(row: AnnotatedTuple, objects, between) -> None:
    if between == "all":
        row.summaries  # noqa: B018 - the read forces every instance
    elif between is not None:
        row.summary(objects[between].instance_name)


class TestDeferredEqualsEager:
    @given(OBJECTS, drop_sets, drop_sets, READS, READS)
    def test_one_instance_read_after_two_drops(
        self, objects, first, second, before, between
    ):
        row = hydrated(objects)
        read(row, objects, before)
        row.drop(set(first))
        read(row, objects, between)
        row.drop(set(second))
        for obj in objects:
            eager = obj.for_query().without(first).without(second)
            assert dump(row.summary(obj.instance_name)) == dump(eager)

    @given(OBJECTS, drop_sets, drop_sets, READS)
    def test_every_instance_read_after_two_drops(self, objects, first, second, between):
        row = hydrated(objects)
        row.drop(set(first))
        read(row, objects, between)
        row.drop(set(second))
        summaries = row.summaries
        assert type(summaries) is dict
        assert list(summaries) == [obj.instance_name for obj in objects]
        for obj in objects:
            eager = obj.for_query().without(first).without(second)
            assert dump(summaries[obj.instance_name]) == dump(eager)

    @given(OBJECTS, drop_sets, drop_sets)
    def test_reads_never_change_the_stored_objects(self, objects, first, second):
        before = [dump(obj) for obj in objects]
        values = [dump(obj.for_query()) for obj in objects]
        row = hydrated(objects)
        row.drop(set(first))
        row.summary(objects[0].instance_name)
        row.drop(set(second))
        row.summaries  # noqa: B018 - the read forces every instance
        assert [dump(obj) for obj in objects] == before
        assert [dump(obj.for_query()) for obj in objects] == values
