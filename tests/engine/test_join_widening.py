"""The join widens attachments once per distinct column set.

An equi-join makes its two join columns value-equivalent, so an annotation
on one also covers the other (Figure 2, step 4).  ``JoinOperator`` widens
each joined row's attachment map through ``rewrite_attachments`` with one
memo per ``rows()`` pass.  These tests pin its output to a local copy of
the per-annotation loop it replaced, byte for byte, on generated
attachment maps.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import BooleanOp, Column, Comparison
from repro.engine.operators import JoinOperator, Operator, merge_attachments
from repro.model.tuple import AnnotatedTuple

LEFT = ("r.a", "r.b", "r.c")
RIGHT = ("s.x", "s.y")


class RowsOperator(Operator):
    """A child that replays fixed rows under a fixed schema."""

    def __init__(self, schema: tuple[str, ...], rows: list[AnnotatedTuple]) -> None:
        super().__init__(schema, None)
        self._rows = rows

    def rows(self):
        yield from self._rows

    def describe(self) -> str:
        return "Rows"


def per_annotation_loop(attachments, equivalent):
    """The widening loop the join ran before the memo, kept as the oracle."""
    extended: dict[int, frozenset[str]] = {}
    for annotation_id, columns in attachments.items():
        extra: set[str] = set()
        for left_name, right_name in equivalent:
            if left_name in columns:
                extra.add(right_name)
            if right_name in columns:
                extra.add(left_name)
        extended[annotation_id] = columns | extra if extra else columns
    return extended


def dump(attachments) -> str:
    """Byte-level form: ids in map order, each column set sorted."""
    return json.dumps([[i, sorted(columns)] for i, columns in attachments.items()])


def attachment_maps(schema):
    return st.dictionaries(
        st.integers(1, 30),
        st.frozensets(st.sampled_from(schema), min_size=1),
        max_size=10,
    )


EQUI_PREDICATES = {
    "one_key": (Comparison("=", Column("r.a"), Column("s.x")), (("r.a", "s.x"),)),
    "two_keys": (
        BooleanOp(
            "and",
            (
                Comparison("=", Column("r.a"), Column("s.x")),
                Comparison("=", Column("s.y"), Column("r.b")),
            ),
        ),
        (("r.a", "s.x"), ("r.b", "s.y")),
    ),
}


@settings(max_examples=80, deadline=None)
@given(
    left_maps=st.lists(attachment_maps(LEFT), min_size=1, max_size=4),
    right_maps=st.lists(attachment_maps(RIGHT), min_size=1, max_size=4),
    keys=st.sampled_from(sorted(EQUI_PREDICATES)),
)
def test_join_matches_per_annotation_loop(left_maps, right_maps, keys):
    predicate, equivalent = EQUI_PREDICATES[keys]
    # Every row carries the same join key values, so every pair joins.
    left_rows = [
        AnnotatedTuple(values=(1, 2, index), attachments=attachments)
        for index, attachments in enumerate(left_maps)
    ]
    right_rows = [
        AnnotatedTuple(values=(1, 2), attachments=attachments)
        for attachments in right_maps
    ]
    join = JoinOperator(
        RowsOperator(LEFT, left_rows), RowsOperator(RIGHT, right_rows), predicate
    )
    emitted = list(join)
    expected = [
        per_annotation_loop(
            merge_attachments(left.attachments, right.attachments), equivalent
        )
        for left in left_rows
        for right in right_rows
    ]
    assert [dump(row.attachments) for row in emitted] == [
        dump(attachments) for attachments in expected
    ]
    assert [row.attachments for row in emitted] == expected
