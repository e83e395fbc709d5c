"""Hydrate narrows attachments once per distinct column set.

``HydrateOperator`` qualifies each stored column set with the scan alias
and keeps the columns in its schema, memoized per block.  These tests pin
its output — attachments and projected summaries — to a local copy of the
per-annotation loop it replaced, on generated attachment maps under an
aliased, projected scan.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import HydrateOperator, Operator
from repro.model.tuple import AnnotatedTuple
from repro.summaries.classifier import ClassifierInstance, ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterInstance, ClusterSummary

TABLE = "birds"
ALIAS = "b1"
COLUMNS = ("name", "species", "region", "weight")
LABELS = ("a", "b")

CLASSIFIER = ClassifierInstance("C", LABELS)
CLUSTER = ClusterInstance("K", preview_limit=2)


class RowsOperator(Operator):
    """A child that replays fixed rows under a fixed schema."""

    def __init__(self, schema: tuple[str, ...], rows: list[AnnotatedTuple]) -> None:
        super().__init__(schema, None)
        self._rows = rows

    def rows(self):
        yield from self._rows

    def describe(self) -> str:
        return "Rows"


class FakeManager:
    """The manager's read surface over fixed objects and attachment maps."""

    def __init__(self, objects, maps):
        self._objects = objects
        self._maps = maps

    def instances_for_table(self, table):
        return [CLASSIFIER, CLUSTER]

    def objects_for_rows(self, names, table, row_ids):
        return {
            (name, row_id): self._objects[(name, row_id)].for_query()
            for name in names
            for row_id in row_ids
            if (name, row_id) in self._objects
        }

    def attachments_for_rows(self, table, row_ids):
        return {row_id: self._maps.get(row_id, {}) for row_id in row_ids}


def stored_objects(row_id, attachment_map):
    """Stored classifier and cluster objects covering the row's annotations."""
    classifier = ClassifierSummary(CLASSIFIER.name, LABELS)
    cluster = ClusterSummary(CLUSTER.name, preview_limit=2)
    ids = sorted(attachment_map)
    for annotation_id in ids:
        classifier.add(annotation_id, LABELS[annotation_id % 2])
    for start in range(0, len(ids), 3):
        members = ids[start : start + 3]
        cluster.groups.append(
            ClusterGroup(
                member_ids=set(members),
                ranking=list(reversed(members)),
                previews={i: f"p{i}" for i in members},
            )
        )
    return {(CLASSIFIER.name, row_id): classifier, (CLUSTER.name, row_id): cluster}


def per_annotation_loop(schema, attachment_map, objects, row_id):
    """The narrowing loop Hydrate ran before the memo, kept as the oracle."""
    kept = set(schema)
    attachments: dict[int, frozenset[str]] = {}
    dropped: set[int] = set()
    for annotation_id, columns in attachment_map.items():
        surviving = frozenset(
            qualified
            for column in columns
            if (qualified := f"{ALIAS}.{column}") in kept
        )
        if surviving:
            attachments[annotation_id] = surviving
        else:
            dropped.add(annotation_id)
    summaries = {}
    for instance in (CLASSIFIER, CLUSTER):
        obj = objects.get((instance.name, row_id))
        summary = obj.for_query() if obj is not None else instance.new_object()
        if dropped:
            # The reference projection: copy(), then remove in place.
            summary = summary.copy()
            summary.remove_annotations(dropped)
        summaries[instance.name] = summary.to_json()
    return attachments, summaries


column_sets = st.frozensets(st.sampled_from(COLUMNS), min_size=1)
attachment_maps = st.dictionaries(
    st.integers(1, 40), column_sets, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(
    schema_columns=st.lists(st.sampled_from(COLUMNS), min_size=1, unique=True),
    maps=st.lists(attachment_maps, min_size=1, max_size=9),
    summarized=st.lists(st.booleans(), min_size=9, max_size=9),
    block_size=st.integers(1, 4),
)
def test_hydrate_matches_per_annotation_loop(
    schema_columns, maps, summarized, block_size
):
    schema = tuple(f"{ALIAS}.{column}" for column in schema_columns)
    attachment_by_row = dict(enumerate(maps, start=1))
    objects = {}
    for row_id, attachment_map in attachment_by_row.items():
        if summarized[row_id - 1]:
            objects.update(stored_objects(row_id, attachment_map))
    before = {key: obj.to_json() for key, obj in objects.items()}
    rows = [
        AnnotatedTuple(values=(row_id,), source_rows=frozenset({(TABLE, row_id)}))
        for row_id in attachment_by_row
    ]
    operator = HydrateOperator(
        RowsOperator(schema, rows),
        FakeManager(objects, attachment_by_row),
        TABLE,
        ALIAS,
        block_size=block_size,
    )
    emitted = list(operator)
    assert [row.values for row in emitted] == [(row_id,) for row_id in attachment_by_row]
    for row in emitted:
        (row_id,) = row.values
        attachments, summaries = per_annotation_loop(
            schema, attachment_by_row[row_id], objects, row_id
        )
        assert row.attachments == attachments
        assert {
            name: summary.to_json() for name, summary in row.summaries.items()
        } == summaries
    # Projection ran on values: the stored objects are intact.
    assert {key: obj.to_json() for key, obj in objects.items()} == before
