"""Each summary instance is projected at most once, and only when read.

The operators defer projection to the row (``AnnotatedTuple.drop``), and
an instance is projected the first time something reads it.  These tests
count ``without()`` calls per instance: a filter that reads one instance
projects only that one on the rows it rejects, and a group-by member that
Hydrate and the group-by remap both narrow is projected once.  A guard
keeps every ``without()`` call out of the engine modules.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import random

import pytest

from repro import InsightNotes
from repro.engine.operators import (
    GroupByOperator,
    HydrateOperator,
    ProjectOperator,
    ScanOperator,
)
from repro.engine.plan import Aggregate
from repro.summaries.base import SummaryObject
from tests.conftest import TRAINING

COLUMNS = ("name", "species", "region", "weight")
INSTANCES = ("ClassBird1", "ClassBird2", "Cluster", "Snippet")
ROWS = 48
LIMIT = 10

SUMMARY_SQL = (
    "SELECT name, species FROM birds "
    "WHERE SUMMARY_COUNT('ClassBird1', 'Behavior') > 0 "
    f"ORDER BY SUMMARY_COUNT('ClassBird1', 'Behavior') DESC LIMIT {LIMIT}"
)


def _subclasses(cls: type) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


@pytest.fixture
def without_calls(monkeypatch) -> collections.Counter:
    """``without()`` calls per instance name (outermost calls only)."""
    calls: collections.Counter = collections.Counter()
    depth = [0]
    for cls in {SummaryObject} | _subclasses(SummaryObject):
        if "without" not in cls.__dict__:
            continue

        def counted(self, ids, _original=cls.__dict__["without"]):
            if not depth[0]:
                calls[self.instance_name] += 1
            depth[0] += 1
            try:
                return _original(self, ids)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cls, "without", counted)
    return calls


@pytest.fixture
def lookup():
    """A lookup-shaped table: four instances, a note on every column."""
    notes = InsightNotes()
    notes.create_table("birds", list(COLUMNS))
    notes.insert_many(
        "birds",
        [(f"bird{i}", f"sp{i % 4}", f"r{i % 3}", float(i)) for i in range(ROWS)],
    )
    notes.define_classifier("ClassBird1", ["Behavior", "Disease"], TRAINING)
    notes.define_classifier("ClassBird2", ["Behavior", "Disease"], TRAINING)
    notes.define_cluster("Cluster", threshold=0.3)
    notes.define_snippet("Snippet", max_sentences=2)
    for instance in INSTANCES:
        notes.link(instance, "birds")
    rng = random.Random(7)
    notes.add_annotations(
        [
            {
                "text": rng.choice(TRAINING)[0],
                "table": "birds",
                "row_id": row_id,
                "columns": [column],
            }
            for row_id in range(1, ROWS + 1)
            for column in COLUMNS
        ]
    )
    yield notes
    notes.close()


class TestProjectOnRead:
    def test_summary_filter_projects_only_what_it_reads(self, lookup, without_calls):
        result = lookup.query(SUMMARY_SQL)
        hydrated = result.stats.rows_hydrated
        assert hydrated == ROWS
        assert len(result.tuples) == LIMIT
        # Every row drops its region/weight notes at Hydrate, so the read
        # instance is projected once per hydrated row...
        assert without_calls["ClassBird1"] == hydrated
        # ...and the unread ones only on the rows the Limit keeps.
        for instance in INSTANCES[1:]:
            assert without_calls[instance] <= LIMIT

    def test_group_by_member_is_projected_once(self, lookup, without_calls):
        # Hydrate narrows to (name, species); the remap then drops name.
        base = ScanOperator(lookup.db, "birds", "birds")
        project = ProjectOperator(base, ["birds.name", "birds.species"])
        hydrate = HydrateOperator(
            project, lookup.manager, "birds", "birds"
        )
        operator = GroupByOperator(
            hydrate, keys=["birds.species"], aggregates=[Aggregate("count", None)]
        )
        groups = list(operator)
        assert sum(row.values[1] for row in groups) == ROWS
        for row in groups:
            # Only species notes survive the group-by.
            assert all(columns == {"birds.species"} for columns in row.attachments.values())
            assert len(row.summaries["ClassBird1"].annotation_ids()) == len(row.attachments)
        for instance in INSTANCES:
            assert without_calls[instance] == ROWS


def test_engine_modules_never_project_eagerly():
    """Forcing lives in ``model/tuple.py``: no engine module calls ``without()``."""
    engine = pathlib.Path(__file__).parents[2] / "src" / "repro" / "engine"
    offenders = []
    for path in sorted(engine.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "without"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
