"""Property test: the session answers exactly like the raw oracle.

The planner's rewrites are *purely* performance optimizations: for any
query, the session must produce what raw annotation propagation over
the normalized plan, with no storage rewrites, produces
(:mod:`tests.raw_oracle`): the same value rows, the same annotation ids
per row, and summaries covering exactly those annotations.  Rows are compared sorted, the
``test_plan_equivalence`` discipline.

Hypothesis draws queries from a grammar covering every rewrite the
planner performs — multi-way joins in every FROM order, aggregations
and DISTINCT over pushable and non-pushable tables (storage-side
aggregation), and mixed value/summary residual predicates (the hydrate
split) — against a session carrying all five summary types, at one
shard and at four.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InsightNotes
from repro.summaries.registry import extended_registry
from tests.conftest import TRAINING
from tests.raw_oracle import RawOracle

_TYPES = [
    ("Classifier", {"labels": ["Behavior", "Disease"]}),
    ("Cluster", {"threshold": 0.3}),
    ("Snippet", {"max_sentences": 2}),
    ("Terms", {"top_k": 5}),
    ("Timeline", {"bucket_seconds": 60}),
]

_TEXTS = [
    "observed feeding stonewort near the shore",
    "symptoms of avian pox in the flock",
    "diving for insects at dawn in the reeds",
    "banded during migration molt unclear follow-up",
]


def _build_session(path: str, shards: int) -> InsightNotes:
    notes = InsightNotes(path, registry=extended_registry(), shards=shards)
    notes.create_table("birds", ["name", "species", "weight", "cutoff"])
    notes.create_table("sightings", ["observer", "species", "count"])
    notes.create_table("regions", ["species", "zone"])
    bird_ids = notes.insert_many(
        "birds",
        [(f"b{i}", f"sp{i % 4}", (i * 7) % 10, 5) for i in range(12)],
    )
    sighting_ids = notes.insert_many(
        "sightings",
        [(f"obs{i % 3}", f"sp{i % 4}", (i * 3) % 8) for i in range(16)],
    )
    notes.insert_many("regions", [(f"sp{i}", f"z{i % 2}") for i in range(4)])
    for type_name, config in _TYPES:
        name = f"{type_name}Eq"
        instance = notes.catalog.define_instance(type_name, name, dict(config))
        if type_name == "Classifier":
            instance.train(list(TRAINING))
            notes.catalog.save_instance_config(name)
        notes.link(name, "birds")
        notes.link(name, "sightings")
    specs = []
    for i, row_id in enumerate(bird_ids):
        specs.append(
            {
                "text": _TEXTS[i % len(_TEXTS)],
                "table": "birds",
                "row_id": row_id,
                "created_at": float(60 * i),
            }
        )
    for i, row_id in enumerate(sighting_ids[::2]):
        specs.append(
            {
                "text": _TEXTS[(i + 1) % len(_TEXTS)],
                "table": "sightings",
                "row_id": row_id,
                "created_at": float(90 * i),
            }
        )
    notes.add_annotations(specs)
    notes.analyze()
    return notes


# -- query grammar ------------------------------------------------------

_SUMMARY_INSTANCES = [f"{name}Eq" for name, _ in _TYPES]


@st.composite
def queries(draw) -> str:
    shape = draw(
        st.sampled_from(
            ["filter", "join2", "join3", "group", "distinct", "hydrate"]
        )
    )
    if shape == "filter":
        threshold = draw(st.integers(min_value=0, max_value=9))
        return (
            "SELECT name, species, weight FROM birds "
            f"WHERE weight > {threshold}"
        )
    if shape == "join2":
        order = draw(st.booleans())
        tables = (
            "birds b, sightings s" if order else "sightings s, birds b"
        )
        threshold = draw(st.integers(min_value=0, max_value=7))
        return (
            f"SELECT b.name, s.observer, s.count FROM {tables} "
            "WHERE b.species = s.species AND "
            f"s.count > {threshold}"
        )
    if shape == "join3":
        tables = draw(
            st.permutations(
                ["birds b", "sightings s", "regions r"]
            )
        )
        return (
            "SELECT b.name, s.observer, r.zone FROM "
            f"{', '.join(tables)} "
            "WHERE b.species = s.species AND s.species = r.species"
        )
    if shape == "group":
        having = draw(st.sampled_from(["", " HAVING count(*) > 2"]))
        where = draw(st.sampled_from(["", " WHERE count > 3"]))
        return (
            "SELECT species, count(*), sum(count), min(observer) "
            f"FROM sightings{where} GROUP BY species{having}"
        )
    if shape == "distinct":
        table, column = draw(
            st.sampled_from(
                [("birds", "species"), ("sightings", "observer"),
                 ("regions", "zone")]
            )
        )
        return f"SELECT DISTINCT {column} FROM {table}"
    # The hydrate-split shape: ``weight < cutoff`` is column-vs-column
    # (not sargable, summary-free) ANDed with a summary conjunct.
    instance = draw(st.sampled_from(_SUMMARY_INSTANCES))
    minimum = draw(st.integers(min_value=0, max_value=1))
    return (
        "SELECT name, weight FROM birds "
        "WHERE weight < cutoff "
        f"AND SUMMARY_COUNT('{instance}') >= {minimum}"
    )


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestOracleEquivalenceSingleShard:
    @pytest.fixture(scope="class")
    def pair(self):
        notes = _build_session(":memory:", shards=1)
        yield notes, RawOracle(notes)
        notes.close()

    @given(sql=queries())
    @_SETTINGS
    def test_session_matches_raw_oracle(self, pair, sql):
        notes, oracle = pair
        oracle.check(notes.query(sql), sql, ordered=False)


class TestOracleEquivalenceSharded:
    @pytest.fixture(scope="class")
    def pair(self):
        with tempfile.TemporaryDirectory() as tmp:
            notes = _build_session(f"{tmp}/eq.db", shards=4)
            yield notes, RawOracle(notes)
            notes.close()

    @given(sql=queries())
    @_SETTINGS
    def test_session_matches_raw_oracle(self, pair, sql):
        notes, oracle = pair
        oracle.check(notes.query(sql), sql, ordered=False)
