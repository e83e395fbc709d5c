"""Property test: pushdown and lazy hydration answer like raw propagation.

Storage-level predicate/limit pushdown and lazy block-wise hydration are
*purely* performance optimizations: for any query, the session must
return what the raw-annotation engine returns over the normalized plan
with every predicate evaluated in memory (:mod:`tests.raw_oracle`) —
the same rows in the same order, the same annotation ids per row, and
summaries covering exactly those annotations.

Hypothesis drives random queries — sargable and residual predicates
(comparisons, IN, LIKE, NULL tests, summary functions, AND/OR/NOT
mixes), DISTINCT, GROUP BY, ORDER BY, LIMIT, and IN-subqueries — over a
table that includes NULL cells.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InsightNotes
from tests.raw_oracle import RawOracle

TRAINING = [
    ("observed feeding on stonewort beds at dawn", "Behavior"),
    ("seen foraging among pond weeds near shore", "Behavior"),
    ("spotted diving for small insects at dusk", "Behavior"),
    ("shows symptoms of avian influenza on the wing", "Disease"),
    ("appears infected with avian pox around the beak", "Disease"),
    ("tested positive for botulism in the flock", "Disease"),
]

_ROWS = [
    ("Swan Goose", "Anser cygnoides", 3.2),
    ("Mute Swan", "Cygnus olor", 10.5),
    ("Brant", None, 1.9),
    (None, "Anser caerulescens", None),
    ("Snow Goose", "Anser caerulescens", 2.4),
    ("Tundra Swan", "Cygnus columbianus", 7.0),
    ("Whooper Swan", "Cygnus cygnus", 9.8),
    (None, None, 0.0),
]

_NOTES = [
    (1, None, "observed feeding on stonewort at dawn"),
    (1, ["weight"], "shows symptoms of avian influenza"),
    (2, ["name"], "seen foraging among pond weeds"),
    (3, None, "spotted diving for small insects"),
    (4, ["species"], "appears infected with avian pox"),
    (5, ["name", "weight"], "tested positive for botulism"),
    (6, None, "watched chasing shoots near the shore"),
    (7, ["weight"], "weight reading looks suspicious"),
]


def _build_session() -> InsightNotes:
    notes = InsightNotes()
    notes.create_table("birds", ["name", "species", "weight"])
    for row in _ROWS:
        notes.insert("birds", row)
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    notes.define_cluster("BirdCluster", threshold=0.3)
    notes.link("BirdCluster", "birds")
    for row_id, columns, text in _NOTES:
        notes.add_annotation(text, table="birds", row_id=row_id,
                             columns=columns)
    return notes


@pytest.fixture(scope="module")
def session_and_oracle():
    notes = _build_session()
    yield notes, RawOracle(notes)
    notes.close()


# -- query strategy -----------------------------------------------------

_numeric = st.sampled_from(["-1", "0", "1.9", "2.4", "3.2", "7", "9.8", "11"])
_strings = st.sampled_from([
    "'Swan Goose'", "'mute swan'", "'Brant'", "'Cygnus olor'",
    "'Anser caerulescens'", "''",
])
_patterns = st.sampled_from(["'S%'", "'%oose'", "'%a%'", "'_wan%'", "'%swan'"])


def _leaves() -> st.SearchStrategy[str]:
    comparison_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    return st.one_of(
        st.builds(lambda op, v: f"weight {op} {v}", comparison_ops, _numeric),
        st.builds(lambda op, v: f"name {op} {v}", comparison_ops, _strings),
        st.builds(
            lambda values: f"species IN ({', '.join(values)})",
            st.lists(_strings, min_size=1, max_size=3, unique=True),
        ),
        st.builds(
            lambda column, negated:
                f"{column} IS{' NOT' if negated else ''} NULL",
            st.sampled_from(["name", "species", "weight"]),
            st.booleans(),
        ),
        st.builds(lambda p: f"name LIKE {p}", _patterns),
        st.builds(
            lambda op, n: f"SUMMARY_COUNT('BirdClass', 'Behavior') {op} {n}",
            comparison_ops,
            st.integers(min_value=0, max_value=3),
        ),
        st.builds(
            lambda op, n: f"GROUP_COUNT('BirdCluster') {op} {n}",
            comparison_ops,
            st.integers(min_value=0, max_value=2),
        ),
    )


_predicates = st.recursive(
    _leaves(),
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
        st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
        st.builds(lambda a: f"NOT ({a})", inner),
    ),
    max_leaves=4,
)

_columns = st.sampled_from([
    "name", "species", "weight",
    "name, weight", "species, weight", "name, species, weight",
])


@st.composite
def queries(draw) -> str:
    form = draw(st.integers(min_value=0, max_value=3))
    where = f" WHERE {draw(_predicates)}" if draw(st.booleans()) else ""
    if form == 0:
        columns = draw(_columns)
        sql = f"SELECT {columns} FROM birds{where}"
        if draw(st.booleans()):
            first = columns.split(",")[0].strip()
            direction = " DESC" if draw(st.booleans()) else ""
            sql += f" ORDER BY {first}{direction}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(min_value=0, max_value=9))}"
        return sql
    if form == 1:
        return f"SELECT DISTINCT species FROM birds{where}"
    if form == 2:
        return (
            f"SELECT species, count(*) FROM birds{where} GROUP BY species"
        )
    sub_where = f" WHERE {draw(_predicates)}"
    column = draw(st.sampled_from(["name", "species", "weight"]))
    return (
        f"SELECT name, weight FROM birds WHERE {column} IN "
        f"(SELECT {column} FROM birds{sub_where})"
    )


@given(sql=queries())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pushdown_matches_raw_propagation(session_and_oracle, sql):
    notes, oracle = session_and_oracle
    oracle.check(notes.query(sql), sql)
