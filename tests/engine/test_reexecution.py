"""The zoom-in cache is the only result holder; a miss re-executes.

The session keeps no second reference to a query result: the
:class:`~repro.engine.results.ResultRegistry` records only each qid's
prepared plan and SQL.  A result the cache rejected or evicted is
therefore garbage once its caller lets go, and a zoom-in (or
``InsightNotes.result``) on it re-executes the recorded plan against the
current data — it does not replay a query-time snapshot.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import InsightNotes
from repro.errors import UnknownQueryIdError
from tests.conftest import TRAINING


def _session(cache_bytes: int) -> InsightNotes:
    notes = InsightNotes(cache_bytes=cache_bytes)
    notes.create_table("birds", ["name", "species", "weight"])
    notes.insert("birds", ("Swan Goose", "Anser cygnoides", 3.2))
    notes.insert("birds", ("Mute Swan", "Cygnus olor", 10.5))
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    notes.add_annotation(
        "observed feeding on stonewort at dawn", table="birds", row_id=1
    )
    return notes


def test_rejected_result_is_not_retained():
    with _session(cache_bytes=1) as notes:
        result = notes.query("SELECT name FROM birds")
        assert result.qid not in notes.cache  # rejected: oversize
        alive = weakref.ref(result)
        del result
        gc.collect()
        assert alive() is None


def test_evicted_result_is_not_retained():
    with _session(cache_bytes=1 << 20) as notes:
        first = notes.query("SELECT name, species, weight FROM birds")
        notes.cache.memory_bytes = first.size_estimate()
        notes.query("SELECT name, species, weight FROM birds")
        assert first.qid not in notes.cache  # evicted by the second
        alive = weakref.ref(first)
        del first
        gc.collect()
        assert alive() is None


def test_zoomin_after_a_write_reexecutes_against_current_data():
    with _session(cache_bytes=1) as notes:
        result = notes.query("SELECT name, species FROM birds")
        row_id = 1
        added = notes.add_annotation(
            "seen feeding on stonewort beds today", table="birds", row_id=row_id
        )
        zoom = notes.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} "
            "WHERE name = 'Swan Goose' ON BirdClass INDEX 1"
        )
        assert zoom.source == "recomputed"
        ids = {a.annotation_id for m in zoom.matches for a in m.annotations}
        assert added.annotation_id in ids


def test_result_serves_the_cached_snapshot_when_resident():
    with _session(cache_bytes=1 << 20) as notes:
        result = notes.query("SELECT name FROM birds")
        notes.add_annotation("seen diving at dusk", table="birds", row_id=1)
        assert notes.result(result.qid) is result
        assert notes.cache.counters.recomputes == 0


def test_result_reexecutes_under_the_original_qid():
    with _session(cache_bytes=1 << 20) as notes:
        result = notes.query("SELECT name FROM birds WHERE weight > 5")
        notes.cache.invalidate(result.qid)
        notes.insert("birds", ("Whooper Swan", "Cygnus cygnus", 9.8))
        again = notes.result(result.qid)
        assert again.qid == result.qid
        assert again.sql == result.sql
        assert again.rows() == [("Mute Swan",), ("Whooper Swan",)]
        assert notes.cache.counters.recomputes == 1
        assert notes.result(result.qid) is again  # re-admitted


def test_in_subquery_lists_stay_frozen_at_first_execution():
    # IN (SELECT ...) is flattened to a literal list before planning, so
    # the recorded plan re-reads the table but not the subquery.
    with _session(cache_bytes=1) as notes:
        result = notes.query(
            "SELECT name FROM birds WHERE species IN "
            "(SELECT species FROM birds WHERE weight > 5)"
        )
        assert result.rows() == [("Mute Swan",)]
        notes.insert("birds", ("Bewick Swan", "Cygnus olor", 6.0))
        notes.insert("birds", ("Whooper Swan", "Cygnus cygnus", 9.8))
        assert notes.result(result.qid).rows() == [
            ("Mute Swan",),
            ("Bewick Swan",),
        ]


def test_unknown_qid_raises():
    with _session(cache_bytes=1 << 20) as notes:
        with pytest.raises(UnknownQueryIdError):
            notes.result(9999)
