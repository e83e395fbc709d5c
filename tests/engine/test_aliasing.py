"""Aliasing regression tests: shared caches vs. in-place row mutation.

Hydration serves summary objects out of shared stores — the summary
manager's object cache and, for ZOOMIN, the RCO result cache.
Downstream operators mutate per-query rows in place (projection narrows
attachments and calls ``remove_annotations``; computation rewrites
values).  The copy-on-write ``for_query`` boundary must keep those
mutations out of every shared object; these tests pin that invariant
for both kinds of object the cache holds: objects maintenance just
folded, and objects a read filled from storage once the cache was
dropped.
"""

import json

import pytest

from repro import InsightNotes

TRAINING = [
    ("observed feeding on stonewort beds at dawn", "Behavior"),
    ("seen foraging among pond weeds near shore", "Behavior"),
    ("shows symptoms of avian influenza on the wing", "Disease"),
    ("tested positive for botulism in the flock", "Disease"),
]

FULL_SQL = "SELECT name, species, weight FROM birds"

#: Queries whose operators mutate row state in place: projection drops
#: the weight-only annotation, computation rebuilds values/attachments.
MUTATING_SQL = [
    "SELECT name FROM birds",
    "SELECT species FROM birds",
    "SELECT weight * 2 AS heavy FROM birds",
    "SELECT name FROM birds WHERE weight > 1",
]


def build_session(write_cache: bool) -> InsightNotes:
    notes = InsightNotes()
    notes.create_table("birds", ["name", "species", "weight"])
    notes.insert("birds", ("Swan Goose", "Anser cygnoides", 3.2))
    notes.insert("birds", ("Mute Swan", "Cygnus olor", 10.5))
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    notes.define_cluster("BirdCluster", threshold=0.3)
    notes.link("BirdCluster", "birds")
    notes.add_annotation("observed feeding on stonewort at dawn",
                         table="birds", row_id=1)
    notes.add_annotation("shows symptoms of avian influenza",
                         table="birds", row_id=1, columns=["weight"])
    notes.add_annotation("seen foraging among pond weeds",
                         table="birds", row_id=2, columns=["name"])
    if not write_cache:
        notes.manager.drop_caches()
    return notes


def fingerprint(result) -> str:
    payload = [
        {
            "values": list(row.values),
            "summaries": {
                name: obj.to_json()
                for name, obj in sorted(row.summaries.items())
            },
            "attachments": {
                str(annotation_id): sorted(columns)
                for annotation_id, columns in sorted(row.attachments.items())
            },
        }
        for row in result.tuples
    ]
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("write_cache", [True, False])
class TestObjectCacheAliasing:
    def test_projecting_queries_do_not_corrupt_cached_objects(self, write_cache):
        notes = build_session(write_cache)
        try:
            before = fingerprint(notes.query(FULL_SQL))
            for sql in MUTATING_SQL:
                notes.query(sql)
            # Served from the (now warm) object cache.
            assert fingerprint(notes.query(FULL_SQL)) == before
        finally:
            notes.close()

    def test_registered_results_survive_later_queries(self, write_cache):
        # The zoom-in cache keeps live tuples of resident results; their
        # summary objects must not alias later queries' copies.
        notes = build_session(write_cache)
        try:
            held = notes.query(FULL_SQL)
            before = fingerprint(held)
            for sql in MUTATING_SQL:
                notes.query(sql)
            assert fingerprint(held) == before
        finally:
            notes.close()

    def test_zoomin_stable_across_projecting_queries(self, write_cache):
        notes = build_session(write_cache)
        try:
            result = notes.query(FULL_SQL)
            command = (
                f"ZOOMIN REFERENCE QID = {result.qid} "
                f"WHERE name = 'Swan Goose' ON BirdClass INDEX 1"
            )

            def texts(zoom):
                return sorted(
                    a.text for m in zoom.matches for a in m.annotations
                )

            first = texts(notes.zoomin(command))
            assert first  # the zoom-in actually resolved annotations
            for sql in MUTATING_SQL:
                notes.query(sql)
            # Second call is served via the cache/recompute path over the
            # same registered result; mutation leakage would change it.
            assert texts(notes.zoomin(command)) == first
        finally:
            notes.close()
