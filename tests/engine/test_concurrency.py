"""Concurrent read path: stress coverage.

Two guarantees:

1. **No corruption under load** — N reader threads running mixed
   pushdown/summary queries through one shared session, racing a writer
   that ingests annotation batches, must finish without exceptions and
   with every reader-table query byte-identical to a serial replay (the
   readers query ``birds``, which the writer never touches, so their
   per-query results are deterministic).
2. **Cache sanity** — the manager's shared object cache must actually
   serve hits under concurrent traffic (locks that silently bypass the
   cache would pass test 1).
"""

from __future__ import annotations

import json
import threading

from repro import InsightNotes

TRAINING = [
    ("observed feeding on stonewort beds at dawn", "Behavior"),
    ("seen foraging among pond weeds near shore", "Behavior"),
    ("shows symptoms of avian influenza on the wing", "Disease"),
    ("appears infected with avian pox around the beak", "Disease"),
]

_NOTE_TEXTS = [
    "observed feeding on stonewort at dawn",
    "shows symptoms of avian influenza",
    "seen foraging among pond weeds",
    "appears infected with avian pox",
    "watched chasing shoots near the shore",
]


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


def _build_session(path: str, **kwargs) -> InsightNotes:
    notes = InsightNotes(path, **kwargs)
    notes.create_table("birds", ["name", "species", "weight"])
    notes.create_table("sightings", ["site", "count"])
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    notes.link("BirdClass", "sightings")
    for i in range(120):
        row = notes.insert(
            "birds", (f"bird{i:03d}", f"species{i % 7}", float(i % 40))
        )
        notes.add_annotation(
            _NOTE_TEXTS[i % len(_NOTE_TEXTS)], table="birds", row_id=row
        )
    for i in range(40):
        notes.insert("sightings", (f"site{i % 5}", i))
    return notes


_QUERIES = [
    "SELECT name, species FROM birds WHERE weight < 20",
    "SELECT name FROM birds WHERE species = 'species3'",
    "SELECT name, weight FROM birds WHERE weight >= 30 ORDER BY name LIMIT 10",
    "SELECT species, COUNT(*) FROM birds GROUP BY species",
    "SELECT name FROM birds WHERE SUMMARY_COUNT('BirdClass', 'Behavior') >= 1 LIMIT 15",
    "SELECT name, species, weight FROM birds WHERE weight IN (0, 7, 14) ",
]


class TestStress:
    def test_readers_race_writer_without_corruption(self, tmp_path):
        notes = _build_session(str(tmp_path / "stress.db"))
        try:
            # Serial replay first: the expected answer for every query.
            expected = [fingerprint(notes.query(sql)) for sql in _QUERIES]

            errors: list[BaseException] = []
            mismatches: list[str] = []
            start = threading.Barrier(5)
            stop_writing = threading.Event()

            def reader(worker: int) -> None:
                try:
                    start.wait(timeout=10)
                    for round_number in range(8):
                        index = (worker + round_number) % len(_QUERIES)
                        got = fingerprint(notes.query(_QUERIES[index]))
                        if got != expected[index]:
                            mismatches.append(
                                f"worker {worker} round {round_number} "
                                f"query {index}"
                            )
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def writer() -> None:
                try:
                    start.wait(timeout=10)
                    for batch in range(6):
                        notes.add_annotations(
                            [
                                {
                                    "text": f"sighting note {batch}-{i}",
                                    "table": "sightings",
                                    "row_id": (batch * 5 + i) % 40 + 1,
                                }
                                for i in range(10)
                            ]
                        )
                        if stop_writing.is_set():
                            return
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(4)
            ]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop_writing.set()
            assert not errors, errors
            assert not mismatches, mismatches
            assert all(not thread.is_alive() for thread in threads)

            # The ingest must actually have landed while readers ran.
            assert notes.annotations.count() >= 120 + 60
        finally:
            notes.close()

    def test_object_cache_serves_hits_under_concurrency(self, tmp_path):
        notes = _build_session(str(tmp_path / "cache.db"))
        try:
            notes.manager.drop_caches()
            notes.query(_QUERIES[0])  # warm the object cache from storage
            before = notes.manager.cache_info()

            def read() -> None:
                for _ in range(3):
                    notes.query(_QUERIES[0])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            after = notes.manager.cache_info()
            hits = after["hits"] - before["hits"]
            misses = after["misses"] - before["misses"]
            # Twelve re-runs of a warmed query, no writes: only hits.
            assert hits > 0
            assert misses == 0
        finally:
            notes.close()
