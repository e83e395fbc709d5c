"""Scan-pipeline tests: block prefetch, the object cache, freshness.

The block-oriented scan must be an invisible optimization — identical
results to the per-row path (``planner.scan_block_size = 1`` reading
from storage), drastically fewer SQLite roundtrips, and never a stale
summary after annotation writes.
"""

import json

import pytest

from repro import CellRef, InsightNotes
from repro.engine.operators import Tracer

TRAINING = [
    ("observed feeding on stonewort beds at dawn", "Behavior"),
    ("seen foraging among pond weeds near shore", "Behavior"),
    ("spotted diving for small insects at dusk", "Behavior"),
    ("shows symptoms of avian influenza on the wing", "Disease"),
    ("appears infected with avian pox around the beak", "Disease"),
    ("tested positive for botulism in the flock", "Disease"),
]


def populate_birds(notes: InsightNotes, rows: int = 30) -> InsightNotes:
    """A summarized birds table with annotations on every row."""
    notes.create_table("birds", ["name", "species", "weight"])
    for i in range(rows):
        notes.insert("birds", (f"bird-{i}", f"species-{i % 5}", float(i)))
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    notes.define_cluster("BirdCluster", threshold=0.3)
    notes.link("BirdCluster", "birds")
    for i in range(rows):
        notes.add_annotation(
            f"observed feeding on stonewort at dawn, visit {i}",
            table="birds", row_id=i + 1,
        )
        if i % 3 == 0:
            notes.add_annotation(
                "shows symptoms of avian influenza",
                table="birds", row_id=i + 1, columns=["weight"],
            )
    return notes


def result_fingerprint(result) -> str:
    """Canonical serialization of rows, summaries, and attachments."""
    payload = []
    for row in result.tuples:
        payload.append({
            "values": list(row.values),
            "summaries": {
                name: obj.to_json()
                for name, obj in sorted(row.summaries.items())
            },
            "attachments": {
                str(annotation_id): sorted(columns)
                for annotation_id, columns in sorted(row.attachments.items())
            },
        })
    return json.dumps(payload, sort_keys=True)


class TestRoundTrips:
    def test_block_scan_uses_5x_fewer_queries_than_per_row(self):
        # Empty the object cache on both sides so the comparison
        # isolates the block prefetch itself, not cache warmth.
        blocked = populate_birds(InsightNotes())
        per_row = populate_birds(InsightNotes())
        per_row.planner.scan_block_size = 1
        sql = "SELECT name, species, weight FROM birds"
        try:
            for notes in (blocked, per_row):
                notes.manager.drop_caches()
            with blocked.db.track_queries() as fast:
                blocked.query(sql)
            with per_row.db.track_queries() as slow:
                per_row.query(sql)
            assert fast.count > 0
            assert slow.count >= 5 * fast.count, (
                f"expected >=5x fewer roundtrips, got {slow.count} per-row "
                f"vs {fast.count} blocked"
            )
        finally:
            blocked.close()
            per_row.close()

    def test_warm_cache_scan_avoids_summary_state_queries(self):
        notes = populate_birds(InsightNotes())
        sql = "SELECT name, species, weight FROM birds"
        try:
            notes.query(sql)  # cold: fills the object cache
            with notes.db.track_queries() as counter:
                notes.query(sql)
            state_queries = [
                s for s in counter.statements if "summary_state" in s
            ]
            assert state_queries == []
        finally:
            notes.close()


class TestStats:
    def test_result_exposes_hydration_counters(self):
        notes = populate_birds(InsightNotes())
        try:
            # LIKE stays in memory as a residual below the Hydrate, so
            # all 30 rows are scanned but only the 3 matches hydrated.
            result = notes.query(
                "SELECT name, species, weight FROM birds WHERE name LIKE '%5'"
            )
            assert result.stats.rows_scanned == 30
            assert result.stats.rows_hydrated == len(result.tuples) == 3
            assert result.stats.hydration_blocks >= 1
        finally:
            notes.close()


class TestParity:
    @pytest.fixture()
    def paired_sessions(self):
        """The Figure 2 walkthrough built in both scan configurations."""
        def build() -> InsightNotes:
            notes = InsightNotes()
            return notes

        def setup(notes: InsightNotes) -> InsightNotes:
            notes.create_table("R", ["a", "b", "c", "d"])
            notes.create_table("S", ["x", "y", "z"])
            r = notes.insert("R", (1, 2, "c-value", "d-value"))
            s = notes.insert("S", (1, "y-value", "z-value"))
            notes.define_classifier("ClassBird1", ["Behavior", "Disease"], [
                ("observed feeding on stonewort", "Behavior"),
                ("shows symptoms of avian influenza", "Disease"),
            ])
            notes.define_classifier("ClassBird2", ["Provenance", "Comment"], [
                ("record imported from the archive", "Provenance"),
                ("great sighting worth sharing", "Comment"),
            ])
            notes.define_cluster("SimCluster", threshold=0.3)
            notes.define_snippet("TextSummary1", max_sentences=1)
            for name in ("ClassBird1", "ClassBird2", "SimCluster",
                         "TextSummary1"):
                notes.link(name, "R")
            for name in ("ClassBird2", "SimCluster"):
                notes.link(name, "S")
            notes.add_annotation("observed feeding on stonewort near dawn",
                                 table="R", row_id=r, columns=["a"])
            notes.add_annotation("shows symptoms of avian influenza",
                                 table="R", row_id=r, columns=["c"])
            notes.add_annotation(
                "Experiment E sentence one. Experiment E sentence two.",
                table="R", row_id=r, columns=["a"], document=True,
                title="Experiment E",
            )
            notes.add_annotation("great sighting worth sharing today",
                                 table="S", row_id=s, columns=["x"])
            notes.add_annotation(
                "record imported from station logbook",
                cells=[CellRef("R", r, "a"), CellRef("S", s, "x")],
            )
            return notes

        fast = setup(InsightNotes())
        slow = setup(InsightNotes())
        slow.planner.scan_block_size = 1
        slow.manager.drop_caches()
        yield fast, slow
        fast.close()
        slow.close()

    def test_figure2_walkthrough_identical(self, paired_sessions):
        fast, slow = paired_sessions
        sql = "SELECT r.a, r.b, s.z FROM R r, S s WHERE r.a = s.x AND r.b = 2"
        assert result_fingerprint(fast.query(sql)) == result_fingerprint(
            slow.query(sql)
        )

    def test_with_no_summaries_identical(self, paired_sessions):
        fast, slow = paired_sessions
        sql = "SELECT a, b FROM R WITH NO SUMMARIES"
        fast_result = fast.query(sql)
        slow_result = slow.query(sql)
        assert result_fingerprint(fast_result) == result_fingerprint(
            slow_result
        )
        # The no-summaries path carries neither summaries nor attachments.
        assert all(not row.summaries for row in fast_result.tuples)
        assert all(not row.attachments for row in fast_result.tuples)

    def test_repeated_queries_identical(self, paired_sessions):
        # The second (cache-served) run must match the first byte for byte.
        fast, _slow = paired_sessions
        sql = "SELECT a, b, c, d FROM R"
        assert result_fingerprint(fast.query(sql)) == result_fingerprint(
            fast.query(sql)
        )


class TestFreshness:
    def test_scan_observes_annotation_added_after_cached_query(self):
        notes = populate_birds(InsightNotes(), rows=5)
        sql = "SELECT name, species, weight FROM birds"
        try:
            before = notes.query(sql)
            baseline = before.tuples[0].summaries["BirdClass"].annotation_ids()
            added = notes.add_annotation(
                "spotted diving for small insects at dusk",
                table="birds", row_id=1,
            )
            after = notes.query(sql)
            ids = after.tuples[0].summaries["BirdClass"].annotation_ids()
            assert added.annotation_id in ids
            assert ids > baseline
        finally:
            notes.close()

    def test_scan_observes_annotation_deletion_after_cached_query(self):
        notes = populate_birds(InsightNotes(), rows=5)
        sql = "SELECT name, species, weight FROM birds"
        try:
            added = notes.add_annotation(
                "tested positive for botulism in the flock",
                table="birds", row_id=2,
            )
            before = notes.query(sql)
            assert added.annotation_id in (
                before.tuples[1].summaries["BirdClass"].annotation_ids()
            )
            notes.delete_annotation(added.annotation_id)
            after = notes.query(sql)
            assert added.annotation_id not in (
                after.tuples[1].summaries["BirdClass"].annotation_ids()
            )
        finally:
            notes.close()

    def test_projection_removal_does_not_corrupt_cached_summaries(self):
        # A projection drops the weight column, removing the influenza
        # annotation's effect from the query's summary objects in place.
        # That must never leak back into the cached base summaries.
        notes = populate_birds(InsightNotes(), rows=4)
        try:
            full_sql = "SELECT name, species, weight FROM birds"
            first = result_fingerprint(notes.query(full_sql))
            notes.query("SELECT name FROM birds")  # mutates query copies
            second = result_fingerprint(notes.query(full_sql))
            assert first == second
        finally:
            notes.close()


class TestTracer:
    def test_cap_limits_entries_and_counts_drops(self):
        notes = populate_birds(InsightNotes(), rows=6)
        try:
            notes.planner.scan_block_size = 2
            tracer = Tracer(max_entries=4)
            from repro.engine.sqlparser import build_logical, parse_sql

            logical = build_logical(
                parse_sql("SELECT name FROM birds"), notes.planner
            )
            operator = notes.planner.physical(
                notes.planner.prepare(logical), tracer
            )
            emitted = list(operator)
            assert len(emitted) == 6
            assert len(tracer.entries) == 4
            assert tracer.dropped > 0
        finally:
            notes.close()

    def test_rendering_is_lazy(self):
        notes = populate_birds(InsightNotes(), rows=3)
        try:
            result = notes.query(
                "SELECT name, species, weight FROM birds", trace=True
            )
            entry = next(
                e for e in result.trace.entries
                if e.operator.startswith("Hydrate")
            )
            assert entry._rendered is None  # nothing rendered eagerly
            rendered = entry.summaries
            assert rendered and all(
                isinstance(text, str) for text in rendered.values()
            )
            assert entry._rendered is rendered  # computed once, then cached
        finally:
            notes.close()

    def test_snapshots_survive_downstream_mutation(self):
        # The influenza annotation sits only on weight; the projection
        # removes its effect downstream of the hydration point.  The
        # hydrate trace snapshot must still carry it (the copy-on-write
        # alias keeps the pre-mutation payload).  The summary predicate
        # is a hydration barrier over both columns, so hydration happens
        # below the selection and the projection above it.
        notes = InsightNotes()
        try:
            notes.create_table("birds", ["name", "weight"])
            notes.insert("birds", ("Swan Goose", 3.2))
            notes.define_classifier("BirdClass", ["Behavior", "Disease"],
                                    TRAINING)
            notes.link("BirdClass", "birds")
            notes.add_annotation("observed feeding on stonewort",
                                 table="birds", row_id=1, columns=["name"])
            dropped = notes.add_annotation(
                "shows symptoms of avian influenza",
                table="birds", row_id=1, columns=["weight"],
            )
            result = notes.query(
                "SELECT name FROM birds "
                "WHERE weight > 0 AND SUMMARY_COUNT('BirdClass') >= 0",
                trace=True,
            )
            final_ids = result.tuples[0].summaries["BirdClass"].annotation_ids()
            assert dropped.annotation_id not in final_ids
            grouped = result.trace.by_operator()
            hydrate_op = next(op for op in grouped if op.startswith("Hydrate"))
            snapshot = grouped[hydrate_op][0]._objects["BirdClass"]
            assert dropped.annotation_id in snapshot.annotation_ids()
        finally:
            notes.close()

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            Tracer(max_entries=0)
