"""Tests for repro.engine.session — the public facade."""

import pytest

from repro import InsightNotes
from repro.errors import AnnotationError, SQLSyntaxError
from tests.conftest import TRAINING


class TestDataOperations:
    def test_create_insert_query(self, session):
        session.create_table("t", ["a", "b"])
        session.insert("t", (1, "x"))
        session.insert_many("t", [(2, "y"), (3, "z")])
        result = session.query("SELECT a FROM t WHERE a > 1 ORDER BY a")
        assert result.rows() == [(2,), (3,)]

    def test_query_results_get_sequential_qids(self, session):
        session.create_table("t", ["a"])
        first = session.query("SELECT a FROM t")
        second = session.query("SELECT a FROM t")
        assert second.qid == first.qid + 1

    def test_syntax_error_propagates(self, session):
        with pytest.raises(SQLSyntaxError):
            session.query("SELEC a FROM t")


class TestAnnotationAPI:
    def test_row_level_annotation_covers_all_columns(self, birds_session):
        annotation = birds_session.add_annotation(
            "watched chasing shoots", table="birds", row_id=2
        )
        cells = birds_session.annotations.cells_of(annotation.annotation_id)
        assert {cell.column for cell in cells} == {"name", "species", "weight"}

    def test_column_restricted_annotation(self, birds_session):
        annotation = birds_session.add_annotation(
            "weight looks wrong", table="birds", row_id=2, columns=["weight"]
        )
        cells = birds_session.annotations.cells_of(annotation.annotation_id)
        assert [cell.column for cell in cells] == ["weight"]

    def test_requires_target(self, session):
        with pytest.raises(AnnotationError, match="either cells or table"):
            session.add_annotation("dangling")

    def test_rejects_both_cells_and_table(self, birds_session):
        from repro.model.cell import CellRef

        with pytest.raises(AnnotationError, match="not both"):
            birds_session.add_annotation(
                "x", table="birds", row_id=1,
                cells=[CellRef("birds", 1, "name")],
            )

    def test_delete_annotation_updates_summaries(self, birds_session):
        result_before = birds_session.query("SELECT name FROM birds")
        behavior_before = result_before.tuples[0].summaries["BirdClass"].count(
            "Behavior"
        )
        annotation_ids = sorted(
            birds_session.annotations.annotation_ids_for_row("birds", 1)
        )
        birds_session.delete_annotation(annotation_ids[0])
        result_after = birds_session.query("SELECT name FROM birds")
        behavior_after = result_after.tuples[0].summaries["BirdClass"].count(
            "Behavior"
        )
        assert behavior_after == behavior_before - 1


class TestSummaryLifecycle:
    def test_link_bootstraps_existing_annotations(self, birds_session):
        birds_session.define_classifier("Late", ["Behavior", "Disease"], TRAINING)
        birds_session.link("Late", "birds")
        result = birds_session.query("SELECT name, species, weight FROM birds")
        assert result.tuples[0].summaries["Late"].count("Behavior") == 2

    def test_unlink_removes_summaries_from_results(self, birds_session):
        birds_session.unlink("BirdCluster", "birds")
        result = birds_session.query("SELECT name FROM birds")
        assert "BirdCluster" not in result.tuples[0].summaries

    def test_define_helpers(self, session):
        session.create_table("t", ["a"])
        session.define_classifier("Cf", ["x", "y"])
        session.define_cluster("Cl", threshold=0.5)
        session.define_snippet("Sn", max_sentences=3)
        assert session.catalog.instance_names() == ["Cf", "Cl", "Sn"]


class TestQuerying:
    def test_summaries_propagate_through_query(self, birds_session):
        result = birds_session.query(
            "SELECT name, species FROM birds WHERE name = 'Swan Goose'"
        )
        summary = result.tuples[0].summaries["BirdClass"]
        # Two Behavior annotations; the Disease one sits on weight only and
        # is projected out.
        assert summary.count("Behavior") == 2
        assert summary.count("Disease") == 0

    def test_trace_captures_operators(self, birds_session):
        result = birds_session.query("SELECT name FROM birds", trace=True)
        assert result.trace is not None
        assert any("Scan" in op for op in result.trace.by_operator())

    def test_explain_renders_plan(self, birds_session):
        text = birds_session.explain("SELECT name FROM birds WHERE weight > 5")
        # The sargable predicate is pushed into the storage scan and
        # hydration sits above the (empty) residual chain.
        assert "Scan(birds) [pushed: weight > 5]" in text
        assert "Hydrate(birds)" in text
        assert "Select" not in text

    def test_results_are_registered_and_cached(self, birds_session):
        result = birds_session.query("SELECT name FROM birds")
        assert result.qid in birds_session.results  # the plan record
        assert result.qid in birds_session.cache
        assert birds_session.result(result.qid) is result

    def test_summary_predicate_query(self, birds_session):
        result = birds_session.query(
            "SELECT name FROM birds "
            "WHERE SUMMARY_COUNT('BirdClass', 'Behavior') >= 2"
        )
        assert result.rows() == [("Swan Goose",)]

    def test_zoomin_round_trip(self, birds_session):
        result = birds_session.query("SELECT name, species FROM birds")
        zoom = birds_session.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} "
            f"WHERE name = 'Swan Goose' ON BirdClass INDEX 1"
        )
        texts = [a.text for m in zoom.matches for a in m.annotations]
        assert texts == [
            "observed feeding on stonewort at dawn",
            "seen feeding on stonewort beds today",
        ]


class TestPersistence:
    def test_file_backed_session_round_trip(self, tmp_path):
        path = str(tmp_path / "notes.db")
        first = InsightNotes(path)
        first.create_table("t", ["a"])
        first.insert("t", ("v",))
        first.define_classifier("C", ["x", "y"], [("one", "x"), ("two", "y")])
        first.link("C", "t")
        first.add_annotation("one one one", table="t", row_id=1)
        first.close()

        second = InsightNotes(path)
        result = second.query("SELECT a FROM t")
        assert result.rows() == [("v",)]
        assert result.tuples[0].summaries["C"].count("x") == 1
        second.close()

    def test_context_manager(self, tmp_path):
        path = str(tmp_path / "ctx.db")
        with InsightNotes(path) as notes:
            notes.create_table("t", ["a"])
        with InsightNotes(path) as notes:
            assert notes.db.tables() == ["t"]
