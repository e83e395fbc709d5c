"""Tests for repro.gate.cli (the InsightNotesGate REPL)."""

import pytest

from repro import InsightNotes
from repro.engine.results import ResultRegistry
from repro.gate.cli import GateREPL, run_script


@pytest.fixture
def repl():
    gate = GateREPL()
    yield gate
    gate.session.close()


class TestCommands:
    def test_demo_loads_once(self, repl):
        first = repl.handle("\\demo")
        assert "demo loaded" in first
        second = repl.handle("\\demo")
        assert "error" in second

    def test_tables_lists_schema(self, repl):
        repl.handle("\\demo")
        text = repl.handle("\\tables")
        assert "birds" in text
        assert "sightings" in text

    def test_tables_empty_hint(self, repl):
        assert "\\demo" in repl.handle("\\tables")

    def test_instances_shows_links(self, repl):
        repl.handle("\\demo")
        text = repl.handle("\\instances")
        assert "ClassBird1" in text
        assert "birds" in text

    def test_sql_returns_table_with_qid(self, repl):
        repl.handle("\\demo")
        text = repl.handle("SELECT name FROM birds LIMIT 2")
        assert "QID =" in text

    def test_sql_error_reported_not_raised(self, repl):
        assert repl.handle("SELECT FROM nothing").startswith("error:")

    def test_qbe_builds_select(self, repl):
        repl.handle("\\demo")
        text = repl.handle("\\qbe birds region=midwest")
        assert "midwest" in text

    def test_qbe_numeric_value(self, repl):
        repl.handle("\\demo")
        text = repl.handle("\\qbe sightings count=60")
        assert "QID =" in text or "0 row(s)" in text

    def test_annotate_and_summaries(self, repl):
        repl.handle("\\demo")
        repl.handle("SELECT name, species FROM birds")
        added = repl.handle("\\annotate birds 1 observed feeding on stonewort")
        assert added.startswith("annotation #")
        text = repl.handle("\\summaries 101 0")
        assert "Classifier-Type" in text

    def test_summaries_reexecutes_a_result_the_cache_does_not_hold(self):
        gate = GateREPL(InsightNotes(cache_bytes=1))
        try:
            gate.handle("\\demo")
            gate.handle("SELECT name, species FROM birds")
            assert 101 not in gate.session.cache
            text = gate.handle("\\summaries 101 0")
            assert "Classifier-Type" in text
            assert gate.session.cache.counters.recomputes == 1
        finally:
            gate.session.close()

    def test_summaries_past_the_plan_record_is_an_error_line(self, repl):
        repl.session.results = ResultRegistry(capacity=1)
        repl.handle("\\demo")
        repl.handle("SELECT name FROM birds")
        repl.handle("SELECT species FROM birds")
        repl.session.cache.invalidate(101)
        assert repl.handle("\\summaries 101 0") == "error: unknown query id: 101"

    def test_annotate_with_columns(self, repl):
        repl.handle("\\demo")
        response = repl.handle("\\annotate birds 1 weight value seems wrong")
        assert response.startswith("annotation #")
        annotation_id = int(response.split("#")[1].split()[0])
        cells = repl.session.annotations.cells_of(annotation_id)
        assert [cell.column for cell in cells] == ["weight"]

    def test_zoomin_through_repl(self, repl):
        repl.handle("\\demo")
        repl.handle("SELECT name FROM birds")
        text = repl.handle("ZOOMIN REFERENCE QID = 101 ON ClassBird1 INDEX 1")
        assert "ZoomIn on ClassBird1" in text

    def test_link_unlink(self, repl):
        repl.handle("\\demo")
        assert "unlinked" in repl.handle("\\unlink SimCluster birds")
        assert "linked" in repl.handle("\\link SimCluster birds")

    def test_trace_toggle(self, repl):
        assert repl.handle("\\trace") == "trace on"
        assert repl.handle("\\trace") == "trace off"

    def test_trace_output_in_sql(self, repl):
        repl.handle("\\demo")
        repl.handle("\\trace")
        text = repl.handle("SELECT name FROM birds LIMIT 1")
        assert "Under the hood" in text

    def test_unknown_command(self, repl):
        assert "unknown command" in repl.handle("\\bogus")

    def test_help(self, repl):
        assert "\\annotate" in repl.handle("\\help")

    def test_quit_raises_system_exit(self, repl):
        with pytest.raises(SystemExit):
            repl.handle("\\quit")

    def test_empty_line_is_silent(self, repl):
        assert repl.handle("   ") == ""


class TestRunScript:
    def test_runs_until_quit(self):
        outputs = run_script(["\\demo", "\\quit", "\\tables"])
        assert len(outputs) == 1  # stops at \quit

    def test_scripted_session(self):
        outputs = run_script([
            "\\demo",
            "SELECT name FROM birds LIMIT 1",
        ])
        assert "demo loaded" in outputs[0]
        assert "QID = 101" in outputs[1]
