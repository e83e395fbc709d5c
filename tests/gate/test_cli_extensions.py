"""Tests for the Gate REPL's extended commands."""

import pytest

from repro.gate.cli import GateREPL


@pytest.fixture
def repl():
    gate = GateREPL()
    gate.handle("\\demo")
    yield gate
    gate.session.close()


class TestStats:
    def test_stats_renders_all_sections(self, repl):
        text = repl.handle("\\stats")
        for key in ("tables:", "annotations:", "maintenance:",
                    "zoomin:", "summarize_once:"):
            assert key in text

    def test_stats_reflect_activity(self, repl):
        before = repl.handle("\\stats")
        repl.handle("\\annotate birds 1 observed feeding on stonewort")
        after = repl.handle("\\stats")
        assert before != after


class TestExplain:
    def test_explain_shows_plan(self, repl):
        text = repl.handle("\\explain SELECT name FROM birds WHERE weight > 5")
        assert "Scan(birds) [pushed: weight > 5]" in text
        assert "Hydrate(birds)" in text

    def test_explain_without_sql(self, repl):
        assert "usage" in repl.handle("\\explain")

    def test_explain_error_reported(self, repl):
        assert repl.handle("\\explain SELECT FROM").startswith("error:")


class TestDeleteAnnotation:
    def test_delete_annotation(self, repl):
        added = repl.handle("\\annotate birds 1 a disposable note")
        annotation_id = added.split("#")[1].split()[0]
        response = repl.handle(f"\\delete-annotation {annotation_id}")
        assert "deleted" in response
        error = repl.handle(f"\\delete-annotation {annotation_id}")
        assert error.startswith("error:")

    def test_usage_message(self, repl):
        assert "usage" in repl.handle("\\delete-annotation notanumber")
        assert "usage" in repl.handle("\\delete-annotation")
