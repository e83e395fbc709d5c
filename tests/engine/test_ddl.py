"""Tests for the DDL/DML statements and the execute() dispatcher."""

import pytest

from repro import InsightNotes
from repro.engine.ddl import CreateTable, DeleteFrom, InsertInto, parse_ddl
from repro.errors import SchemaError, SQLSyntaxError, StorageError
from tests.conftest import TRAINING


@pytest.fixture
def stack():
    notes = InsightNotes()
    yield notes
    notes.close()


class TestParsing:
    def test_create_table(self):
        statement = parse_ddl("CREATE TABLE birds (name, weight);")
        assert statement == CreateTable("birds", ("name", "weight"))

    def test_insert_multiple_rows(self):
        statement = parse_ddl(
            "INSERT INTO t VALUES ('a', 1), ('b', 2.5), (NULL, -7)"
        )
        assert isinstance(statement, InsertInto)
        assert statement.rows == (("a", 1), ("b", 2.5), (None, -7))

    def test_delete_with_predicate(self):
        statement = parse_ddl("DELETE FROM t WHERE a > 1 AND b = 'x'")
        assert isinstance(statement, DeleteFrom)
        assert statement.predicate is not None

    def test_delete_without_predicate(self):
        assert parse_ddl("DELETE FROM t").predicate is None

    def test_unsupported_statement(self):
        with pytest.raises(SQLSyntaxError, match="unsupported"):
            parse_ddl("DROP TABLE t")

    def test_qualified_table_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_ddl("CREATE TABLE db.t (a)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_ddl("CREATE TABLE t (a) nonsense")

    def test_insert_rejects_expressions(self):
        with pytest.raises(SQLSyntaxError, match="literal"):
            parse_ddl("INSERT INTO t VALUES (a + 1)")


class TestExecution:
    def test_create_insert_select_cycle(self, stack):
        stack.execute("CREATE TABLE m (station, value)")
        stack.execute("INSERT INTO m VALUES ('s1', 10), ('s2', 20)")
        result = stack.execute("SELECT station FROM m ORDER BY station")
        assert result.rows() == [("s1",), ("s2",)]

    def test_create_duplicate_table_errors(self, stack):
        stack.execute("CREATE TABLE m (a)")
        with pytest.raises(StorageError, match="already exists"):
            stack.execute("CREATE TABLE m (a)")

    def test_insert_arity_checked(self, stack):
        stack.execute("CREATE TABLE m (a, b)")
        with pytest.raises(Exception):
            stack.execute("INSERT INTO m VALUES (1)")

    def test_multi_row_insert_is_atomic(self, stack):
        stack.execute("CREATE TABLE t (a, b)")
        stack.execute("INSERT INTO t VALUES (0, 0)")
        with pytest.raises(SchemaError):
            stack.execute("INSERT INTO t VALUES (1, 2), (3)")
        # The good first row must not be committed without the bad one.
        assert stack.db.row_count("t") == 1

    def test_delete_cascades_annotations(self, stack):
        stack.execute("CREATE TABLE m (station, value)")
        stack.execute("INSERT INTO m VALUES ('s1', 10)")
        stack.define_classifier("B", ["refute", "approve"],
                                [("wrong", "refute"), ("fine", "approve")])
        stack.link("B", "m")
        stack.add_annotation("wrong wrong", table="m", row_id=1)
        message = stack.execute("DELETE FROM m WHERE station = 's1'")
        assert "1 row(s) deleted" in message
        assert stack.annotations.count() == 0

    def test_delete_with_summary_predicate(self, stack):
        stack.execute("CREATE TABLE m (station, value)")
        stack.execute("INSERT INTO m VALUES ('good', 1), ('bad', 2)")
        stack.define_classifier("B", ["refute", "approve"],
                                [("wrong value", "refute"),
                                 ("confirmed fine", "approve")])
        stack.link("B", "m")
        stack.add_annotation("wrong value", table="m", row_id=2)
        stack.execute("DELETE FROM m WHERE SUMMARY_COUNT('B', 'refute') > 0")
        assert stack.execute("SELECT station FROM m").rows() == [("good",)]

    def test_delete_with_in_subquery(self, stack):
        stack.execute("CREATE TABLE birds (name, species)")
        stack.execute("CREATE TABLE banned (species)")
        stack.execute(
            "INSERT INTO birds VALUES ('Swan', 'cygnus'), ('Goose', 'anser')"
        )
        stack.execute("INSERT INTO banned VALUES ('anser')")
        message = stack.execute(
            "DELETE FROM birds WHERE species IN (SELECT species FROM banned)"
        )
        assert "1 row(s) deleted" in message
        assert stack.execute("SELECT name FROM birds").rows() == [("Swan",)]

    def test_execute_dispatches_select_and_zoomin(self, stack):
        stack.execute("CREATE TABLE m (v)")
        stack.execute("INSERT INTO m VALUES ('x')")
        stack.define_classifier("B", ["a", "b"], [("one", "a"), ("two", "b")])
        stack.link("B", "m")
        stack.add_annotation("one", table="m", row_id=1)
        result = stack.execute("SELECT v FROM m")
        zoom = stack.execute(f"ZOOMIN REFERENCE QID = {result.qid} ON B INDEX 1")
        assert zoom.annotation_count() == 1


class TestGateIntegration:
    def test_full_sql_session_through_repl(self):
        from repro.gate.cli import run_script

        outputs = run_script([
            "CREATE TABLE m (station, value)",
            "INSERT INTO m VALUES ('s1', 10), ('s2', 99)",
            "SELECT station, value FROM m ORDER BY value DESC",
            "DELETE FROM m WHERE value > 50",
            "SELECT station FROM m",
        ])
        assert "created" in outputs[0]
        assert "2 row(s) inserted" in outputs[1]
        assert "QID" in outputs[2]
        assert "1 row(s) deleted" in outputs[3]
        assert "s1" in outputs[4]
