"""DDL / DML statements for the InsightNotes dialect.

Completes the SQL surface so a Gate session never needs the Python API
for data definition:

* ``CREATE TABLE name (col, col, ...)`` — columns are untyped, matching
  the engine's dynamic typing;
* ``INSERT INTO name VALUES (lit, ...), (lit, ...), ...``;
* ``DELETE FROM name [WHERE predicate]`` — rows are deleted through the
  full cascade (annotations detach or die, summaries drop), and the
  predicate may use summary functions, so ``DELETE FROM m WHERE
  SUMMARY_COUNT('Beliefs', 'refute') > 3`` is a one-line curation action.

The dispatcher (:func:`execute_statement`) routes SELECT/ZOOMIN to their
existing paths, so ``session.execute(text)`` accepts any statement the
system understands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.expressions import Expression, uses_summaries
from repro.engine.operators import HydrateOperator, Operator, ScanOperator
from repro.engine.sqlparser import _Parser, tokenize_sql
from repro.errors import SQLSyntaxError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.results import QueryResult
    from repro.engine.session import InsightNotes
    from repro.zoomin.executor import ZoomInResult


@dataclass(frozen=True)
class CreateTable:
    """Parsed ``CREATE TABLE`` statement."""

    table: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class InsertInto:
    """Parsed ``INSERT INTO ... VALUES`` statement."""

    table: str
    rows: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class DeleteFrom:
    """Parsed ``DELETE FROM`` statement."""

    table: str
    predicate: Expression | None


Statement = CreateTable | InsertInto | DeleteFrom


class _DDLParser(_Parser):
    """Extends the SELECT parser's machinery for DDL/DML statements."""

    def parse_create_table(self) -> CreateTable:
        self._expect_word("create")
        self._expect_word("table")
        table = self._expect("ident").value
        if "." in table:
            raise SQLSyntaxError(f"table names cannot be qualified: {table!r}")
        self._expect("op", "(")
        columns = [self._expect("ident").value]
        while self._accept("op", ","):
            columns.append(self._expect("ident").value)
        self._expect("op", ")")
        self._expect("eof")
        return CreateTable(table, tuple(columns))

    def parse_insert(self) -> InsertInto:
        self._expect_word("insert")
        self._expect_word("into")
        table = self._expect("ident").value
        self._expect_word("values")
        rows = [self._parse_value_row()]
        while self._accept("op", ","):
            rows.append(self._parse_value_row())
        self._expect("eof")
        return InsertInto(table, tuple(rows))

    def _parse_value_row(self) -> tuple[Any, ...]:
        self._expect("op", "(")
        values = [self._parse_insert_value()]
        while self._accept("op", ","):
            values.append(self._parse_insert_value())
        self._expect("op", ")")
        return tuple(values)

    def _parse_insert_value(self) -> Any:
        if self._accept("keyword", "null"):
            return None
        if self._check("op", "-"):
            self._advance()
            token = self._expect("number")
            return -(float(token.value) if "." in token.value else int(token.value))
        value = self._parse_literal_value()
        return value

    def parse_delete(self) -> DeleteFrom:
        self._expect_word("delete")
        self._expect("keyword", "from")
        table = self._expect("ident").value
        predicate = None
        if self._accept("keyword", "where"):
            predicate = self.parse_expression()
        self._expect("eof")
        return DeleteFrom(table, predicate)

    def _expect_word(self, word: str) -> None:
        """Expect a bare word that is not in the SELECT keyword set."""
        token = self._current
        if token.kind in ("ident", "keyword") and token.value.lower() == word:
            self._advance()
            return
        raise SQLSyntaxError(
            f"expected {word.upper()!r}, found {token.value!r}",
            token.position,
        )


def leading_word(text: str) -> str:
    """Lower-cased first word of a statement (dispatch key)."""
    stripped = text.strip()
    return stripped.split(None, 1)[0].lower() if stripped else ""


def parse_ddl(text: str) -> Statement:
    """Parse a CREATE TABLE / INSERT INTO / DELETE FROM statement."""
    tokens = tokenize_sql(text.strip().rstrip(";"))
    parser = _DDLParser(tokens)
    word = leading_word(text)
    if word == "create":
        return parser.parse_create_table()
    if word == "insert":
        return parser.parse_insert()
    if word == "delete":
        return parser.parse_delete()
    raise SQLSyntaxError(f"unsupported statement: {word!r}")


def execute_statement(
    session: "InsightNotes", text: str
) -> "QueryResult | ZoomInResult | str":
    """Run any statement the dialect understands.

    SELECT returns a :class:`QueryResult`, ZOOMIN a
    :class:`~repro.zoomin.executor.ZoomInResult`; DDL/DML return a short
    status message.
    """
    word = leading_word(text)
    if word == "select":
        return session.query(text)
    if word == "zoomin":
        return session.zoomin(text)
    statement = parse_ddl(text)
    if isinstance(statement, CreateTable):
        session.create_table(statement.table, statement.columns)
        return f"table {statement.table!r} created"
    if isinstance(statement, InsertInto):
        # One batch: a bad row leaves the whole statement uncommitted.
        session.insert_many(statement.table, statement.rows)
        return f"{len(statement.rows)} row(s) inserted into {statement.table!r}"
    assert isinstance(statement, DeleteFrom)
    deleted = _execute_delete(session, statement)
    return f"{deleted} row(s) deleted from {statement.table!r}"


def _execute_delete(session: "InsightNotes", statement: DeleteFrom) -> int:
    """Collect matching row ids (summaries in scope), then cascade-delete."""
    predicate = statement.predicate
    if predicate is not None:
        predicate = session.flatten_predicate(predicate)
    source: Operator = ScanOperator(
        session.db, statement.table, statement.table
    )
    if predicate is not None and uses_summaries(predicate):
        # Only summary-function predicates (SUMMARY_COUNT/GROUP_COUNT)
        # need hydrated rows; plain value predicates run on the raw scan.
        source = HydrateOperator(
            source, session.manager, statement.table, statement.table
        )
    doomed: list[int] = []
    for row in source:
        if predicate is None or predicate.evaluate(row, source.schema):
            ((_table, row_id),) = row.source_rows
            doomed.append(row_id)
    for row_id in doomed:
        session.delete_row(statement.table, row_id)
    return len(doomed)
