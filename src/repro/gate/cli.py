"""The InsightNotesGate REPL.

A line-oriented front-end over one :class:`~repro.engine.session.InsightNotes`
session.  Plain input is executed as SQL (or as a ZOOMIN command when it
starts with the keyword); backslash commands cover the GUI's other
buttons:

==================  ====================================================
``\\help``           command overview
``\\demo``           load the generated ornithology demo workload
``\\tables``         list tables and row counts
``\\instances``      list summary instances and their links
``\\annotate``       ``\\annotate <table> <row_id> [col,col] <text...>``
``\\summaries``      ``\\summaries <qid> <row#>`` — visualize one row
``\\qbe``            ``\\qbe <table> [col=value ...]`` query-by-example
``\\link``           ``\\link <instance> <table>`` (``\\unlink`` reverses)
``\\trace``          toggle under-the-hood operator tracing
``\\explain``        ``\\explain <sql>`` — show the normalized plan
``\\stats``          session statistics (maintenance, caches, volumes)
``\\delete-annotation``  ``\\delete-annotation <id>``
``\\quit``           exit
==================  ====================================================
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from repro.engine.session import InsightNotes
from repro.errors import InsightNotesError
from repro.gate.render import (
    render_result,
    render_summaries,
    render_trace,
    render_zoomin,
)

_HELP = __doc__ or ""


class GateREPL:
    """Interprets Gate commands against one session."""

    def __init__(self, session: InsightNotes | None = None) -> None:
        self.session = session or InsightNotes()
        self.trace_enabled = False

    # -- command dispatch -------------------------------------------------

    def handle(self, line: str) -> str:
        """Execute one input line; returns the text to display.

        Raises ``SystemExit`` on ``\\quit``.
        """
        line = line.strip()
        if not line:
            return ""
        try:
            if line.startswith("\\"):
                return self._handle_backslash(line)
            if line.lower().lstrip().startswith("zoomin"):
                return render_zoomin(self.session.zoomin(line))
            first_word = line.split(None, 1)[0].lower()
            if first_word in ("create", "insert", "delete"):
                return str(self.session.execute(line))
            return self._run_sql(line)
        except InsightNotesError as error:
            return f"error: {error}"

    def _run_sql(self, sql: str) -> str:
        result = self.session.query(sql, trace=self.trace_enabled)
        output = render_result(result)
        if self.trace_enabled and result.trace is not None:
            output += "\n\nUnder the hood:\n" + render_trace(result.trace)
        return output

    def _handle_backslash(self, line: str) -> str:
        parts = line.split()
        command, args = parts[0].lower(), parts[1:]
        if command in ("\\quit", "\\q", "\\exit"):
            raise SystemExit(0)
        if command == "\\help":
            return _HELP
        if command == "\\demo":
            return self._load_demo()
        if command == "\\tables":
            return self._list_tables()
        if command == "\\instances":
            return self._list_instances()
        if command == "\\trace":
            self.trace_enabled = not self.trace_enabled
            return f"trace {'on' if self.trace_enabled else 'off'}"
        if command == "\\stats":
            return self._show_stats()
        if command == "\\explain":
            sql = line.split(None, 1)[1] if len(parts) > 1 else ""
            if not sql:
                return "usage: \\explain <sql>"
            return self.session.explain(sql)
        if command == "\\delete-annotation":
            if len(args) != 1 or not args[0].isdigit():
                return "usage: \\delete-annotation <id>"
            self.session.delete_annotation(int(args[0]))
            return f"annotation #{args[0]} deleted"
        if command == "\\export":
            if len(args) != 1:
                return "usage: \\export <path>"
            from repro.tools import export_to_file

            export_to_file(self.session, args[0])
            return f"database exported to {args[0]}"
        if command == "\\annotate":
            return self._annotate(args, line)
        if command == "\\summaries":
            return self._show_summaries(args)
        if command == "\\qbe":
            return self._qbe(args)
        if command == "\\link":
            return self._link(args, unlink=False)
        if command == "\\unlink":
            return self._link(args, unlink=True)
        return f"unknown command {command!r}; try \\help"

    # -- individual commands ----------------------------------------------

    def _load_demo(self) -> str:
        from repro.workloads.generator import WorkloadConfig, build_workload

        if self.session.db.tables():
            return "error: session already has tables; \\demo needs a fresh session"
        workload = build_workload(
            WorkloadConfig(num_birds=8, num_sightings=16, annotations_per_row=12),
            session=self.session,
        )
        return (
            f"demo loaded: {len(workload.bird_rows)} birds, "
            f"{len(workload.sighting_rows)} sightings, "
            f"{workload.annotation_count} annotations, "
            f"instances: {', '.join(workload.instance_names())}"
        )

    def _list_tables(self) -> str:
        tables = self.session.db.tables()
        if not tables:
            return "(no tables; try \\demo)"
        return "\n".join(
            f"{table} ({self.session.db.row_count(table)} rows): "
            + ", ".join(self.session.db.columns(table))
            for table in tables
        )

    def _show_stats(self) -> str:
        lines = []
        for key, value in self.session.statistics().items():
            if isinstance(value, dict):
                lines.append(f"{key}:")
                lines.extend(f"  {k}: {_fmt_stat(v)}" for k, v in value.items())
            else:
                lines.append(f"{key}: {_fmt_stat(value)}")
        return "\n".join(lines)

    def _list_instances(self) -> str:
        catalog = self.session.catalog
        names = catalog.instance_names()
        if not names:
            return "(no summary instances defined)"
        links: dict[str, list[str]] = {}
        for instance, table in catalog.links():
            links.setdefault(instance, []).append(table)
        lines = []
        for name in names:
            instance = catalog.get_instance(name)
            linked = ", ".join(links.get(name, [])) or "(unlinked)"
            lines.append(f"{instance.describe()} -> {linked}")
        return "\n".join(lines)

    def _annotate(self, args: list[str], line: str) -> str:
        if len(args) < 3:
            return "usage: \\annotate <table> <row_id> [col,col] <text...>"
        table, row_text = args[0], args[1]
        if not row_text.isdigit():
            return f"error: row_id must be an integer, got {row_text!r}"
        row_id = int(row_text)
        columns: list[str] | None = None
        words_before_text = 3  # \annotate, table, row_id
        table_columns = set(self.session.db.columns(table))
        if len(args) > 3 and set(args[2].split(",")) <= table_columns:
            columns = args[2].split(",")
            words_before_text = 4
        text = line.split(None, words_before_text)[-1]
        annotation = self.session.add_annotation(
            text, table=table, row_id=row_id, columns=columns
        )
        return f"annotation #{annotation.annotation_id} added"

    def _show_summaries(self, args: list[str]) -> str:
        if len(args) != 2 or not all(a.isdigit() for a in args):
            return "usage: \\summaries <qid> <row#>"
        qid, position = int(args[0]), int(args[1])
        result = self.session.result(qid)
        if not 0 <= position < len(result.tuples):
            return f"error: row# must be in [0, {len(result.tuples) - 1}]"
        return render_summaries(result.tuples[position])

    def _qbe(self, args: list[str]) -> str:
        if not args:
            return "usage: \\qbe <table> [col=value ...]"
        table = args[0]
        predicates = []
        for pair in args[1:]:
            if "=" not in pair:
                return f"error: QBE field {pair!r} must be col=value"
            column, value = pair.split("=", 1)
            rendered = value if _is_number(value) else f"'{value}'"
            predicates.append(f"{column} = {rendered}")
        sql = f"SELECT * FROM {table}"
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        return self._run_sql(sql)

    def _link(self, args: list[str], unlink: bool) -> str:
        if len(args) != 2:
            verb = "unlink" if unlink else "link"
            return f"usage: \\{verb} <instance> <table>"
        instance, table = args
        if unlink:
            self.session.unlink(instance, table)
            return f"unlinked {instance} from {table}"
        self.session.link(instance, table)
        return f"linked {instance} to {table} (existing rows summarized)"


def _fmt_stat(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def run_script(lines: Iterable[str], session: InsightNotes | None = None) -> list[str]:
    """Run Gate commands non-interactively; returns per-line outputs."""
    repl = GateREPL(session)
    outputs = []
    for line in lines:
        try:
            outputs.append(repl.handle(line))
        except SystemExit:
            break
    return outputs


def main() -> int:  # pragma: no cover - interactive entry point
    """Interactive entry point (``insightnotes-gate``)."""
    repl = GateREPL()
    print("InsightNotesGate — type \\help for commands, \\demo for sample data")
    while True:
        try:
            line = input("insightnotes> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            output = repl.handle(line)
        except SystemExit:
            return 0
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
