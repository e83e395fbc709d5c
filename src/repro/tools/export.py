"""Portable export / import of annotated databases.

The export format is a single JSON document capturing everything a peer
needs to reproduce the database: table schemas and rows (with their
rowids — annotation attachments are keyed on them), the raw annotations
with cell attachments, and the summary-instance definitions and links
(including trained classifier models, which live in the instance config).

Summary *state* is deliberately not exported: it is derived data, and the
import path rebuilds it by replaying every annotation through the
maintenance layer — which doubles as an end-to-end consistency check of
the summarization pipeline on the receiving side.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.engine.session import InsightNotes
from repro.errors import InsightNotesError
from repro.model.annotation import AnnotationKind
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationDraft
from repro.summaries.registry import SummaryTypeRegistry

#: Format version stamped into every export.
FORMAT_VERSION = 1


def export_database(session: InsightNotes) -> dict[str, Any]:
    """Capture ``session``'s full annotated database as a JSON-able dict."""
    db = session.db
    tables = [
        {
            "name": table,
            "columns": list(db.columns(table)),
            "rows": [
                {"row_id": row_id, "values": list(values)}
                for row_id, values in db.rows(table)
            ],
        }
        for table in db.tables()
    ]
    annotations = [
        {
            "annotation_id": annotation.annotation_id,
            "text": annotation.text,
            "author": annotation.author,
            "created_at": annotation.created_at,
            "kind": annotation.kind.value,
            "title": annotation.title,
            "cells": [
                {"table": cell.table, "row_id": cell.row_id,
                 "column": cell.column}
                for cell in session.annotations.cells_of(
                    annotation.annotation_id
                )
            ],
        }
        for annotation in session.annotations.iter_all()
    ]
    instances = []
    for name in session.catalog.instance_names():
        instance = session.catalog.get_instance(name)
        instances.append(
            {
                "name": name,
                "type": instance.type_name,
                "config": instance.config(),
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "tables": tables,
        "annotations": annotations,
        "instances": instances,
        "links": [
            {"instance": instance, "table": table}
            for instance, table in session.catalog.links()
        ],
    }


def import_database(
    data: dict[str, Any],
    path: str = ":memory:",
    registry: SummaryTypeRegistry | None = None,
) -> InsightNotes:
    """Rebuild a session from an export, re-summarizing everything.

    Rows and annotations keep their exported ids: each table is one
    ``insert_many`` with pinned rowids, and all annotations are one
    ``add_many`` batch of pinned drafts.  The batch is then folded in
    through the live ingest path (``SummaryManager.add_annotations``) in
    id order, so the imported summaries are guaranteed consistent with
    the raw annotations (and with what a fresh deployment would compute).
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise InsightNotesError(
            f"unsupported export format version: {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    session = InsightNotes(path, registry=registry)
    for table in data.get("tables", []):
        session.create_table(table["name"], table["columns"])
        session.db.insert_many(
            table["name"],
            [row["values"] for row in table["rows"]],
            row_ids=[row["row_id"] for row in table["rows"]],
        )
    for instance in data.get("instances", []):
        session.define_instance(
            instance["type"], instance["name"], instance["config"]
        )
    for link in data.get("links", []):
        session.catalog.link(link["instance"], link["table"])
    drafts = [
        AnnotationDraft(
            text=entry["text"],
            cells=tuple(
                CellRef(cell["table"], cell["row_id"], cell["column"])
                for cell in entry["cells"]
            ),
            author=entry.get("author", "anonymous"),
            kind=AnnotationKind(entry.get("kind", "comment")),
            title=entry.get("title", ""),
            created_at=entry.get("created_at"),
            annotation_id=entry["annotation_id"],
        )
        for entry in sorted(
            data.get("annotations", []), key=lambda a: a["annotation_id"]
        )
    ]
    stored = session.annotations.add_many(drafts)
    session.manager.add_annotations(
        [(annotation, draft.cells) for annotation, draft in zip(stored, drafts)]
    )
    return session


def export_to_file(session: InsightNotes, path: str | pathlib.Path) -> None:
    """Write :func:`export_database` output as JSON to ``path``."""
    payload = export_database(session)
    pathlib.Path(path).write_text(json.dumps(payload, indent=1))


def import_from_file(
    path: str | pathlib.Path,
    db_path: str = ":memory:",
    registry: SummaryTypeRegistry | None = None,
) -> InsightNotes:
    """Rebuild a session from a JSON export file."""
    data = json.loads(pathlib.Path(path).read_text())
    return import_database(data, path=db_path, registry=registry)
