"""Raw annotation storage with cell-level attachments.

Annotations are stored once and attached to any number of cells — possibly
across tuples and tables (the same observation may apply to several birds).
The attachment table is indexed both ways: by annotation (for projection
semantics and deletion) and by cell (for summarization and zoom-in).

There is one write path, :meth:`AnnotationStore.add_many`; a single
:meth:`AnnotationStore.add` is a batch of one, and a pinned id (import
tooling) rides on its draft.  The store builds each batch's inserts as
per-shard statement lists and hands them to
:meth:`~repro.storage.database.Database.commit_shards`.

Under a sharded backend an annotation's body and its attachment edges
are **co-located** on ``shard_of_annotation(annotation_id)``, which
slices the id space into blocks so a bulk batch of consecutive ids
lands on one shard (two at a block boundary).  That is the write path's
affinity: concurrent ingest threads commit whole batches on *disjoint*
shard locks instead of scattering every batch over every shard.  The
price is paid by per-row attachment lookups, which fan out across
shards — an acceptable trade, because the hot block-fetch path
(``attachments_for_rows``) already touches every shard either way: a
block of consecutive rowids hashes onto all of them.

Ids come from a small sequence table on the meta shard, reserved in
per-thread runs so the sequence row is touched once per run rather than
once per batch.  The sequence is never decremented, preserving
AUTOINCREMENT's no-reuse rule (a deleted annotation's id is never
recycled) across shard files — but, like any cached sequence, ids may
skip a partial run when a writer thread retires or the store reopens.
Within one thread ids stay contiguous, so a sequential history produces
exactly the ids the single-file path would.  The single-file path
assigns what SQLite's AUTOINCREMENT would, probed inside the batch's
transaction.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.concurrency import make_lock
from repro.errors import AnnotationError, UnknownAnnotationError
from repro.model.annotation import Annotation, AnnotationKind
from repro.model.cell import CellRef
from repro.storage.backend import META_SHARD
from repro.storage.database import Database, ShardStatement
from repro.storage.schema import SYSTEM_PREFIX
from repro.storage.sqlsafe import placeholders

_ANNOTATIONS_TABLE = f"{SYSTEM_PREFIX}annotations"
_ATTACHMENTS_TABLE = f"{SYSTEM_PREFIX}attachments"
_IDSEQ_TABLE = f"{SYSTEM_PREFIX}idseq"

#: Sharded stores reserve annotation ids from the meta shard in runs of
#: this size per thread, so bulk ingest touches the sequence row once
#: per run instead of once per batch (the sequence transaction is the
#: one write every ingest thread would otherwise queue on).  Equal to
#: ``ANNOTATION_BLOCK`` so one granted run covers exactly one placement
#: block: every batch cut from a run lands on a single shard.
_ID_RUN = 128

_INSERT_BODIES = f"""
    INSERT INTO {_ANNOTATIONS_TABLE}
        (annotation_id, body, author, created_at, kind, title)
    VALUES (?, ?, ?, ?, ?, ?)
"""
_INSERT_EDGES = f"""
    INSERT OR IGNORE INTO {_ATTACHMENTS_TABLE}
        (annotation_id, table_name, row_id, column_name)
    VALUES (?, ?, ?, ?)
"""


@dataclass(frozen=True)
class AnnotationDraft:
    """One not-yet-stored annotation, as the bulk insert path takes it.

    A plain value object mirroring :meth:`AnnotationStore.add`'s
    parameters, so a whole batch can be validated up front and written
    with two ``executemany`` calls in a single transaction.
    ``annotation_id`` pins the id (import tooling); a batch pins every
    id or none.
    """

    text: str
    cells: tuple[CellRef, ...]
    author: str = "anonymous"
    kind: AnnotationKind = AnnotationKind.COMMENT
    title: str = ""
    created_at: float | None = None
    annotation_id: int | None = None

    def __post_init__(self) -> None:
        # Accept any sequence of cells; store a tuple.
        object.__setattr__(self, "cells", tuple(self.cells))


class AnnotationStore:
    """Persistent store of raw annotations and their attachments."""

    def __init__(self, database: Database) -> None:
        self._db = database
        for shard in range(database.shard_count):
            with database.transaction(shard) as connection:
                connection.execute(
                    f"""
                    CREATE TABLE IF NOT EXISTS {_ANNOTATIONS_TABLE} (
                        annotation_id INTEGER PRIMARY KEY AUTOINCREMENT,
                        body TEXT NOT NULL,
                        author TEXT NOT NULL,
                        created_at REAL NOT NULL,
                        kind TEXT NOT NULL,
                        title TEXT NOT NULL DEFAULT ''
                    )
                    """
                )
                connection.execute(
                    f"""
                    CREATE TABLE IF NOT EXISTS {_ATTACHMENTS_TABLE} (
                        annotation_id INTEGER NOT NULL,
                        table_name TEXT NOT NULL,
                        row_id INTEGER NOT NULL,
                        column_name TEXT NOT NULL,
                        PRIMARY KEY (annotation_id, table_name, row_id, column_name)
                    )
                    """
                )
                connection.execute(
                    f"""
                    CREATE INDEX IF NOT EXISTS {_ATTACHMENTS_TABLE}_by_cell
                    ON {_ATTACHMENTS_TABLE} (table_name, row_id)
                    """
                )
        # Per-thread cached id runs (see _reserve_ids); the lock guards
        # the meta-shard sequence row against concurrent run grants.
        self._id_local = threading.local()
        self._id_lock = make_lock("annotations.id_sequence", guards_io=True)
        if database.shard_count > 1:
            with database.transaction(META_SHARD) as connection:
                connection.execute(
                    f"""
                    CREATE TABLE IF NOT EXISTS {_IDSEQ_TABLE} (
                        name TEXT PRIMARY KEY,
                        seq INTEGER NOT NULL
                    )
                    """
                )
            # Reopening an existing store: the sequence must start past
            # every annotation id already persisted on any shard.
            max_id = 0
            for shard in range(database.shard_count):
                row = database.fetch_one(
                    f"SELECT COALESCE(MAX(annotation_id), 0) "
                    f"FROM {_ANNOTATIONS_TABLE}",
                    shard=shard,
                )
                assert row is not None
                max_id = max(max_id, row[0])
            if max_id:
                self._pin_id(max_id)

    # -- shard routing ------------------------------------------------

    def _ann_shard(self, annotation_id: int) -> int:
        return self._db.backend.shard_of_annotation(annotation_id)

    def _all_shards(self) -> range:
        return range(self._db.shard_count)

    def _validate_cells(self, cells: Sequence[CellRef]) -> None:
        if not cells:
            raise AnnotationError(
                "an annotation must attach to at least one cell"
            )
        for cell in cells:
            schema = self._db.schema(cell.table)
            if not schema.has_column(cell.column):
                raise AnnotationError(
                    f"cannot attach to unknown column {cell.table}.{cell.column}"
                )

    # -- id allocation (sharded) ---------------------------------------

    def _reserve_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive annotation ids; returns the first.

        Ids come out of a per-thread cached run (granted in
        :data:`_ID_RUN`-sized slices from the meta-shard sequence row),
        so most batches reserve without touching SQLite at all — the
        sequence transaction is the one write every ingest thread would
        otherwise serialize on.  When a run is exhausted it is extended
        *contiguously* whenever no other thread reserved in between, so
        a single-threaded history yields the exact gap-free ids the
        single-file AUTOINCREMENT path assigns.  The sequence row is
        never decremented — like ``sqlite_sequence``, deleting the max
        annotation never recycles its id — but a partial run is dropped
        when its thread retires or the store reopens, so ids may skip
        (the standard cached-sequence caveat).
        """
        state = self._id_local
        next_id = getattr(state, "next_id", 0)
        top = getattr(state, "top", -1)
        if top - next_id + 1 >= count:
            state.next_id = next_id + count
            return next_id
        with self._id_lock, self._db.transaction(META_SHARD) as connection:
            row = connection.execute(
                f"SELECT seq FROM {_IDSEQ_TABLE} WHERE name = ?",
                (_ANNOTATIONS_TABLE,),
            ).fetchone()
            current = row[0] if row is not None else 0
            available = top - next_id + 1
            if available > 0 and top == current:
                # Our run still ends the sequence: extend it in place so
                # the remaining cached ids stay usable with no gap.
                first = next_id
            else:
                first = current + 1
                available = 0
            grant = max(_ID_RUN, count - available)
            connection.execute(
                f"INSERT INTO {_IDSEQ_TABLE} (name, seq) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET seq = excluded.seq",
                (_ANNOTATIONS_TABLE, current + grant),
            )
            state.next_id = first + count
            state.top = current + grant
            return first

    def _pin_id(self, annotation_id: int) -> None:
        """Raise the sequence floor past an explicitly pinned id.

        Also invalidates this thread's cached run when the pinned id
        lands inside or beyond it, so later reservations never re-issue
        the pinned id.  (A pin landing inside *another* thread's
        outstanding run is not detectable — explicit-id imports must not
        run concurrently with bulk ingest, as documented on :meth:`add_many`.)
        """
        with self._id_lock, self._db.transaction(META_SHARD) as connection:
            connection.execute(
                f"INSERT INTO {_IDSEQ_TABLE} (name, seq) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "seq = MAX(seq, excluded.seq)",
                (_ANNOTATIONS_TABLE, annotation_id),
            )
            state = self._id_local
            if annotation_id >= getattr(state, "next_id", 0):
                state.next_id = annotation_id + 1
                state.top = max(getattr(state, "top", -1), annotation_id)

    # -- writes -----------------------------------------------------

    def add(
        self,
        text: str,
        cells: Sequence[CellRef],
        author: str = "anonymous",
        kind: AnnotationKind = AnnotationKind.COMMENT,
        title: str = "",
        created_at: float | None = None,
        annotation_id: int | None = None,
    ) -> Annotation:
        """Store an annotation attached to ``cells``; returns it with id.

        At least one cell is required — a dangling annotation would never
        be summarized, propagated, or reachable by zoom-in.  An explicit
        ``annotation_id`` pins the id (import tooling must reproduce ids
        exactly, gaps included).  A batch of one through :meth:`add_many`.
        """
        draft = AnnotationDraft(
            text, tuple(cells), author, kind, title, created_at, annotation_id
        )
        return self.add_many([draft])[0]

    def add_many(self, drafts: Sequence[AnnotationDraft]) -> list[Annotation]:
        """Store a batch of annotations; returns them in draft order.

        A batch pins every id (``AnnotationDraft.annotation_id``) or none;
        unpinned ids are assigned contiguously in draft order, so a batch
        produces exactly the ids a loop of single adds would.  The batch
        is validated up front and written with one ``executemany`` per
        table.  Single-file, the batch is all-or-nothing; sharded, the
        batch's consecutive ids give it a home shard (two at a block
        boundary), the rows go out through
        :meth:`~repro.storage.database.Database.commit_shards`, and
        atomicity is per shard — see DESIGN.md §11 for the cross-shard
        caveat.  On a sharded store, pinned-id imports must not run
        concurrently with bulk ingest: a pinned id cannot be evicted
        from another thread's already-reserved id run.
        """
        if not drafts:
            return []
        pinned = [
            draft.annotation_id
            for draft in drafts
            if draft.annotation_id is not None
        ]
        if pinned and len(pinned) != len(drafts):
            raise AnnotationError(
                "a batch must pin every annotation id or none"
            )
        for draft in drafts:
            self._validate_cells(draft.cells)
        now = time.time()
        ids: Sequence[int] = pinned
        if self._db.shard_count > 1:
            if pinned:
                self._pin_id(max(pinned))
            else:
                first = self._reserve_ids(len(drafts))
                ids = range(first, first + len(drafts))
            annotations, batches = self._batch_rows(drafts, ids, now)
            self._db.commit_shards(batches)
            return annotations
        with self._db.transaction() as connection:
            if not pinned:
                # The id probe must run on the writer inside this
                # transaction (a pooled reader only sees committed state).
                first = self._next_annotation_id(connection)
                ids = range(first, first + len(drafts))
            annotations, batches = self._batch_rows(drafts, ids, now)
            (statements,) = batches.values()  # single-file: one shard
            for sql, rows in statements:
                connection.executemany(sql, rows)
        return annotations

    def _batch_rows(
        self, drafts: Sequence[AnnotationDraft], ids: Sequence[int], now: float
    ) -> tuple[list[Annotation], dict[int, list[ShardStatement]]]:
        """A batch whose ids are decided: its annotations, and the body
        and attachment inserts grouped by home shard (bodies and
        attachments are co-located).  ``now`` stamps undated drafts."""
        annotations: list[Annotation] = []
        by_shard: dict[int, tuple[list[tuple], list[tuple]]] = {}
        for annotation_id, draft in zip(ids, drafts):
            timestamp = now if draft.created_at is None else draft.created_at
            bodies, edges = by_shard.setdefault(
                self._ann_shard(annotation_id), ([], [])
            )
            bodies.append(
                (annotation_id, draft.text, draft.author, timestamp,
                 draft.kind.value, draft.title)
            )
            edges.extend(
                (annotation_id, cell.table, cell.row_id, cell.column)
                for cell in draft.cells
            )
            annotations.append(
                Annotation(
                    annotation_id=annotation_id,
                    text=draft.text,
                    author=draft.author,
                    created_at=timestamp,
                    kind=draft.kind,
                    title=draft.title,
                )
            )
        return annotations, {
            shard: [(_INSERT_BODIES, bodies), (_INSERT_EDGES, edges)]
            for shard, (bodies, edges) in by_shard.items()
        }

    def _next_annotation_id(self, connection: sqlite3.Connection) -> int:
        """First free annotation id, honouring AUTOINCREMENT's no-reuse rule.

        The sqlite_sequence entry outlives deletions of the max row, so a
        bulk insert never recycles the id of a deleted annotation (which
        stale summary references might still name).  The MAX() fallback
        covers explicitly pinned ids that may run ahead of the sequence.
        Runs on the caller's (writer) connection: the probe sits inside
        the batch's open transaction and must see its uncommitted state.
        """
        try:
            row = connection.execute(
                "SELECT seq FROM sqlite_sequence WHERE name = ?",
                (_ANNOTATIONS_TABLE,),
            ).fetchone()
        except sqlite3.OperationalError:  # no AUTOINCREMENT insert yet
            row = None
        sequence = row[0] if row is not None else 0
        (max_id,) = connection.execute(
            f"SELECT COALESCE(MAX(annotation_id), 0) FROM {_ANNOTATIONS_TABLE}"
        ).fetchone()
        return max(sequence, max_id) + 1

    def update(
        self,
        annotation_id: int,
        text: str | None = None,
        title: str | None = None,
    ) -> Annotation:
        """Rewrite an annotation's body and/or title; returns the result.

        The id, author, timestamp, kind, and attachments are preserved, so
        references from summaries and zoom-in stay valid — the caller is
        responsible for re-summarizing (see
        :meth:`repro.engine.session.InsightNotes.update_annotation`).
        """
        current = self.get(annotation_id)  # raises for unknown ids
        new_text = current.text if text is None else text
        new_title = current.title if title is None else title
        with self._db.transaction(self._ann_shard(annotation_id)) as connection:
            connection.execute(
                f"""
                UPDATE {_ANNOTATIONS_TABLE} SET body = ?, title = ?
                WHERE annotation_id = ?
                """,
                (new_text, new_title, annotation_id),
            )
        return Annotation(
            annotation_id=annotation_id,
            text=new_text,
            author=current.author,
            created_at=current.created_at,
            kind=current.kind,
            title=new_title,
        )

    def detach_row(self, annotation_id: int, table: str, row_id: int) -> None:
        """Remove one annotation's attachments to a single base row.

        Used when a base row is deleted but the annotation also covers
        other rows and must survive there.  One transaction on the
        annotation's home shard, where all its attachments live.
        """
        with self._db.transaction(self._ann_shard(annotation_id)) as connection:
            connection.execute(
                f"""
                DELETE FROM {_ATTACHMENTS_TABLE}
                WHERE annotation_id = ? AND table_name = ? AND row_id = ?
                """,
                (annotation_id, table, row_id),
            )

    def delete(self, annotation_id: int) -> None:
        """Remove an annotation and all its attachments.

        Body and attachments are co-located, so the purge is one
        transaction on the annotation's home shard.
        """
        self.get(annotation_id)  # raises for unknown ids
        with self._db.transaction(self._ann_shard(annotation_id)) as connection:
            connection.execute(
                f"DELETE FROM {_ATTACHMENTS_TABLE} WHERE annotation_id = ?",
                (annotation_id,),
            )
            connection.execute(
                f"DELETE FROM {_ANNOTATIONS_TABLE} WHERE annotation_id = ?",
                (annotation_id,),
            )

    # -- reads --------------------------------------------------------

    def get(self, annotation_id: int) -> Annotation:
        """Fetch one annotation or raise :class:`UnknownAnnotationError`."""
        row = self._db.fetch_one(
            f"""
            SELECT annotation_id, body, author, created_at, kind, title
            FROM {_ANNOTATIONS_TABLE} WHERE annotation_id = ?
            """,
            (annotation_id,),
            shard=self._ann_shard(annotation_id),
        )
        if row is None:
            raise UnknownAnnotationError(annotation_id)
        return _annotation_from_row(row)

    def get_many(self, annotation_ids: Iterable[int]) -> list[Annotation]:
        """Fetch annotations by id, in ascending id order.

        Unknown ids raise, matching :meth:`get` — zoom-in must never
        silently return fewer annotations than a summary promised.
        Sharded stores group the ids by home shard first, so each chunk
        is a single-shard IN-list.
        """
        wanted = sorted(set(annotation_ids))
        by_shard: dict[int, list[int]] = {}
        for annotation_id in wanted:
            by_shard.setdefault(self._ann_shard(annotation_id), []).append(
                annotation_id
            )
        found: dict[int, Annotation] = {}
        for shard in sorted(by_shard):
            ids = by_shard[shard]
            # Chunked IN-lists keep us under SQLite's bound-variable limit.
            for chunk_start in range(0, len(ids), 500):
                chunk = ids[chunk_start : chunk_start + 500]
                marks = placeholders(len(chunk))
                rows = self._db.fetch_all(
                    f"""
                    SELECT annotation_id, body, author, created_at, kind, title
                    FROM {_ANNOTATIONS_TABLE}
                    WHERE annotation_id IN ({marks})
                    ORDER BY annotation_id
                    """,
                    chunk,
                    shard=shard,
                )
                for row in rows:
                    found[row[0]] = _annotation_from_row(row)
        missing = next((i for i in wanted if i not in found), None)
        if missing is not None:
            raise UnknownAnnotationError(missing)
        return [found[annotation_id] for annotation_id in wanted]

    def count(self) -> int:
        """Total number of stored annotations."""
        total = 0
        for shard in self._all_shards():
            row = self._db.fetch_one(
                f"SELECT COUNT(*) FROM {_ANNOTATIONS_TABLE}", shard=shard
            )
            assert row is not None
            total += row[0]
        return total

    def total_text_bytes(self) -> int:
        """Total size of all annotation bodies (storage benchmark)."""
        total = 0
        for shard in self._all_shards():
            row = self._db.fetch_one(
                f"SELECT COALESCE(SUM(LENGTH(body)), 0) "
                f"FROM {_ANNOTATIONS_TABLE}",
                shard=shard,
            )
            assert row is not None
            total += row[0]
        return total

    def table_attachment_count(self, table: str) -> int:
        """Attachment rows targeting ``table`` (planner statistics)."""
        total = 0
        for shard in self._all_shards():
            row = self._db.fetch_one(
                f"SELECT COUNT(*) FROM {_ATTACHMENTS_TABLE} "
                "WHERE table_name = ?",
                (table,),
                shard=shard,
            )
            assert row is not None
            total += row[0]
        return total

    def table_has_attachments(self, table: str) -> bool:
        """Whether any annotation attaches to ``table``.

        The planner's summary-aware aggregation pushdown must keep the
        in-engine path whenever hydration could contribute summaries
        *or* attachments; this is the cheap existence probe for the
        latter (the by_cell index makes it an index seek).
        """
        for shard in self._all_shards():
            row = self._db.fetch_one(
                f"SELECT 1 FROM {_ATTACHMENTS_TABLE} "
                "WHERE table_name = ? LIMIT 1",
                (table,),
                shard=shard,
            )
            if row is not None:
                return True
        return False

    def iter_all(self) -> Iterator[Annotation]:
        """Iterate over every stored annotation in id order."""
        rows: list[tuple] = []
        for shard in self._all_shards():
            rows.extend(
                self._db.fetch_all(
                    f"""
                    SELECT annotation_id, body, author, created_at, kind, title
                    FROM {_ANNOTATIONS_TABLE} ORDER BY annotation_id
                    """,
                    shard=shard,
                )
            )
        rows.sort(key=lambda row: row[0])
        for row in rows:
            yield _annotation_from_row(row)

    # -- attachment queries ----------------------------------------------

    def cells_of(self, annotation_id: int) -> list[CellRef]:
        """All cells the annotation is attached to.

        One query on the annotation's home shard, which carries all of
        its attachment edges.
        """
        rows = self._db.fetch_all(
            f"""
            SELECT table_name, row_id, column_name
            FROM {_ATTACHMENTS_TABLE} WHERE annotation_id = ?
            ORDER BY table_name, row_id, column_name
            """,
            (annotation_id,),
            shard=self._ann_shard(annotation_id),
        )
        return [CellRef(table, row_id, column) for table, row_id, column in rows]

    def attachment_count(self, annotation_id: int) -> int:
        """How many distinct base rows the annotation attaches to."""
        row = self._db.fetch_one(
            f"""
            SELECT COUNT(DISTINCT table_name || '/' || row_id)
            FROM {_ATTACHMENTS_TABLE} WHERE annotation_id = ?
            """,
            (annotation_id,),
            shard=self._ann_shard(annotation_id),
        )
        assert row is not None
        return row[0]

    def annotations_for_row(
        self, table: str, row_id: int
    ) -> list[tuple[Annotation, frozenset[str]]]:
        """Annotations on a base row with their attached column sets.

        Single-file this is one JOIN; sharded it is two steps — collect
        the row's attachment edges (a fan-out, since each edge lives on
        its annotation's shard), then bulk-fetch the bodies per shard.
        """
        if self._db.shard_count > 1:
            attachments = self.attachments_for_row(table, row_id)
            return [
                (annotation, attachments[annotation.annotation_id])
                for annotation in self.get_many(attachments)
            ]
        rows = self._db.fetch_all(
            f"""
            SELECT a.annotation_id, a.body, a.author, a.created_at, a.kind,
                   a.title, t.column_name
            FROM {_ANNOTATIONS_TABLE} a
            JOIN {_ATTACHMENTS_TABLE} t ON a.annotation_id = t.annotation_id
            WHERE t.table_name = ? AND t.row_id = ?
            ORDER BY a.annotation_id
            """,
            (table, row_id),
        )
        results: list[tuple[Annotation, frozenset[str]]] = []
        for annotation_id, group in itertools.groupby(rows, key=lambda r: r[0]):
            grouped = list(group)
            annotation = _annotation_from_row(grouped[0][:6])
            columns = frozenset(entry[6] for entry in grouped)
            results.append((annotation, columns))
        return results

    def attachments_for_row(
        self, table: str, row_id: int
    ) -> dict[int, frozenset[str]]:
        """Annotation id -> attached columns for a base row.

        Unlike :meth:`annotations_for_row` this never touches the
        annotation bodies — it is the query-time path, which must stay
        proportional to the *number* of annotations, not their size.
        Attachments live with their annotation, so a single row's
        lookup asks every shard (each contributes the edges whose
        annotations it homes); single-file that is still one query.
        """
        attachments: dict[int, set[str]] = {}
        for shard in self._all_shards():
            rows = self._db.fetch_all(
                f"""
                SELECT annotation_id, column_name FROM {_ATTACHMENTS_TABLE}
                WHERE table_name = ? AND row_id = ?
                ORDER BY annotation_id
                """,
                (table, row_id),
                shard=shard,
            )
            for annotation_id, column in rows:
                attachments.setdefault(annotation_id, set()).add(column)
        return {
            annotation_id: frozenset(columns)
            for annotation_id, columns in attachments.items()
        }

    def attachments_for_rows(
        self, table: str, row_ids: Sequence[int]
    ) -> dict[int, dict[int, frozenset[str]]]:
        """Bulk :meth:`attachments_for_row` for a block of base rows.

        One SQL query per (shard, chunk) of ``row_ids`` instead of one
        per row — the scan operator's prefetch path.  Attachments live
        with their annotation, so every shard is asked for the whole
        block and contributes the edges it homes; a block of consecutive
        rowids would touch every shard under row-hashed placement too,
        so the statement count is the same and the write path keeps its
        batch affinity.  Every requested row id is present in the
        result; rows without annotations map to ``{}``.
        """
        per_row: dict[int, dict[int, set[str]]] = {
            row_id: {} for row_id in row_ids
        }
        distinct = sorted(per_row)
        for shard in self._all_shards():
            # Chunked IN-lists keep us under SQLite's bound-variable limit.
            for chunk_start in range(0, len(distinct), 500):
                chunk = distinct[chunk_start : chunk_start + 500]
                marks = placeholders(len(chunk))
                rows = self._db.fetch_all(
                    f"""
                    SELECT row_id, annotation_id, column_name
                    FROM {_ATTACHMENTS_TABLE}
                    WHERE table_name = ? AND row_id IN ({marks})
                    """,
                    (table, *chunk),
                    shard=shard,
                )
                for row_id, annotation_id, column in rows:
                    per_row[row_id].setdefault(annotation_id, set()).add(column)
        return {
            row_id: {
                annotation_id: frozenset(columns)
                for annotation_id, columns in attachments.items()
            }
            for row_id, attachments in per_row.items()
        }

    def annotation_ids_for_row(self, table: str, row_id: int) -> set[int]:
        """Ids of all annotations attached to a base row (a fan-out —
        each shard contributes the edges whose annotations it homes)."""
        ids: set[int] = set()
        for shard in self._all_shards():
            rows = self._db.fetch_all(
                f"""
                SELECT DISTINCT annotation_id FROM {_ATTACHMENTS_TABLE}
                WHERE table_name = ? AND row_id = ?
                """,
                (table, row_id),
                shard=shard,
            )
            ids.update(row[0] for row in rows)
        return ids

    def rows_for_annotation(self, annotation_id: int) -> set[tuple[str, int]]:
        """``(table, row_id)`` pairs the annotation attaches to — one
        query on the annotation's home shard."""
        rows = self._db.fetch_all(
            f"""
            SELECT DISTINCT table_name, row_id FROM {_ATTACHMENTS_TABLE}
            WHERE annotation_id = ?
            """,
            (annotation_id,),
            shard=self._ann_shard(annotation_id),
        )
        return {(table, row_id) for table, row_id in rows}


def _annotation_from_row(row: Sequence[object]) -> Annotation:
    annotation_id, body, author, created_at, kind, title = row
    return Annotation(
        annotation_id=int(annotation_id),  # type: ignore[arg-type]
        text=str(body),
        author=str(author),
        created_at=float(created_at),  # type: ignore[arg-type]
        kind=AnnotationKind(kind),
        title=str(title),
    )

