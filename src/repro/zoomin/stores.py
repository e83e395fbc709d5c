"""The disk tier's store for the zoom-in cache.

The paper describes a *disk-based* cache where query results are
materialized to serve future zoom-ins (§2.2).
:class:`SQLiteResultStore` serializes results to a SQLite file — the
faithful disk-based materialization behind
:class:`~repro.zoomin.tiered.TieredZoomInCache`'s disk tier.

**Byte accounting differs by tier, deliberately.**  The memory tier
charges :meth:`~repro.engine.results.QueryResult.size_estimate` — an
estimate of the *live object* footprint, which is what a memory budget
actually bounds.  The SQLite store charges the encoded UTF-8 byte
length of the serialized payload — the bytes that actually land on
disk.  (It used to charge ``len(payload)``, the *character* count,
which undercharges any result carrying non-ASCII annotation text; see
the regression tests in ``tests/zoomin/test_stores.py``.  Payloads are
dumped with ``ensure_ascii=False`` so the file holds real UTF-8 rather
than escape sequences.)

The SQLite store also persists the RCO bookkeeping (``size_bytes``,
``cost``, ``access_count``, ``last_access``) next to each payload, so a
restarted process can rebuild its cache metadata from disk instead of
starting cold — see :meth:`SQLiteResultStore.load_metadata` and the
tiered cache's warm start.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.concurrency import make_lock
from repro.engine.results import QueryResult
from repro.storage.pool import connect
from repro.summaries.registry import SummaryTypeRegistry, default_registry


@dataclass(frozen=True)
class StoredEntryMeta:
    """Replacement-relevant metadata of one persisted cache entry."""

    qid: int
    size_bytes: int
    cost: float
    access_count: int
    last_access: int


class SQLiteResultStore:
    """Materializes results as JSON rows in a SQLite file.

    ``path`` defaults to a private in-memory SQLite database, which still
    exercises the full serialize/deserialize path; pass a filename for a
    genuinely disk-resident cache.

    Alongside each payload the store persists the entry's replacement
    metadata, written by :meth:`put` and refreshed by
    :meth:`update_access`, so RCO state survives a process restart
    (:meth:`load_metadata`).
    """

    #: Metadata columns added to the original (qid, payload) schema;
    #: pre-existing cache files are migrated in place on open.  Each
    #: entry pairs the column name with its complete ALTER statement —
    #: IN003 requires executed SQL to be built from constants, so the
    #: statements are spelled out rather than assembled.
    _META_COLUMNS = (
        (
            "size_bytes",
            "ALTER TABLE cached_results "
            "ADD COLUMN size_bytes INTEGER NOT NULL DEFAULT 0",
        ),
        (
            "cost",
            "ALTER TABLE cached_results "
            "ADD COLUMN cost REAL NOT NULL DEFAULT 0",
        ),
        (
            "access_count",
            "ALTER TABLE cached_results "
            "ADD COLUMN access_count INTEGER NOT NULL DEFAULT 0",
        ),
        (
            "last_access",
            "ALTER TABLE cached_results "
            "ADD COLUMN last_access INTEGER NOT NULL DEFAULT 0",
        ),
    )

    def __init__(
        self,
        path: str = ":memory:",
        registry: SummaryTypeRegistry | None = None,
    ) -> None:
        self._registry = registry or default_registry()
        # check_same_thread=False (the pool factory's default): cache
        # admissions can come from any query thread; the owning cache
        # keeps store calls outside its metadata lock and SQLite
        # serializes individual statements.  Transactions are a
        # different matter: ``with self._connection`` opens an implicit
        # transaction whose state lives on the *connection*, so two
        # threads interleaving write blocks raise "cannot start a
        # transaction within a transaction".  The transaction mutex
        # below serializes the write methods end to end (an IN001
        # documented exception — this lock exists precisely to hold
        # across the SQL it wraps).
        self._txn_lock = make_lock("zoomin.store_txn", guards_io=True)
        self._connection = connect(path)
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS cached_results (
                qid INTEGER PRIMARY KEY,
                payload TEXT NOT NULL,
                size_bytes INTEGER NOT NULL DEFAULT 0,
                cost REAL NOT NULL DEFAULT 0,
                access_count INTEGER NOT NULL DEFAULT 0,
                last_access INTEGER NOT NULL DEFAULT 0
            )
            """
        )
        self._migrate_metadata_columns()

    def _migrate_metadata_columns(self) -> None:
        """Add the metadata columns to a pre-existing two-column file."""
        present = {
            row[1]
            for row in self._connection.execute(
                "PRAGMA table_info(cached_results)"
            )
        }
        with self._connection:
            for name, statement in self._META_COLUMNS:
                if name not in present:
                    self._connection.execute(statement)

    def put(
        self,
        result: QueryResult,
        cost: float | None = None,
        access_count: int = 0,
        last_access: int = 0,
    ) -> int:
        """Persist ``result`` and its replacement metadata.

        Returns the **encoded byte length** of the payload — the bytes
        the file actually grows by — not the character count.
        ``ensure_ascii=False`` stores annotation text as real UTF-8
        instead of escape sequences (smaller, and it makes the two
        counts genuinely different for non-ASCII text).
        """
        payload = json.dumps(result.to_json(), ensure_ascii=False)
        size = len(payload.encode("utf-8"))
        with self._txn_lock, self._connection:
            self._connection.execute(
                """
                INSERT INTO cached_results
                    (qid, payload, size_bytes, cost, access_count, last_access)
                VALUES (?, ?, ?, ?, ?, ?)
                ON CONFLICT (qid) DO UPDATE SET
                    payload = excluded.payload,
                    size_bytes = excluded.size_bytes,
                    cost = excluded.cost,
                    access_count = excluded.access_count,
                    last_access = excluded.last_access
                """,
                (
                    result.qid,
                    payload,
                    size,
                    float(cost if cost is not None else result.plan_cost),
                    access_count,
                    last_access,
                ),
            )
        return size

    def update_access(
        self, qid: int, access_count: int, last_access: int
    ) -> None:
        """Persist refreshed reference bookkeeping for one entry."""
        with self._txn_lock, self._connection:
            self._connection.execute(
                """
                UPDATE cached_results
                SET access_count = ?, last_access = ?
                WHERE qid = ?
                """,
                (access_count, last_access, qid),
            )

    def get(self, qid: int) -> QueryResult | None:
        """Fetch a stored result, or None."""
        row = self._connection.execute(
            "SELECT payload FROM cached_results WHERE qid = ?", (qid,)
        ).fetchone()
        if row is None:
            return None
        return QueryResult.from_json(json.loads(row[0]), self._registry)

    def load_metadata(self) -> list[StoredEntryMeta]:
        """Replacement metadata of every persisted entry, qid-ordered.

        The warm-restart path: a cache opening over an existing file
        rebuilds its entry table from this instead of starting cold.
        """
        rows = self._connection.execute(
            """
            SELECT qid, size_bytes, cost, access_count, last_access
            FROM cached_results ORDER BY qid
            """
        ).fetchall()
        return [
            StoredEntryMeta(
                qid=row[0],
                size_bytes=row[1],
                cost=row[2],
                access_count=row[3],
                last_access=row[4],
            )
            for row in rows
        ]

    def delete(self, qid: int) -> None:
        """Drop a stored result (no-op when absent)."""
        with self._txn_lock, self._connection:
            self._connection.execute(
                "DELETE FROM cached_results WHERE qid = ?", (qid,)
            )

    def clear(self) -> None:
        """Drop everything."""
        with self._txn_lock, self._connection:
            self._connection.execute("DELETE FROM cached_results")

    def close(self) -> None:
        """Close the backing connection."""
        self._connection.close()
