"""The base-relation store.

Manages user tables — creation, insertion, point lookup, and full scans —
over a pluggable :class:`~repro.storage.backend.StorageBackend`:

* :class:`~repro.storage.backend.SingleFileBackend` (the default,
  ``shards=1``) is the engine's original topology: one writer connection
  serialized behind a write lock, plus a
  :class:`~repro.storage.pool.ConnectionPool` of per-thread read-only
  connections for file-backed databases (WAL readers proceed in parallel
  with the writer), falling back to the lock-serialized writer for
  ``:memory:`` databases, which SQLite cannot share across connections;
* :class:`~repro.storage.sharded.ShardedBackend` (``shards=N``)
  hash-partitions rows across ``N`` files, each with its own pool and
  independently serialized writer.  Inserts route by
  ``shard_of(table, row)``, and :meth:`Database.scan` scatter-gathers:
  one producer per shard streams its ordered rows into a bounded queue
  and a k-way heap merge reassembles the single global rowid order —
  byte-identical to the single-file scan, including pushed-down filters
  and LIMIT.

Every write of rows is a batch: :meth:`Database.insert` is an
:meth:`Database.insert_many` of one.  Every store's sharded write —
rows here, annotation bodies, summary state and catalog purges —
reaches the shards through :meth:`Database.commit_shards`, which runs
each shard's statements in one transaction and fans the shards out.

Every stored row is addressed by its SQLite ``rowid``, which the
annotation store and summary catalog use as the stable tuple identity.
Under sharding the engine assigns rowids itself (monotonic per table,
initialized from the per-shard maxima) so identity stays table-global
even though each shard's file has its own rowid space.

Column types are dynamic (SQLite's natural behaviour); the engine's
expression evaluator applies Python semantics, so integers, floats, and
strings round-trip unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import queue
import sqlite3
import threading
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

from repro.concurrency import make_lock
from repro.errors import StorageError, UnknownTableError
from repro.storage.backend import (
    META_SHARD,
    SingleFileBackend,
    StorageBackend,
)
from repro.storage.pool import ConnectionPool
from repro.storage.schema import SYSTEM_PREFIX, TableSchema
from repro.storage.sharded import ShardedBackend
from repro.storage.sqlsafe import (
    aggregate_select,
    placeholders,
    quote_ident,
    quoted_csv,
)

_SCHEMA_TABLE = f"{SYSTEM_PREFIX}schema"

#: Rows fetched per lock window when streaming a scan off the shared
#: in-memory connection — bounds how long a scan may hold the lock.
#: Scatter-gather producers use the same batch size per queue item.
_SCAN_FETCH_SIZE = 256

#: Batches a scatter-gather producer may buffer ahead of the merge —
#: bounds memory at (shards × depth × fetch size) rows per scan.
_SCAN_QUEUE_DEPTH = 4

#: One statement of a per-shard write batch: SQL and the parameter rows
#: it runs over (see :meth:`Database.commit_shards`).
ShardStatement = tuple[str, Sequence[Sequence[Any]]]

#: End-of-stream marker on a producer queue.
_SCAN_DONE = object()


class _ScanError:
    """A producer-side exception in transit to the merging consumer."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def _queue_put(
    target: "queue.Queue[Any]", item: Any, stop: threading.Event
) -> bool:
    """Put with periodic stop checks; False when the scan was abandoned.

    A producer must never block forever on a full queue: the consumer
    may stop early (LIMIT short-circuit, an exception, a dropped
    iterator), and its ``finally`` sets ``stop`` rather than draining
    every stream to exhaustion.
    """
    while not stop.is_set():
        try:
            target.put(item, timeout=0.05)
            return True
        except queue.Full:
            continue
    return False


class QueryCounter:
    """Counts SQL statements executed on the storage stack.

    Installed through :meth:`Database.track_queries`; the benchmarks and
    the scan-pipeline tests use it to assert roundtrip budgets (e.g. a
    block-prefetching scan must issue a bounded number of queries, not one
    per row).  Recording is lock-protected — trace callbacks fire from
    whichever thread executed the statement, including pooled readers.
    """

    def __init__(self) -> None:
        self.count = 0
        self.statements: list[str] = []
        self._lock = make_lock("database.trace_counter")

    def _record(self, sql: str) -> None:
        with self._lock:
            self.count += 1
            self.statements.append(sql)

    def by_prefix(self) -> dict[str, int]:
        """Statement counts keyed by their first keyword (SELECT, ...)."""
        grouped: dict[str, int] = {}
        with self._lock:
            statements = list(self.statements)
        for sql in statements:
            head = sql.lstrip().split(None, 1)
            key = head[0].upper() if head else ""
            grouped[key] = grouped.get(key, 0) + 1
        return grouped


class Database:
    """User relations over a pluggable SQLite storage backend.

    Parameters
    ----------
    path:
        SQLite database path; the default ``":memory:"`` keeps everything
        in RAM, which the tests and benchmarks use.
    shards:
        Number of storage shards.  ``1`` (the default) is the original
        single-file engine, byte-identical to before the backend split;
        ``N >= 2`` hash-partitions rows across ``N`` files (file-backed
        paths only — see DESIGN.md §11).
    """

    def __init__(
        self,
        path: str = ":memory:",
        shards: int = 1,
    ) -> None:
        self._backend: StorageBackend
        if shards == 1:
            self._backend = SingleFileBackend(path)
        elif shards >= 2:
            self._backend = ShardedBackend(path, shards)
        else:
            raise StorageError(f"shards must be >= 1, got {shards}")
        self.path = self._backend.path
        # Nested track_queries contexts each get their own counter; the
        # single dispatcher fans every traced statement to all of them.
        self._trace_lock = make_lock("database.trace")
        self._trace_stack: list[QueryCounter] = []
        self._schemas: dict[str, TableSchema] = {}
        self._schema_lock = make_lock("database.schema")
        # Table-global rowid allocation for sharded backends (each
        # shard's file has its own rowid space, so SQLite cannot assign
        # them); lazily seeded from the per-shard maxima.
        self._rowid_lock = make_lock("database.rowid")
        self._rowid_counters: dict[str, int] = {}
        with self._backend.transaction(META_SHARD) as connection:
            connection.execute(
                f"""
                CREATE TABLE IF NOT EXISTS {_SCHEMA_TABLE} (
                    table_name TEXT PRIMARY KEY,
                    columns TEXT NOT NULL
                )
                """
            )
        self._load_schemas()
        if self._backend.shard_count > 1:
            self._replicate_missing_tables()

    @property
    def is_in_memory(self) -> bool:
        """True when the database lives in RAM (no durable file)."""
        return self._backend.is_in_memory

    # -- connection management -----------------------------------------

    @property
    def backend(self) -> StorageBackend:
        """The storage backend (topology introspection and tests)."""
        return self._backend

    @property
    def shard_count(self) -> int:
        """How many shards rows fan out over (1 for single-file)."""
        return self._backend.shard_count

    @property
    def connection(self) -> sqlite3.Connection:
        """The meta shard's writer connection, shared with other stores.

        Kept for single-threaded callers (tests, import tooling) that
        run their own statements; concurrent code must go through
        :meth:`transaction` / :meth:`read_connection` instead.  Raises
        :class:`RuntimeError` once the database is closed.
        """
        if self._backend.closed:
            raise RuntimeError(
                "Database is closed — no further statements can be served"
            )
        return self._backend.writer(META_SHARD)

    @property
    def pool(self) -> ConnectionPool:
        """The meta shard's read pool (monitoring and tests)."""
        return self._backend.pool(META_SHARD)

    def transaction(
        self, shard: int = META_SHARD
    ) -> contextlib.AbstractContextManager[sqlite3.Connection]:
        """One shard's writer, write-locked, in a transaction.

        Commits on clean exit, rolls back on exception — the concurrent
        replacement for the old ``with database.connection:`` blocks.
        """
        return self._backend.transaction(shard)

    def read_connection(
        self, shard: int = META_SHARD
    ) -> contextlib.AbstractContextManager[sqlite3.Connection]:
        """A connection for read-only statements (see the pool's rules)."""
        return self._backend.read(shard)

    def fetch_all(
        self, sql: str, params: Sequence[Any] = (), shard: int = META_SHARD
    ) -> list[tuple[Any, ...]]:
        """Run one read-only statement on a pooled connection."""
        with self._backend.read(shard) as connection:
            return connection.execute(sql, params).fetchall()

    def fetch_one(
        self, sql: str, params: Sequence[Any] = (), shard: int = META_SHARD
    ) -> tuple[Any, ...] | None:
        """Run one read-only statement; first row or None."""
        with self._backend.read(shard) as connection:
            return connection.execute(sql, params).fetchone()

    @contextlib.contextmanager
    def track_queries(self) -> Iterator[QueryCounter]:
        """Count every SQL statement executed while the context is open.

        Trace callbacks are installed on every shard's writer **and**
        every pooled read connection (present and future), so the counter
        sees queries from every store and every thread — exactly what the
        roundtrip-budget assertions need.  Contexts nest: each level gets
        its own counter and every traced statement is recorded by all
        currently open counters, inner and outer alike.
        """
        counter = QueryCounter()
        with self._trace_lock:
            self._trace_stack.append(counter)
            if len(self._trace_stack) == 1:
                self._backend.set_trace(self._dispatch_trace)
        try:
            yield counter
        finally:
            with self._trace_lock:
                self._trace_stack.remove(counter)
                if not self._trace_stack:
                    self._backend.set_trace(None)

    def _dispatch_trace(self, sql: str) -> None:
        with self._trace_lock:
            counters = list(self._trace_stack)
        for counter in counters:
            counter._record(sql)

    def close(self) -> None:
        """Close every connection of every shard.

        Idempotent.  Any later statement — through the pool or the
        :attr:`connection` property — raises a clear
        :class:`RuntimeError` instead of a ``sqlite3.ProgrammingError``
        surfacing deep inside an operator.
        """
        self._backend.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _load_schemas(self) -> None:
        rows = self.fetch_all(
            f"SELECT table_name, columns FROM {_SCHEMA_TABLE}"
        )
        for table_name, columns in rows:
            self._schemas[table_name] = TableSchema(
                table_name, tuple(columns.split(","))
            )

    def _replicate_missing_tables(self) -> None:
        """Create known user tables on shards that lack them.

        Covers reopening a sharded store with a higher shard count than
        it last ran with (new shard files start empty): DDL is
        replicated everywhere so routing never hits a missing table.
        Rows do **not** move — changing the shard count of a populated
        store is unsupported (routing addresses persisted placement).
        """
        for schema in self._schemas.values():
            ddl = (
                f"CREATE TABLE IF NOT EXISTS {quote_ident(schema.name)} "
                f"({quoted_csv(schema.columns)})"
            )
            for shard in range(self._backend.shard_count):
                with self._backend.transaction(shard) as connection:
                    connection.execute(ddl)

    # -- DDL -------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str]) -> TableSchema:
        """Create a user table with the given column names.

        Sharded backends replicate the DDL to every shard (rows of one
        table spread across all of them) and record the schema row on
        the meta shard; per-shard DDL is not globally atomic, but
        ``CREATE``/``INSERT OR REPLACE`` make a re-run converge.
        """
        schema = TableSchema(name, tuple(columns))
        if name in self._schemas:
            raise StorageError(f"table already exists: {name!r}")
        ddl = (
            f"CREATE TABLE {quote_ident(name)} "
            f"({quoted_csv(schema.columns)})"
        )
        schema_row = (
            f"INSERT INTO {_SCHEMA_TABLE} (table_name, columns) "
            "VALUES (?, ?)"
        )
        if self._backend.shard_count == 1:
            with self._backend.transaction() as connection:
                connection.execute(ddl)
                connection.execute(
                    schema_row, (name, ",".join(schema.columns))
                )
        else:
            for shard in range(1, self._backend.shard_count):
                with self._backend.transaction(shard) as connection:
                    connection.execute(ddl)
            with self._backend.transaction(META_SHARD) as connection:
                connection.execute(ddl)
                connection.execute(
                    schema_row, (name, ",".join(schema.columns))
                )
        with self._schema_lock:
            self._schemas[name] = schema
        return schema

    def drop_table(self, name: str) -> None:
        """Drop a user table and its schema entry (on every shard)."""
        self.schema(name)  # raises for unknown tables
        drop = f"DROP TABLE {quote_ident(name)}"
        unregister = f"DELETE FROM {_SCHEMA_TABLE} WHERE table_name = ?"
        with self._backend.transaction(META_SHARD) as connection:
            connection.execute(drop)
            connection.execute(unregister, (name,))
        for shard in range(1, self._backend.shard_count):
            with self._backend.transaction(shard) as connection:
                connection.execute(drop)
        with self._schema_lock:
            del self._schemas[name]
        with self._rowid_lock:
            self._rowid_counters.pop(name, None)

    # -- catalog -----------------------------------------------------

    def tables(self) -> list[str]:
        """Names of all user tables, sorted."""
        return sorted(self._schemas)

    def has_table(self, name: str) -> bool:
        """True when ``name`` is a user table."""
        return name in self._schemas

    def schema(self, name: str) -> TableSchema:
        """Schema of ``name`` or raise :class:`UnknownTableError`."""
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def columns(self, name: str) -> tuple[str, ...]:
        """Column names of ``name`` in declaration order."""
        return self.schema(name).columns

    # -- rowid allocation ---------------------------------------------

    def _seed_rowid_floor(self, table: str) -> None:
        """Seed the table's allocation floor from the per-shard maxima.

        Called *before* taking ``_rowid_lock``, never under it — the
        MAX(rowid) probes are SQL, and IN001/IN007 forbid holding the
        rowid lock across a reader checkout.  Double-checked: racing
        seeders may both probe, but the merge keeps the highest floor,
        so a concurrent allocation that already advanced the counter is
        never rolled back.
        """
        with self._rowid_lock:
            if table in self._rowid_counters:
                return
        observed = 0
        for shard in range(self._backend.shard_count):
            row = self.fetch_one(
                f"SELECT MAX(rowid) FROM {quote_ident(table)}",
                shard=shard,
            )
            if row is not None and row[0] is not None:
                observed = max(observed, row[0])
        with self._rowid_lock:
            self._rowid_counters[table] = max(
                self._rowid_counters.get(table, 0), observed
            )

    def _allocate_rowids(self, table: str, count: int) -> int:
        """Reserve ``count`` consecutive rowids; returns the first.

        Mirrors SQLite's own assignment for plain rowid tables
        (``max(rowid) + 1``), so a sharded store hands out the same ids
        the single-file engine would.
        """
        self._seed_rowid_floor(table)
        with self._rowid_lock:
            current = self._rowid_counters.get(table, 0)
            self._rowid_counters[table] = current + count
            return current + 1

    def _note_explicit_rowid(self, table: str, row_id: int) -> None:
        """Raise the allocation floor past an explicitly pinned rowid."""
        self._seed_rowid_floor(table)
        with self._rowid_lock:
            current = self._rowid_counters.get(table, 0)
            self._rowid_counters[table] = max(current, row_id)

    # -- DML -------------------------------------------------------------

    def insert(
        self,
        table: str,
        values: Sequence[Any] | Mapping[str, Any],
        row_id: int | None = None,
    ) -> int:
        """Insert one row; returns its rowid.

        ``values`` is either a positional sequence matching the schema or
        a column-name mapping (missing columns become NULL).  An explicit
        ``row_id`` pins the rowid — used by import tooling, which must
        preserve annotation attachments keyed on rowids.  A batch of one
        through :meth:`insert_many`.
        """
        if isinstance(values, Mapping):
            schema = self.schema(table)
            unknown = set(values) - set(schema.columns)
            if unknown:
                raise StorageError(
                    f"unknown columns for {table!r}: {sorted(unknown)}"
                )
            values = tuple(values.get(column) for column in schema.columns)
        row_ids = None if row_id is None else [row_id]
        return self.insert_many(table, [values], row_ids=row_ids)[0]

    def insert_many(
        self,
        table: str,
        rows: Sequence[Sequence[Any]],
        row_ids: Sequence[int] | None = None,
    ) -> list[int]:
        """Insert multiple positional rows; returns their rowids.

        ``row_ids`` pins one rowid per row (import tooling); omitted,
        rowids are assigned as SQLite would (``max(rowid) + 1``).  The
        batch is validated before anything is written.  Single-file: one
        transaction (and one write-lock window) for the whole batch;
        per-row execution because each row's assigned rowid is returned.
        Sharded: rowids are pre-assigned and the rows go out through
        :meth:`commit_shards`, one transaction per home shard.
        """
        schema = self.schema(table)
        for row in rows:
            schema.check_values(row)
        if row_ids is not None and len(row_ids) != len(rows):
            raise StorageError(
                f"{len(row_ids)} rowids given for {len(rows)} rows"
            )
        if not rows:
            return []
        pinned_sql = (
            f"INSERT INTO {quote_ident(table)} "
            f"(rowid, {quoted_csv(schema.columns)}) "
            f"VALUES ({placeholders(1 + len(schema.columns))})"
        )
        if self._backend.shard_count == 1:
            if row_ids is None:
                marks = placeholders(len(schema.columns))
                sql = f"INSERT INTO {quote_ident(table)} VALUES ({marks})"
                params = [tuple(row) for row in rows]
            else:
                sql = pinned_sql
                params = [(row_id, *row) for row_id, row in zip(row_ids, rows)]
            assigned: list[int] = []
            with self._backend.transaction() as connection:
                for bound in params:
                    cursor = connection.execute(sql, bound)
                    assert cursor.lastrowid is not None
                    assigned.append(cursor.lastrowid)
            return assigned
        if row_ids is None:
            first = self._allocate_rowids(table, len(rows))
            row_ids = range(first, first + len(rows))
        else:
            self._note_explicit_rowid(table, max(row_ids))
        by_shard: dict[int, list[tuple[Any, ...]]] = {}
        for row_id, row in zip(row_ids, rows):
            shard = self._backend.shard_of(table, row_id)
            by_shard.setdefault(shard, []).append((row_id, *row))
        self.commit_shards(
            {shard: [(pinned_sql, batch)] for shard, batch in by_shard.items()}
        )
        return list(row_ids)

    def commit_shards(
        self, batches: Mapping[int, Sequence[ShardStatement]]
    ) -> None:
        """Commit one logical write as per-shard statement batches.

        ``batches`` maps a shard to its ``(sql, rows)`` statements; each
        shard runs them in order, every one as ``executemany``, inside
        one transaction.  This is the one place a store's write reaches
        :meth:`~repro.storage.backend.StorageBackend.run_write_fanout`:
        narrow fan-outs run inline, wide ones overlap their commit waits,
        every shard's transaction is awaited even when one fails, and the
        first failure is re-raised.  Atomicity is per shard (DESIGN.md
        §11).
        """
        self._backend.run_write_fanout(
            [
                functools.partial(self._commit_shard, shard, batches[shard])
                for shard in sorted(batches)
            ]
        )

    def _commit_shard(
        self, shard: int, statements: Sequence[ShardStatement]
    ) -> None:
        with self._backend.transaction(shard) as connection:
            for sql, rows in statements:
                connection.executemany(sql, rows)

    def delete_row(self, table: str, row_id: int) -> None:
        """Delete one row by rowid (no-op when absent)."""
        self.schema(table)
        shard = self._backend.shard_of(table, row_id)
        with self._backend.transaction(shard) as connection:
            connection.execute(
                f"DELETE FROM {quote_ident(table)} WHERE rowid = ?",
                (row_id,),
            )

    # -- reads --------------------------------------------------------

    def get_row(self, table: str, row_id: int) -> tuple[Any, ...] | None:
        """Fetch one row's values by rowid, or None when absent."""
        self.schema(table)
        row = self.fetch_one(
            f"SELECT * FROM {quote_ident(table)} WHERE rowid = ?",
            (row_id,),
            shard=self._backend.shard_of(table, row_id),
        )
        return tuple(row) if row is not None else None

    def rows(self, table: str) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Scan ``table``, yielding ``(rowid, values)`` pairs."""
        return self.scan(table)

    def scan(
        self,
        table: str,
        where_sql: str | None = None,
        params: Sequence[Any] = (),
        limit: int | None = None,
        on_row_shard: Callable[[int], None] | None = None,
    ) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Scan ``table`` with an optional pushed-down filter and limit.

        ``where_sql`` is a parameterized WHERE fragment over the table's
        own (quoted) column names, compiled by the planner from sargable
        predicates (:mod:`repro.engine.pushdown`); ``limit`` truncates the
        scan inside SQLite.  Rows come out in rowid order either way, so
        pushdown never changes result order.

        File-backed databases stream lazily off the calling thread's
        read-only connection.  In-memory databases fetch in bounded
        batches so the shared-connection lock is never held across a
        ``yield`` (a consumer pausing mid-scan must not block writers).

        Sharded backends scatter-gather: the same statement runs on every
        shard concurrently (each with its own per-shard LIMIT — a global
        cap can only tighten per shard) and the ordered per-shard streams
        heap-merge back into global rowid order, stopping as soon as
        ``limit`` rows came out.  ``on_row_shard`` (sharded scans only)
        is called with the home shard of each yielded row, feeding the
        per-shard ``rows_scanned`` counters on ``ExecutionStats``.
        """
        self.schema(table)
        sql = f"SELECT rowid, * FROM {quote_ident(table)}"
        bound: tuple[Any, ...] = tuple(params)
        if where_sql is not None:
            sql += f" WHERE {where_sql}"
        sql += " ORDER BY rowid"
        if limit is not None:
            sql += " LIMIT ?"
            bound += (limit,)
        if self._backend.shard_count > 1:
            return self._scan_sharded(sql, bound, limit, on_row_shard)
        if self._backend.is_in_memory:
            return self._scan_serialized(sql, bound)
        return self._scan_streaming(sql, bound)

    def _scan_streaming(
        self, sql: str, bound: tuple[Any, ...]
    ) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Lazy scan on this thread's dedicated read-only connection."""
        with self._backend.read() as connection:
            cursor = connection.execute(sql, bound)
        # The connection is thread-local and dedicated — iterating after
        # the checkout window is safe (no lock was held to begin with).
        for row in cursor:
            yield row[0], tuple(row[1:])

    def _scan_serialized(
        self, sql: str, bound: tuple[Any, ...]
    ) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Batched scan on the lock-serialized shared connection."""
        with self._backend.read() as connection:
            cursor = connection.execute(sql, bound)
            rows = cursor.fetchmany(_SCAN_FETCH_SIZE)
        while rows:
            for row in rows:
                yield row[0], tuple(row[1:])
            if len(rows) < _SCAN_FETCH_SIZE:
                return
            with self._backend.read():
                rows = cursor.fetchmany(_SCAN_FETCH_SIZE)

    def _scan_sharded(
        self,
        sql: str,
        bound: tuple[Any, ...],
        limit: int | None,
        on_row_shard: Callable[[int], None] | None,
    ) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Scatter the statement over all shards, merge by rowid.

        One producer per shard runs ``sql`` on its shard's read
        connection and streams batches into a bounded queue; the
        consumer k-way heap-merges the (individually rowid-ordered)
        streams.  Heap entries are ``(rowid, shard, row)`` — the
        ``(rowid, shard)`` prefix is unique, so row payloads are never
        compared.  Early exit (LIMIT, exception, dropped iterator) sets
        the stop event; producers poll it on every queue put and on
        every fetch batch, so they always unwind.
        """
        backend = self._backend
        assert isinstance(backend, ShardedBackend)
        shards = backend.shard_count
        queues: list[queue.Queue[Any]] = [
            queue.Queue(maxsize=_SCAN_QUEUE_DEPTH) for _ in range(shards)
        ]
        stop = threading.Event()
        for shard in range(shards):
            backend.submit_scan(
                self._scan_producer, shard, sql, bound, queues[shard], stop
            )

        def stream(shard: int) -> Iterator[Any]:
            while True:
                item = queues[shard].get()
                if item is _SCAN_DONE:
                    return
                if isinstance(item, _ScanError):
                    raise item.error
                yield from item

        try:
            streams = [stream(shard) for shard in range(shards)]
            heap: list[tuple[int, int, Any]] = []
            for shard, rows in enumerate(streams):
                row = next(rows, None)
                if row is not None:
                    heapq.heappush(heap, (row[0], shard, row))
            emitted = 0
            while heap:
                rowid, shard, row = heapq.heappop(heap)
                if on_row_shard is not None:
                    on_row_shard(shard)
                yield rowid, tuple(row[1:])
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
                nxt = next(streams[shard], None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], shard, nxt))
        finally:
            stop.set()
            # Unblock producers stuck on a full queue right away (they
            # would notice the event on their next put timeout anyway).
            for pending in queues:
                while True:
                    try:
                        pending.get_nowait()
                    except queue.Empty:
                        break

    def _scan_producer(
        self,
        shard: int,
        sql: str,
        bound: tuple[Any, ...],
        out: "queue.Queue[Any]",
        stop: threading.Event,
    ) -> None:
        """One shard's half of a scatter-gather scan.

        Batches are fetched inside read-checkout windows and handed off
        outside them, so no checkout is ever held while blocking on a
        full queue.
        """
        try:
            with self._backend.read(shard) as connection:
                cursor = connection.execute(sql, bound)
                rows = cursor.fetchmany(_SCAN_FETCH_SIZE)
            while rows and not stop.is_set():
                if not _queue_put(out, rows, stop):
                    return
                if len(rows) < _SCAN_FETCH_SIZE:
                    break
                with self._backend.read(shard):
                    rows = cursor.fetchmany(_SCAN_FETCH_SIZE)
        except BaseException as exc:  # noqa: BLE001 - re-raised by consumer
            _queue_put(out, _ScanError(exc), stop)
            return
        _queue_put(out, _SCAN_DONE, stop)

    def row_count(self, table: str) -> int:
        """Number of rows in ``table`` (summed across shards)."""
        self.schema(table)
        sql = f"SELECT COUNT(*) FROM {quote_ident(table)}"
        total = 0
        for shard in range(self._backend.shard_count):
            row = self.fetch_one(sql, shard=shard)
            assert row is not None
            total += row[0]
        return total

    def fetch_value(
        self,
        sql: str,
        params: Sequence[Any] = (),
        shard: int = META_SHARD,
        default: Any = None,
    ) -> Any:
        """First column of the first row, or ``default`` on no rows."""
        row = self.fetch_one(sql, params, shard=shard)
        if row is None or row[0] is None:
            return default
        return row[0]

    def distinct_count(self, table: str, column: str) -> int:
        """Distinct non-NULL values of one column, for planner stats.

        On a sharded backend this is the per-shard **maximum** — distinct
        counts do not sum across partitions (the same value may live on
        several shards), and the maximum is a safe lower bound: the cost
        model dividing by it only ever *over*-estimates result sizes,
        which keeps plan choices conservative.
        """
        self.schema(table)
        sql = (
            f"SELECT COUNT(DISTINCT {quote_ident(column)}) "
            f"FROM {quote_ident(table)}"
        )
        best = 0
        for shard in range(self._backend.shard_count):
            value = self.fetch_value(sql, shard=shard, default=0)
            best = max(best, int(value))
        return best

    def scan_aggregate(
        self,
        table: str,
        key_columns: Sequence[str],
        aggregates: Sequence[tuple[str, str | None]],
        where_sql: str | None = None,
        params: Sequence[Any] = (),
    ) -> list[tuple[Any, ...]]:
        """Run one grouped aggregation inside SQLite.

        Produces one row per group — key values first, then one value
        per ``(function, column)`` aggregate, then a comma-separated
        ``GROUP_CONCAT`` of the member rowids (the operator reassembles
        provenance from it).  ``ORDER BY MIN(rowid)`` reproduces the
        first-seen group order of the in-engine
        :class:`~repro.engine.operators.GroupByOperator`, so pushing an
        aggregation down never changes result order.

        Single-shard only: GROUP_CONCAT membership and AVG cannot be
        merged across partial per-shard aggregates, and the planner
        never emits this node on a sharded backend.
        """
        if self._backend.shard_count > 1:
            raise StorageError(
                "scan_aggregate requires a single-shard backend; "
                "the planner must not push aggregation below a "
                "sharded scan"
            )
        self.schema(table)
        sql = (
            f"SELECT {aggregate_select(key_columns, aggregates)}, "
            f"GROUP_CONCAT(rowid) FROM {quote_ident(table)}"
        )
        if where_sql is not None:
            sql += f" WHERE {where_sql}"
        if key_columns:
            sql += f" GROUP BY {quoted_csv(key_columns)}"
        sql += " ORDER BY MIN(rowid)"
        # where_sql is a parameterized fragment from the pushdown
        # compiler — the same contract scan() relies on.
        return self.fetch_all(sql, params)  # insightlint: disable=IN003 -- vetted pushdown fragment
