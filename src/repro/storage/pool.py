"""The read-connection pool.

One SQLite file can serve many readers at once under WAL journaling —
each reader on its **own** connection sees a consistent committed
snapshot while a single writer proceeds in parallel.  The engine's
concurrent read path builds on exactly that:

* **file-backed databases** get one lazily created *read-only*
  connection per thread (``PRAGMA query_only = ON``), registered here so
  teardown and statement tracing reach all of them;
* **in-memory databases** cannot share state across connections (each
  ``sqlite3.connect(":memory:")`` is a brand-new database), so reads
  fall back to the shared writer connection, serialized under the write
  lock;
* **writes** always go through the one writer connection, serialized
  under the write lock — the engine's single-writer model.

The pool never hands a connection to user code directly; the
:class:`~repro.storage.database.Database` wraps checkout in
``read()`` / ``write()`` context managers and routes every statement
through them.  After :meth:`close`, any checkout raises a clear
:class:`RuntimeError` instead of letting a dangling connection surface
as a ``sqlite3.ProgrammingError`` deep inside an operator.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import time
from collections.abc import Callable, Iterator

from repro.concurrency import make_lock, make_rlock


def connect(
    path: str, *, check_same_thread: bool = False
) -> sqlite3.Connection:
    """The engine's single doorway to ``sqlite3.connect``.

    Every connection in the system — the writer, the pooled readers, and
    auxiliary stores such as the zoom-in result cache — is opened here,
    so review of connection handling starts and ends in this module
    (insightlint rule IN002 rejects raw ``sqlite3.connect`` anywhere
    else).  ``check_same_thread`` defaults to ``False`` because every
    caller serializes cross-thread use behind its own lock or keeps the
    connection thread-local.
    """
    return sqlite3.connect(path, check_same_thread=check_same_thread)


class ConnectionPool:
    """Per-thread read-only connections plus one serialized writer.

    Parameters
    ----------
    path:
        The database path, used to open additional read connections.
    in_memory:
        True for RAM-resident databases, which cannot be shared across
        connections — reads then serialize on the writer connection.
    writer:
        The already-configured writer connection (owned by the
        :class:`~repro.storage.database.Database`; the pool closes it).
    configure_reader:
        Applied to every new read connection before it is switched to
        ``query_only`` — the place for page-cache and temp-store tuning.
    """

    def __init__(
        self,
        path: str,
        in_memory: bool,
        writer: sqlite3.Connection,
        configure_reader: Callable[[sqlite3.Connection], None] | None = None,
    ) -> None:
        self._path = path
        self._in_memory = in_memory
        self._writer = writer
        self._configure_reader = configure_reader
        self._write_lock = make_rlock("pool.write", guards_io=True)
        # Guards the reader registry, the trace callback, and _closed.
        self._registry_lock = make_lock("pool.registry")
        self._readers: list[sqlite3.Connection] = []
        self._local = threading.local()
        self._trace: Callable[[str], None] | None = None
        self._closed = False
        # Checkout counters — observability for the scatter-gather and
        # per-shard-writer paths (never on a hot lock: one uncontended
        # lock acquisition per checkout, not per statement).
        self._stats_lock = make_lock("pool.stats")
        self._read_checkouts = 0
        self._write_batches = 0
        self._write_wait_s = 0.0

    # -- introspection --------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def serialized_reads(self) -> bool:
        """True when reads share the writer connection (in-memory DBs)."""
        return self._in_memory

    @property
    def reader_count(self) -> int:
        """How many read-only connections have been opened so far."""
        with self._registry_lock:
            return len(self._readers)

    def stats(self) -> dict[str, int]:
        """Checkout counters: read checkouts, write batches, readers.

        ``read_checkouts`` counts :meth:`read` context entries (one per
        read-side checkout window, not per statement); ``write_batches``
        counts :meth:`write` entries — with every write path batching
        its statements into one checkout, this is the number of writer
        transactions the pool served.  ``write_wait_ms`` accumulates
        time spent *waiting* for the write lock across all checkouts —
        the writer-contention signal a served system watches (a healthy
        single-writer deployment keeps it near zero; growth means
        writers are queueing on each other).
        """
        with self._stats_lock:
            counters: dict[str, int] = {
                "read_checkouts": self._read_checkouts,
                "write_batches": self._write_batches,
                "write_wait_ms": int(self._write_wait_s * 1000),
            }
        counters["readers"] = self.reader_count
        return counters

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "connection pool is closed — the Database it belongs to "
                "was closed; no further statements can be served"
            )

    # -- checkout -------------------------------------------------------

    @contextlib.contextmanager
    def read(self) -> Iterator[sqlite3.Connection]:
        """Check out a connection for read-only statements.

        File-backed: the calling thread's cached read-only connection,
        with **no lock held** — WAL readers neither block each other nor
        the writer.  In-memory: the shared writer connection under the
        write lock, so reads and writes strictly alternate.
        """
        self._check_open()
        with self._stats_lock:
            self._read_checkouts += 1
        if self._in_memory:
            with self._write_lock:
                self._check_open()
                yield self._writer
            return
        connection = getattr(self._local, "reader", None)
        if connection is None:
            connection = self._open_reader()
        yield connection

    @contextlib.contextmanager
    def write(self) -> Iterator[sqlite3.Connection]:
        """Check out the writer connection under the write lock.

        The lock is re-entrant, so a write path may nest (e.g. a bulk
        helper invoked inside an open transaction block).
        """
        self._check_open()
        with self._stats_lock:
            self._write_batches += 1
        waiting_since = time.perf_counter()
        with self._write_lock:
            waited = time.perf_counter() - waiting_since
            with self._stats_lock:
                self._write_wait_s += waited
            self._check_open()
            yield self._writer

    def _open_reader(self) -> sqlite3.Connection:
        """Open, tune, and register this thread's read-only connection.

        ``check_same_thread=False`` because teardown and trace
        installation legitimately touch the connection from other
        threads; statement execution stays thread-local by construction.
        """
        connection = connect(self._path)
        if self._configure_reader is not None:
            self._configure_reader(connection)
        connection.execute("PRAGMA query_only = ON")
        with self._registry_lock:
            if self._closed:
                connection.close()
                self._check_open()
            self._readers.append(connection)
            if self._trace is not None:
                connection.set_trace_callback(self._trace)
        self._local.reader = connection
        return connection

    # -- statement tracing ----------------------------------------------

    def set_trace(self, callback: Callable[[str], None] | None) -> None:
        """Install (or clear) a trace callback on **every** connection.

        Covers the writer, all existing read connections, and — because
        the callback is remembered — read connections opened later, so a
        query-counting context sees statements from pooled readers too.
        """
        with self._registry_lock:
            self._trace = callback
            if self._closed:
                return
            self._writer.set_trace_callback(callback)
            for connection in self._readers:
                connection.set_trace_callback(callback)

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Close every pooled connection and the writer (idempotent).

        Taken under the write lock so an in-flight write transaction
        finishes before its connection disappears.
        """
        with self._write_lock:
            with self._registry_lock:
                if self._closed:
                    return
                self._closed = True
                readers, self._readers = self._readers, []
            for connection in readers:
                connection.close()
            self._writer.close()
