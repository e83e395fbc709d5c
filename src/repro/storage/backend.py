"""Storage backends: the connection topology behind the Database facade.

A backend owns everything about *where* bytes live and *which lock and
connection* a statement runs on; :class:`~repro.storage.database.Database`
and the stores above it own *what* is stored.  The split is the
:class:`StorageBackend` protocol:

* **shards** — a backend exposes ``shard_count`` numbered shards.  Shard
  ``0`` (:data:`META_SHARD`) always carries the engine metadata (the
  schema registry, summary instance definitions and links, the id
  sequence); data tables exist on every shard.
* **routing** — :meth:`~StorageBackend.shard_of` maps a ``(table, row)``
  cell to its home shard, :meth:`~StorageBackend.shard_of_annotation`
  maps an annotation id.  Routing is a pure, stable function of its
  arguments (it addresses *persisted* placement, so it must never
  depend on process state such as ``hash()`` randomization).
* **checkout** — :meth:`~StorageBackend.transaction` /
  :meth:`~StorageBackend.read` hand out a connection of one shard's
  pool, with the same locking rules as the single-file engine: one
  serialized writer and WAL-pooled readers *per shard*.

:class:`SingleFileBackend` is the compatibility baseline: exactly the
pre-sharding topology (one file, one writer, one
:class:`~repro.storage.pool.ConnectionPool`) wearing the protocol.  The
hash-partitioned fan-out lives in
:class:`~repro.storage.sharded.ShardedBackend`.
"""

from __future__ import annotations

import contextlib
import sqlite3
from collections.abc import Callable, Iterator, Sequence
from typing import Protocol, runtime_checkable

from repro.storage.pool import ConnectionPool, connect

#: The shard that carries engine metadata (schema registry, instance
#: definitions, links, id sequences).  Also a regular data shard.
META_SHARD = 0

#: Negative values mean KiB of page cache (SQLite convention); 16 MiB.
DEFAULT_CACHE_KIB = 16 * 1024

#: Annotation ids are placed in runs of this many consecutive ids per
#: shard (``shard = (id // ANNOTATION_BLOCK) % shards``), so a bulk
#: batch of contiguous ids commits to one shard — write affinity —
#: while successive blocks still round-robin the load.  Sized to match
#: the id-run grant (one granted run = exactly one block = one shard).
#: Part of the persisted placement: changing it strands existing
#: sharded stores.
ANNOTATION_BLOCK = 128


def is_memory_path(path: str) -> bool:
    """True when ``path`` names a RAM-resident SQLite database."""
    return path == ":memory:" or path == "" or "mode=memory" in path


def shard_path(path: str, shard: int) -> str:
    """The database file of ``shard``: shard 0 is ``path`` itself, so a
    ``shards=1`` layout is indistinguishable from a plain single file."""
    return path if shard == 0 else f"{path}.shard{shard}"


def tune_writer(connection: sqlite3.Connection, in_memory: bool) -> None:
    """Throughput pragmas; journal settings only for file-backed DBs.

    WAL lets readers proceed during writes and batches fsyncs;
    ``synchronous=NORMAL`` is the documented safe pairing with WAL.
    Both are meaningless (WAL: unsupported) for in-memory databases,
    which the tests and benchmarks use, so those are skipped there.
    """
    connection.execute("PRAGMA foreign_keys = ON")
    connection.execute(f"PRAGMA cache_size = -{DEFAULT_CACHE_KIB}")
    connection.execute("PRAGMA temp_store = MEMORY")
    if not in_memory:
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute("PRAGMA synchronous = NORMAL")


def tune_reader(connection: sqlite3.Connection) -> None:
    """Tuning for pooled read-only connections (no journal changes — the
    journal mode is a property of the database file)."""
    connection.execute(f"PRAGMA cache_size = -{DEFAULT_CACHE_KIB}")
    connection.execute("PRAGMA temp_store = MEMORY")


@runtime_checkable
class StorageBackend(Protocol):
    """The connection-topology contract the storage stack codes against."""

    path: str

    @property
    def shard_count(self) -> int:
        """How many shards the backend fans data out over (>= 1)."""
        ...

    @property
    def is_in_memory(self) -> bool:
        """True when the database lives in RAM (no durable file); its
        reads then share the lock-serialized writer connection."""
        ...

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        ...

    def shard_of(self, table: str, row_id: int) -> int:
        """Home shard of a base row (and everything co-located with it)."""
        ...

    def shard_of_annotation(self, annotation_id: int) -> int:
        """Home shard of an annotation body and its attachment edges."""
        ...

    def writer(self, shard: int = META_SHARD) -> sqlite3.Connection:
        """One shard's raw writer connection (single-threaded callers)."""
        ...

    def pool(self, shard: int = META_SHARD) -> ConnectionPool:
        """One shard's connection pool (monitoring and tests)."""
        ...

    def transaction(
        self, shard: int = META_SHARD
    ) -> contextlib.AbstractContextManager[sqlite3.Connection]:
        """One shard's writer, write-locked, in a transaction."""
        ...

    def read(
        self, shard: int = META_SHARD
    ) -> contextlib.AbstractContextManager[sqlite3.Connection]:
        """A connection of one shard for read-only statements."""
        ...

    def run_write_fanout(
        self, thunks: Sequence[Callable[[], object]]
    ) -> list[object]:
        """Run one logical write's per-shard sub-writes; sharded
        backends overlap their commit waits, single-file runs inline."""
        ...

    def set_trace(self, callback: Callable[[str], None] | None) -> None:
        """Install (or clear) a trace callback on every connection of
        every shard."""
        ...

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-shard pool checkout counters, keyed by shard index."""
        ...

    def close(self) -> None:
        """Close every connection of every shard (idempotent)."""
        ...


class SingleFileBackend:
    """The compatibility baseline: one file, one writer, one pool.

    Byte-identical to the pre-backend engine — the writer is opened and
    tuned exactly as before, and every checkout routes through the same
    :class:`~repro.storage.pool.ConnectionPool`.  ``shard_of`` maps
    everything to shard 0.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        # check_same_thread=False (the pool factory's default): the
        # writer is shared across threads but every use is serialized
        # behind the pool's write lock (and, for in-memory databases,
        # reads take the same lock).
        self._writer = connect(path)
        tune_writer(self._writer, self.is_in_memory)
        self._pool = ConnectionPool(
            path,
            in_memory=self.is_in_memory,
            writer=self._writer,
            configure_reader=tune_reader,
        )

    # -- introspection --------------------------------------------------

    @property
    def shard_count(self) -> int:
        return 1

    @property
    def is_in_memory(self) -> bool:
        return is_memory_path(self.path)

    @property
    def closed(self) -> bool:
        return self._pool.closed

    # -- routing --------------------------------------------------------

    def shard_of(self, table: str, row_id: int) -> int:
        return 0

    def shard_of_annotation(self, annotation_id: int) -> int:
        return 0

    # -- checkout -------------------------------------------------------

    def writer(self, shard: int = META_SHARD) -> sqlite3.Connection:
        return self._writer

    def pool(self, shard: int = META_SHARD) -> ConnectionPool:
        return self._pool

    @contextlib.contextmanager
    def transaction(
        self, shard: int = META_SHARD
    ) -> Iterator[sqlite3.Connection]:
        with self._pool.write() as connection:
            with connection:
                yield connection

    @contextlib.contextmanager
    def read(self, shard: int = META_SHARD) -> Iterator[sqlite3.Connection]:
        with self._pool.read() as connection:
            yield connection

    def run_write_fanout(
        self, thunks: Sequence[Callable[[], object]]
    ) -> list[object]:
        """Inline, in order — there is only one writer lock to wait on."""
        return [thunk() for thunk in thunks]

    # -- tracing, counters, teardown ------------------------------------

    def set_trace(self, callback: Callable[[str], None] | None) -> None:
        self._pool.set_trace(callback)

    def counters(self) -> dict[str, dict[str, int]]:
        return {"0": self._pool.stats()}

    def close(self) -> None:
        self._pool.close()
