"""The hash-sharded storage backend.

Partitions the store across ``N`` SQLite files, each with its own
serialized writer and its own WAL read pool, so concurrent bulk-ingest
writers queue on *per-shard* write locks instead of one global one —
commit and checkpoint waits on different shards overlap instead of
serializing.  Placement:

* **base rows** live on ``shard_of(table, row_id)`` — a stable hash of
  the table name plus the row id, so consecutive rowids round-robin
  across shards and every scan fans out evenly;
* **summary state** is co-located with its base row (a scan block's
  state fetch routes each row to exactly one shard);
* **annotation bodies and their attachments** are co-located on
  ``shard_of_annotation(annotation_id)``, which slices the id space
  into :data:`~repro.storage.backend.ANNOTATION_BLOCK`-sized runs —
  a bulk-ingest batch of consecutive ids lands on one shard (two at a
  block boundary) in one or two transactions, so concurrent writers
  commit to *different* shards instead of queueing on every shard;
* **metadata** (the schema registry, instance definitions, links, the
  id sequence) lives on shard 0 (:data:`~repro.storage.backend.META_SHARD`),
  which doubles as a regular data shard — shard 0's file *is* the given
  path, so a ``shards=1`` database and a single-file database are the
  same layout on disk.

Routing must be a pure function of its arguments: it addresses
*persisted* placement, so it hashes with :func:`zlib.crc32` (stable
across processes and Python versions), never ``hash()``.

Cross-shard writes are per-shard atomic, not globally atomic: a bulk
ingest that spans shards commits one transaction per shard.  Readers on
another connection may observe one shard's half of a batch before the
other lands — same-shard state (a row and its attachments and summary
state) is always consistent, cross-shard state is eventually so.  See
DESIGN.md §11 for the full lock inventory and the memory-vs-file caveat
(in-memory databases cannot be sharded: each ``:memory:`` connection is
a private database, so there is nothing to fan out over).

The backend owns two small thread pools: a scatter pool that scan
producers run on (`Database` fans per-shard scan statements out and
merges the ordered streams) and a writer fan-out pool for per-shard
sub-batches of one logical bulk write.  They are separate so a burst of
scatter reads can never starve ingest of executor slots, or vice versa.
"""

from __future__ import annotations

import contextlib
import sqlite3
import zlib
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from repro.errors import StorageError
from repro.storage.backend import (
    ANNOTATION_BLOCK,
    META_SHARD,
    tune_writer,
    is_memory_path,
    shard_path,
    tune_reader,
)
from repro.storage.pool import ConnectionPool, connect


class ShardedBackend:
    """``N`` SQLite files, each with its own writer lock and read pool.

    Parameters
    ----------
    path:
        Base database path; shard ``k`` lives at ``path`` (k = 0) or
        ``path.shardK``.  Must be file-backed.
    shards:
        Number of shards (>= 2; ``shards=1`` is
        :class:`~repro.storage.backend.SingleFileBackend`'s job).
    """

    def __init__(self, path: str, shards: int) -> None:
        if shards < 2:
            raise StorageError(
                f"ShardedBackend needs at least 2 shards, got {shards} — "
                "use SingleFileBackend for the single-file layout"
            )
        if is_memory_path(path):
            raise StorageError(
                "a sharded store must be file-backed: every "
                "sqlite3.connect(':memory:') is a private database, so "
                "there is no shared state to partition (see DESIGN.md §11)"
            )
        self.path = path
        self._shards = shards
        self._writers: list[sqlite3.Connection] = []
        self._pools: list[ConnectionPool] = []
        for shard in range(shards):
            writer = connect(shard_path(path, shard))
            tune_writer(writer, in_memory=False)
            self._writers.append(writer)
            self._pools.append(
                ConnectionPool(
                    shard_path(path, shard),
                    in_memory=False,
                    writer=writer,
                    configure_reader=tune_reader,
                )
            )
        # Scan producers (one per shard per in-flight scatter-gather
        # scan) and per-shard write fan-out run on separate pools so
        # neither side can starve the other of slots.
        self._scan_executor = ThreadPoolExecutor(
            max_workers=max(8, shards * 4), thread_name_prefix="shard-scan"
        )
        self._write_executor = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard-write"
        )
        self._closed = False

    # -- introspection --------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self._shards

    @property
    def is_in_memory(self) -> bool:
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    def shard_paths(self) -> list[str]:
        """The database files, indexed by shard."""
        return [shard_path(self.path, shard) for shard in range(self._shards)]

    # -- routing --------------------------------------------------------

    def shard_of(self, table: str, row_id: int) -> int:
        """Home shard of a base row: stable hash of ``(table, row)``.

        Adding the row id (rather than hashing it) round-robins
        consecutive rowids of one table across shards — inserts and
        scans spread evenly whatever the id pattern.
        """
        return (zlib.crc32(table.encode("utf-8")) + row_id) % self._shards

    def shard_of_annotation(self, annotation_id: int) -> int:
        """Home shard of an annotation body and its attachment edges.

        Block-sliced rather than round-robin: ids ``k*B .. k*B + B-1``
        (``B`` = :data:`~repro.storage.backend.ANNOTATION_BLOCK`) share
        a shard, so a bulk batch of consecutive ids is written with one
        or two shard transactions instead of one per shard — the
        write-affinity that lets concurrent ingest threads commit on
        disjoint shard locks.  Load still spreads: successive blocks
        round-robin across shards.
        """
        return (annotation_id // ANNOTATION_BLOCK) % self._shards

    # -- checkout -------------------------------------------------------

    def _check_shard(self, shard: int) -> int:
        if not 0 <= shard < self._shards:
            raise StorageError(
                f"shard {shard} out of range (backend has {self._shards})"
            )
        return shard

    def writer(self, shard: int = META_SHARD) -> sqlite3.Connection:
        return self._writers[self._check_shard(shard)]

    def pool(self, shard: int = META_SHARD) -> ConnectionPool:
        return self._pools[self._check_shard(shard)]

    @contextlib.contextmanager
    def transaction(
        self, shard: int = META_SHARD
    ) -> Iterator[sqlite3.Connection]:
        with self._pools[self._check_shard(shard)].write() as connection:
            with connection:
                yield connection

    @contextlib.contextmanager
    def read(self, shard: int = META_SHARD) -> Iterator[sqlite3.Connection]:
        with self._pools[self._check_shard(shard)].read() as connection:
            yield connection

    # -- fan-out helpers ------------------------------------------------

    def submit_scan(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Run one scatter-gather scan producer on the scan pool."""
        if self._closed:
            raise RuntimeError(
                "sharded backend is closed — no further statements can "
                "be served"
            )
        return self._scan_executor.submit(fn, *args)

    def run_write_fanout(
        self, thunks: Sequence[Callable[[], Any]]
    ) -> list[Any]:
        """Run one logical write's per-shard sub-writes concurrently.

        Each thunk is one shard's transaction.  Narrow fan-outs (one or
        two shards — the common case for block-affine annotation
        batches) run inline in the calling thread: an executor hop costs
        more than it saves there, and under GIL pressure a handoff can
        stall for a full scheduler timeslice.  Wider fan-outs run on the
        writer pool so their commit waits overlap.  All submitted thunks
        are awaited even when one fails, so no sub-transaction is left
        in flight; the first failure is re-raised.
        """
        if len(thunks) <= 2:
            return [thunk() for thunk in thunks]
        futures = [self._write_executor.submit(thunk) for thunk in thunks]
        results: list[Any] = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # -- tracing, counters, teardown ------------------------------------

    def set_trace(self, callback: Callable[[str], None] | None) -> None:
        for pool in self._pools:
            pool.set_trace(callback)

    def counters(self) -> dict[str, dict[str, int]]:
        return {
            str(shard): pool.stats()
            for shard, pool in enumerate(self._pools)
        }

    def close(self) -> None:
        """Shut the executors down, then close every shard's pool."""
        if self._closed:
            return
        self._closed = True
        self._scan_executor.shutdown(wait=False, cancel_futures=True)
        self._write_executor.shutdown(wait=True, cancel_futures=True)
        for pool in self._pools:
            pool.close()
