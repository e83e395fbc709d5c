"""The summary catalog.

Persists levels 2 and 3 of the summarization hierarchy:

* **instance definitions** — name, type, and the type-specific
  configuration (labels, trained model, thresholds, invariant flags);
* **links** — the many-to-many relation between instances and user tables
  (Figure 4): linking instance *I* to table *R* means every *R* tuple's
  annotations are summarized by *I*;
* **summary state** — the per-(instance, table, row) summary objects,
  stored as JSON and rebuilt through the type registry.

Live instances are cached after first resolution, so the trained model is
deserialized once per session.  Summary state reads go through a bounded
LRU deserialization cache keyed by ``(instance, table, row_id)`` — repeated
queries over the same rows skip both the SQLite roundtrip and the
``json.loads`` + ``object_from_json`` rebuild.  The cache also remembers
*absence* (rows that were never summarized), which full-table scans hit
constantly.  Every write path (:meth:`save_object`, :meth:`delete_object`,
:meth:`unlink`, :meth:`drop_instance`) invalidates the affected entries.

The catalog is shared across concurrent queries: the deserialization LRU
and the live-instance map are guarded by fine-grained locks, and the lock
is never held across SQL — cache probe under the lock, fetch on a pooled
read connection outside it, fill under the lock again.  Two threads
missing the same key may both fetch (a benign double-read); the second
fill simply overwrites the first with an equal object.  A fill skips
keys a write invalidated while the fetch was in flight.

Under a sharded backend the instance definitions and links stay on the
meta shard (small, metadata-shaped), while summary state is co-located
with its base row on ``shard_of(table, row_id)`` — the scan path's
block fetches group rows by home shard and hit each shard once per
block.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence

from repro.concurrency import InvalidationStamps, make_lock
from repro.errors import (
    CatalogError,
    DuplicateInstanceError,
    UnknownInstanceError,
)
from repro.storage.backend import META_SHARD
from repro.storage.database import Database
from repro.storage.schema import SYSTEM_PREFIX
from repro.storage.sqlsafe import placeholders
from repro.summaries.base import SummaryInstance, SummaryObject
from repro.summaries.registry import SummaryTypeRegistry, default_registry

_INSTANCES_TABLE = f"{SYSTEM_PREFIX}instances"
_LINKS_TABLE = f"{SYSTEM_PREFIX}links"
_STATE_TABLE = f"{SYSTEM_PREFIX}summary_state"

#: Default bound of the deserialization cache (objects + absence markers).
DEFAULT_OBJECT_CACHE_SIZE = 8192

#: Sentinel distinguishing "cached as absent" from "not cached".
_ABSENT = object()


class SummaryCatalog:
    """Persistent catalog of summary instances, links, and state.

    Parameters
    ----------
    database, registry:
        The shared storage stack and the summary type registry.
    object_cache_size:
        Bound of the deserialization LRU (``0`` disables caching — the
        benchmarks use this to emulate the uncached per-row path).
    """

    def __init__(
        self,
        database: Database,
        registry: SummaryTypeRegistry | None = None,
        object_cache_size: int = DEFAULT_OBJECT_CACHE_SIZE,
    ) -> None:
        if object_cache_size < 0:
            raise ValueError(
                f"object_cache_size must be >= 0, got {object_cache_size}"
            )
        self._db = database
        self.registry = registry or default_registry()
        self._live_instances: dict[str, SummaryInstance] = {}
        self._instances_lock = make_lock("catalog.instances")
        self._object_cache_size = object_cache_size
        # (instance, table, row_id) -> SummaryObject | _ABSENT, LRU-ordered.
        self._object_cache: OrderedDict[tuple[str, str, int], object] = (
            OrderedDict()
        )
        # Guards the LRU, its stamps and counters; never held across SQL.
        self._cache_lock = make_lock("catalog.cache")
        self._cache_stamps = InvalidationStamps(max(object_cache_size, 1))
        self.cache_hits = 0
        self.cache_misses = 0
        for shard in range(database.shard_count):
            with database.transaction(shard) as connection:
                if shard == META_SHARD:
                    # Instance definitions and links are metadata — they
                    # stay on the meta shard; only per-row summary state
                    # fans out with its base rows.
                    connection.execute(
                        f"""
                        CREATE TABLE IF NOT EXISTS {_INSTANCES_TABLE} (
                            instance_name TEXT PRIMARY KEY,
                            type_name TEXT NOT NULL,
                            config TEXT NOT NULL
                        )
                        """
                    )
                    connection.execute(
                        f"""
                        CREATE TABLE IF NOT EXISTS {_LINKS_TABLE} (
                            instance_name TEXT NOT NULL,
                            table_name TEXT NOT NULL,
                            PRIMARY KEY (instance_name, table_name)
                        )
                        """
                    )
                connection.execute(
                    f"""
                    CREATE TABLE IF NOT EXISTS {_STATE_TABLE} (
                        instance_name TEXT NOT NULL,
                        table_name TEXT NOT NULL,
                        row_id INTEGER NOT NULL,
                        object TEXT NOT NULL,
                        PRIMARY KEY (instance_name, table_name, row_id)
                    )
                    """
                )
                # The scan path looks state up by (table, row) across all
                # linked instances; the primary key leads with
                # instance_name, so without this index those lookups walk
                # the whole table.
                connection.execute(
                    f"""
                    CREATE INDEX IF NOT EXISTS {_STATE_TABLE}_by_table_row
                    ON {_STATE_TABLE} (table_name, row_id, instance_name)
                    """
                )

    # -- deserialization cache ------------------------------------------

    def configure_object_cache(self, size: int) -> None:
        """Resize (``0``: disable and clear) the deserialization cache."""
        if size < 0:
            raise ValueError(f"object_cache_size must be >= 0, got {size}")
        with self._cache_lock:
            self._object_cache_size = size
            if size == 0:
                self._object_cache.clear()
            else:
                while len(self._object_cache) > size:
                    self._object_cache.popitem(last=False)

    def object_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters for monitoring and tests."""
        with self._cache_lock:
            return {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "entries": len(self._object_cache),
                "capacity": self._object_cache_size,
            }

    def _cache_invalidate(self, key: tuple[str, str, int]) -> None:
        with self._cache_lock:
            self._object_cache.pop(key, None)
            self._cache_stamps.invalidate(key)

    def _cache_invalidate_pair(
        self, instance_name: str, table_name: str | None
    ) -> None:
        """Drop all cached entries of an instance (optionally one table)."""
        with self._cache_lock:
            stale = [
                key
                for key in self._object_cache
                if key[0] == instance_name
                and (table_name is None or key[1] == table_name)
            ]
            for key in stale:
                del self._object_cache[key]
            self._cache_stamps.invalidate_all()

    # -- instance definitions -----------------------------------------

    def define_instance(
        self, type_name: str, instance_name: str, config: dict
    ) -> SummaryInstance:
        """Create, persist, and return a new summary instance."""
        if self.has_instance(instance_name):
            raise DuplicateInstanceError(instance_name)
        instance = self.registry.create_instance(type_name, instance_name, config)
        with self._db.transaction() as connection:
            connection.execute(
                f"""
                INSERT INTO {_INSTANCES_TABLE}
                    (instance_name, type_name, config) VALUES (?, ?, ?)
                """,
                (instance_name, type_name, json.dumps(instance.config())),
            )
        with self._instances_lock:
            self._live_instances[instance_name] = instance
        return instance

    def save_instance_config(self, instance_name: str) -> None:
        """Re-persist a live instance's configuration.

        Call after mutating instance state that must survive restarts —
        typically after training a classifier's model.
        """
        instance = self.get_instance(instance_name)
        with self._db.transaction() as connection:
            connection.execute(
                f"UPDATE {_INSTANCES_TABLE} SET config = ? WHERE instance_name = ?",
                (json.dumps(instance.config()), instance_name),
            )

    def drop_instance(self, instance_name: str) -> None:
        """Remove an instance, its links, and all its summary state.

        Summary state lives on every shard, so the purge fans out; the
        definition and links go with the meta shard's sub-transaction.
        """
        if not self.has_instance(instance_name):
            raise UnknownInstanceError(instance_name)

        def purge(shard: int) -> Callable[[], None]:
            def thunk() -> None:
                with self._db.transaction(shard) as connection:
                    connection.execute(
                        f"DELETE FROM {_STATE_TABLE} WHERE instance_name = ?",
                        (instance_name,),
                    )
                    if shard == META_SHARD:
                        connection.execute(
                            f"DELETE FROM {_LINKS_TABLE} "
                            "WHERE instance_name = ?",
                            (instance_name,),
                        )
                        connection.execute(
                            f"DELETE FROM {_INSTANCES_TABLE} "
                            "WHERE instance_name = ?",
                            (instance_name,),
                        )

            return thunk

        self._db.backend.run_write_fanout(
            [purge(shard) for shard in range(self._db.shard_count)]
        )
        with self._instances_lock:
            self._live_instances.pop(instance_name, None)
        self._cache_invalidate_pair(instance_name, None)

    def has_instance(self, instance_name: str) -> bool:
        """True when the instance is defined."""
        with self._instances_lock:
            if instance_name in self._live_instances:
                return True
        row = self._db.fetch_one(
            f"SELECT 1 FROM {_INSTANCES_TABLE} WHERE instance_name = ?",
            (instance_name,),
        )
        return row is not None

    def get_instance(self, instance_name: str) -> SummaryInstance:
        """Resolve a live instance, deserializing it on first access.

        Two threads racing the first access may both deserialize; the
        first registration wins so every caller shares one live object
        (instance state — e.g. a trained model — must stay singular).
        """
        with self._instances_lock:
            if instance_name in self._live_instances:
                return self._live_instances[instance_name]
        row = self._db.fetch_one(
            f"""
            SELECT type_name, config FROM {_INSTANCES_TABLE}
            WHERE instance_name = ?
            """,
            (instance_name,),
        )
        if row is None:
            raise UnknownInstanceError(instance_name)
        type_name, config_json = row
        try:
            instance = self.registry.create_instance(
                type_name, instance_name, json.loads(config_json)
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise CatalogError(
                f"corrupted configuration for instance {instance_name!r} "
                f"(type {type_name!r}): {exc}"
            ) from exc
        with self._instances_lock:
            return self._live_instances.setdefault(instance_name, instance)

    def instance_names(self) -> list[str]:
        """All defined instance names, sorted."""
        rows = self._db.fetch_all(
            f"SELECT instance_name FROM {_INSTANCES_TABLE} ORDER BY instance_name"
        )
        return [row[0] for row in rows]

    # -- links ----------------------------------------------------------

    def link(self, instance_name: str, table_name: str) -> None:
        """Link an instance to a user table (idempotent)."""
        if not self.has_instance(instance_name):
            raise UnknownInstanceError(instance_name)
        self._db.schema(table_name)  # raises for unknown tables
        with self._db.transaction() as connection:
            connection.execute(
                f"""
                INSERT OR IGNORE INTO {_LINKS_TABLE}
                    (instance_name, table_name) VALUES (?, ?)
                """,
                (instance_name, table_name),
            )

    def unlink(self, instance_name: str, table_name: str) -> None:
        """Remove a link and the instance's state for that table."""
        if not self.has_instance(instance_name):
            raise UnknownInstanceError(instance_name)

        def purge(shard: int) -> Callable[[], None]:
            def thunk() -> None:
                with self._db.transaction(shard) as connection:
                    if shard == META_SHARD:
                        connection.execute(
                            f"""
                            DELETE FROM {_LINKS_TABLE}
                            WHERE instance_name = ? AND table_name = ?
                            """,
                            (instance_name, table_name),
                        )
                    connection.execute(
                        f"""
                        DELETE FROM {_STATE_TABLE}
                        WHERE instance_name = ? AND table_name = ?
                        """,
                        (instance_name, table_name),
                    )

            return thunk

        self._db.backend.run_write_fanout(
            [purge(shard) for shard in range(self._db.shard_count)]
        )
        self._cache_invalidate_pair(instance_name, table_name)

    def is_linked(self, instance_name: str, table_name: str) -> bool:
        """True when the instance is linked to the table."""
        row = self._db.fetch_one(
            f"""
            SELECT 1 FROM {_LINKS_TABLE}
            WHERE instance_name = ? AND table_name = ?
            """,
            (instance_name, table_name),
        )
        return row is not None

    def instances_for_table(self, table_name: str) -> list[SummaryInstance]:
        """Live instances linked to ``table_name``, name-sorted.

        One JOIN against the instances table instead of one definition
        lookup per link — already-live instances skip deserialization.
        """
        rows = self._db.fetch_all(
            f"""
            SELECT l.instance_name, i.type_name, i.config
            FROM {_LINKS_TABLE} l
            JOIN {_INSTANCES_TABLE} i ON i.instance_name = l.instance_name
            WHERE l.table_name = ? ORDER BY l.instance_name
            """,
            (table_name,),
        )
        instances: list[SummaryInstance] = []
        for instance_name, type_name, config_json in rows:
            with self._instances_lock:
                live = self._live_instances.get(instance_name)
            if live is None:
                try:
                    live = self.registry.create_instance(
                        type_name, instance_name, json.loads(config_json)
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise CatalogError(
                        f"corrupted configuration for instance "
                        f"{instance_name!r} (type {type_name!r}): {exc}"
                    ) from exc
                with self._instances_lock:
                    live = self._live_instances.setdefault(instance_name, live)
            instances.append(live)
        return instances

    def links(self) -> list[tuple[str, str]]:
        """All ``(instance, table)`` links, sorted."""
        rows = self._db.fetch_all(
            f"""
            SELECT instance_name, table_name FROM {_LINKS_TABLE}
            ORDER BY instance_name, table_name
            """
        )
        return [(row[0], row[1]) for row in rows]

    # -- summary state ------------------------------------------------

    def save_object(
        self, instance_name: str, table_name: str, row_id: int, obj: SummaryObject
    ) -> None:
        """Persist the summary object for one base row (upsert)."""
        self.save_objects([(instance_name, table_name, row_id, obj)])

    def save_objects(
        self,
        entries: Sequence[tuple[str, str, int, SummaryObject]],
    ) -> int:
        """Bulk :meth:`save_object`: one ``executemany`` upsert, one
        transaction.

        The bulk ingestion write-back path — a batch that touched N
        summary objects persists them with a single
        BEGIN/executemany/COMMIT instead of N separate transactions.
        Serialization happens before the transaction opens, so a
        ``to_json`` failure never leaves a half-written batch.  Returns
        the number of objects written.
        """
        if not entries:
            return 0
        by_shard: dict[int, list[tuple[str, str, int, str]]] = {}
        backend = self._db.backend
        for instance_name, table_name, row_id, obj in entries:
            if obj.instance_name != instance_name:
                raise CatalogError(
                    f"object belongs to instance {obj.instance_name!r}, "
                    f"not {instance_name!r}"
                )
            by_shard.setdefault(backend.shard_of(table_name, row_id), []).append(
                (instance_name, table_name, row_id, json.dumps(obj.to_json()))
            )

        def write_shard(shard: int) -> Callable[[], None]:
            def thunk() -> None:
                with self._db.transaction(shard) as connection:
                    connection.executemany(
                        f"""
                        INSERT INTO {_STATE_TABLE}
                            (instance_name, table_name, row_id, object)
                        VALUES (?, ?, ?, ?)
                        ON CONFLICT (instance_name, table_name, row_id)
                        DO UPDATE SET object = excluded.object
                        """,
                        by_shard[shard],
                    )

            return thunk

        backend.run_write_fanout(
            [write_shard(shard) for shard in sorted(by_shard)]
        )
        # Drop rather than insert: the objects are live maintenance state
        # that keeps mutating; the cache must only hold settled state.
        for instance_name, table_name, row_id, _obj in entries:
            self._cache_invalidate((instance_name, table_name, row_id))
        return len(entries)

    def load_object(
        self, instance_name: str, table_name: str, row_id: int
    ) -> SummaryObject | None:
        """Load one row's summary object, or None when never summarized.

        A one-pair :meth:`load_objects_for_table`, so it shares that
        method's cache and fill rules.  Callers must not mutate the
        returned object in place: queries take its
        :meth:`~repro.summaries.base.SummaryObject.for_query` value (the
        scan path) and project or merge that, and anything else mutates a
        :meth:`~repro.summaries.base.SummaryObject.copy`.
        """
        return self.load_objects_for_table(
            (instance_name,), table_name, (row_id,)
        ).get((instance_name, row_id))

    def load_objects_for_table(
        self,
        instance_names: Sequence[str],
        table_name: str,
        row_ids: Sequence[int],
    ) -> dict[tuple[str, int], SummaryObject]:
        """Bulk :meth:`load_object` for a block of rows.

        Returns ``(instance_name, row_id) -> object`` with never-summarized
        pairs simply absent.  Cache hits (including cached absences) are
        served from the LRU; the remaining pairs are fetched in **one**
        SQL query per block (chunked only to respect SQLite's
        bound-variable limit), then cached.  The same mutation rules as
        :meth:`load_object` apply.
        """
        result: dict[tuple[str, int], SummaryObject] = {}
        missing: set[tuple[str, int]] = set()
        # One lock window for the whole block's probes — per-pair
        # locking would acquire the lock instances x rows times.
        with self._cache_lock:
            snapshot = self._cache_stamps.snapshot()
            cache = self._object_cache
            for instance_name in instance_names:
                for row_id in row_ids:
                    cached = cache.get((instance_name, table_name, row_id))
                    if cached is None:
                        self.cache_misses += 1
                        missing.add((instance_name, row_id))
                        continue
                    cache.move_to_end((instance_name, table_name, row_id))
                    self.cache_hits += 1
                    if cached is not _ABSENT:
                        result[(instance_name, row_id)] = cached  # type: ignore[assignment]
        if not missing:
            return result
        fetch_instances = sorted({pair[0] for pair in missing})
        instance_marks = placeholders(len(fetch_instances))
        # Route each row to its home shard: one query per (shard, chunk).
        backend = self._db.backend
        fetched: dict[tuple[str, int], object] = {}
        rows_by_shard: dict[int, list[int]] = {}
        for row_id in sorted({pair[1] for pair in missing}):
            rows_by_shard.setdefault(
                backend.shard_of(table_name, row_id), []
            ).append(row_id)
        for shard in sorted(rows_by_shard):
            fetch_rows = rows_by_shard[shard]
            for chunk_start in range(0, len(fetch_rows), 500):
                chunk = fetch_rows[chunk_start : chunk_start + 500]
                row_marks = placeholders(len(chunk))
                rows = self._db.fetch_all(
                    f"""
                    SELECT instance_name, row_id, object FROM {_STATE_TABLE}
                    WHERE table_name = ?
                      AND instance_name IN ({instance_marks})
                      AND row_id IN ({row_marks})
                    """,
                    (table_name, *fetch_instances, *chunk),
                    shard=shard,
                )
                for instance_name, row_id, payload in rows:
                    pair = (instance_name, row_id)
                    if pair not in missing:
                        continue  # over-fetched: the pair was already cached
                    missing.discard(pair)
                    result[pair] = fetched[pair] = self._deserialize_object(
                        payload, instance_name, table_name, row_id
                    )
        fetched.update(dict.fromkeys(missing, _ABSENT))  # never summarized
        # Fill, skipping keys a write invalidated since the probe.
        with self._cache_lock:
            if self._object_cache_size:
                for (instance_name, row_id), value in fetched.items():
                    key = (instance_name, table_name, row_id)
                    if self._cache_stamps.fillable(key, snapshot):
                        cache[key] = value
                        cache.move_to_end(key)
                while len(cache) > self._object_cache_size:
                    cache.popitem(last=False)
        return result

    def _deserialize_object(
        self, payload: str, instance_name: str, table_name: str, row_id: int
    ) -> SummaryObject:
        """Rebuild a stored object, wrapping corruption in CatalogError."""
        try:
            return self.registry.object_from_json(json.loads(payload))
        except (ValueError, KeyError, TypeError) as exc:
            raise CatalogError(
                f"corrupted summary state for instance {instance_name!r} on "
                f"{table_name}[{row_id}]: {exc}"
            ) from exc

    def delete_object(
        self, instance_name: str, table_name: str, row_id: int
    ) -> None:
        """Drop one row's persisted summary object (no-op when absent)."""
        shard = self._db.backend.shard_of(table_name, row_id)
        with self._db.transaction(shard) as connection:
            connection.execute(
                f"""
                DELETE FROM {_STATE_TABLE}
                WHERE instance_name = ? AND table_name = ? AND row_id = ?
                """,
                (instance_name, table_name, row_id),
            )
        self._cache_invalidate((instance_name, table_name, row_id))

    def iter_objects(
        self, instance_name: str, table_name: str
    ) -> Iterator[tuple[int, SummaryObject]]:
        """Iterate ``(row_id, object)`` for one instance/table pair."""
        rows: list[tuple] = []
        for shard in range(self._db.shard_count):
            rows.extend(
                self._db.fetch_all(
                    f"""
                    SELECT row_id, object FROM {_STATE_TABLE}
                    WHERE instance_name = ? AND table_name = ?
                    ORDER BY row_id
                    """,
                    (instance_name, table_name),
                    shard=shard,
                )
            )
        rows.sort(key=lambda row: row[0])
        for row_id, object_json in rows:
            yield row_id, self._deserialize_object(
                object_json, instance_name, table_name, row_id
            )

    def summary_bytes(self, table_name: str | None = None) -> int:
        """Total serialized size of stored summary objects."""
        total = 0
        for shard in range(self._db.shard_count):
            if table_name is None:
                row = self._db.fetch_one(
                    f"SELECT COALESCE(SUM(LENGTH(object)), 0) "
                    f"FROM {_STATE_TABLE}",
                    shard=shard,
                )
            else:
                row = self._db.fetch_one(
                    f"""
                    SELECT COALESCE(SUM(LENGTH(object)), 0) FROM {_STATE_TABLE}
                    WHERE table_name = ?
                    """,
                    (table_name,),
                    shard=shard,
                )
            assert row is not None
            total += row[0]
        return total

    def object_statistics(self, table_name: str) -> dict[str, tuple[int, int]]:
        """Per-instance ``(object_count, total_bytes)`` for one table.

        Feeds the planner's catalog statistics: hydration cost scales
        with how many summary objects a scan must load and how large
        their serialized forms are.  Counts and byte totals both sum
        cleanly across shards (each stored object lives on exactly one
        shard).
        """
        merged: dict[str, tuple[int, int]] = {}
        for shard in range(self._db.shard_count):
            rows = self._db.fetch_all(
                f"""
                SELECT instance_name, COUNT(*),
                       COALESCE(SUM(LENGTH(object)), 0)
                FROM {_STATE_TABLE}
                WHERE table_name = ? GROUP BY instance_name
                """,
                (table_name,),
                shard=shard,
            )
            for instance_name, count, total in rows:
                have = merged.get(instance_name, (0, 0))
                merged[instance_name] = (have[0] + count, have[1] + total)
        return merged
