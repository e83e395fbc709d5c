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
deserialized once per session.  Summary state is plain persistence: the
catalog loads, saves and deletes it and caches none of it.  The one cache
of summary objects is
:class:`~repro.maintenance.incremental.SummaryManager`'s, which reads
through this catalog; a write made here directly (:meth:`unlink`,
:meth:`drop_instance`, the rebuild helpers) runs inside the manager's
:meth:`~repro.maintenance.incremental.SummaryManager.bypass` when a
manager serves the same catalog.

The catalog is shared across concurrent queries: the live-instance map is
guarded by a lock that is never held across SQL.

Under a sharded backend the instance definitions and links stay on the
meta shard (small, metadata-shaped), while summary state is co-located
with its base row on ``shard_of(table, row_id)`` — the scan path's
block fetches group rows by home shard and hit each shard once per
block.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence

from repro.concurrency import make_lock
from repro.errors import (
    CatalogError,
    DuplicateInstanceError,
    UnknownInstanceError,
)
from repro.storage.backend import META_SHARD
from repro.storage.database import Database, ShardStatement
from repro.storage.schema import SYSTEM_PREFIX
from repro.storage.sqlsafe import placeholders
from repro.summaries.base import SummaryInstance, SummaryObject
from repro.summaries.registry import SummaryTypeRegistry, default_registry

_INSTANCES_TABLE = f"{SYSTEM_PREFIX}instances"
_LINKS_TABLE = f"{SYSTEM_PREFIX}links"
_STATE_TABLE = f"{SYSTEM_PREFIX}summary_state"

_UPSERT_STATE = f"""
    INSERT INTO {_STATE_TABLE} (instance_name, table_name, row_id, object)
    VALUES (?, ?, ?, ?)
    ON CONFLICT (instance_name, table_name, row_id)
    DO UPDATE SET object = excluded.object
"""


class SummaryCatalog:
    """Persistent catalog of summary instances, links, and state.

    Parameters
    ----------
    database, registry:
        The shared storage stack and the summary type registry.
    """

    def __init__(
        self,
        database: Database,
        registry: SummaryTypeRegistry | None = None,
    ) -> None:
        self._db = database
        self.registry = registry or default_registry()
        self._live_instances: dict[str, SummaryInstance] = {}
        self._instances_lock = make_lock("catalog.instances")
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
        key = [(instance_name,)]
        batches: dict[int, list[ShardStatement]] = {
            shard: [(f"DELETE FROM {_STATE_TABLE} WHERE instance_name = ?", key)]
            for shard in range(self._db.shard_count)
        }
        batches[META_SHARD] += [
            (f"DELETE FROM {_LINKS_TABLE} WHERE instance_name = ?", key),
            (f"DELETE FROM {_INSTANCES_TABLE} WHERE instance_name = ?", key),
        ]
        self._db.commit_shards(batches)
        with self._instances_lock:
            self._live_instances.pop(instance_name, None)

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
        batches = self._purge_pair(instance_name, table_name)
        batches[META_SHARD].append(
            (
                f"DELETE FROM {_LINKS_TABLE} "
                "WHERE instance_name = ? AND table_name = ?",
                [(instance_name, table_name)],
            )
        )
        self._db.commit_shards(batches)

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
        transaction per home shard.

        The bulk ingestion write-back path — a batch that touched N
        summary objects persists them with a single
        BEGIN/executemany/COMMIT instead of N separate transactions.
        Serialization happens before the transaction opens, so a
        ``to_json`` failure never leaves a half-written batch.  Returns
        the number of objects written.
        """
        if not entries:
            return 0
        self._db.commit_shards(
            {
                shard: [(_UPSERT_STATE, rows)]
                for shard, rows in self._state_rows(entries).items()
            }
        )
        return len(entries)

    def replace_objects(
        self,
        instance_name: str,
        table_name: str,
        objects: Mapping[int, SummaryObject],
    ) -> None:
        """Replace all of one pair's summary state with ``objects``.

        ``objects`` maps row id to its object; rows absent from it keep
        no state.  On every shard one transaction purges the pair and
        upserts the shard's objects — the rebuild write-back.
        """
        batches = self._purge_pair(instance_name, table_name)
        entries = [(instance_name, table_name, row, obj) for row, obj in objects.items()]
        for shard, rows in self._state_rows(entries).items():
            batches[shard].append((_UPSERT_STATE, rows))
        self._db.commit_shards(batches)

    def _purge_pair(
        self, instance_name: str, table_name: str
    ) -> dict[int, list[ShardStatement]]:
        """Per-shard statements deleting one pair's summary state."""
        return {
            shard: [
                (
                    f"DELETE FROM {_STATE_TABLE} "
                    "WHERE instance_name = ? AND table_name = ?",
                    [(instance_name, table_name)],
                )
            ]
            for shard in range(self._db.shard_count)
        }

    def _state_rows(
        self, entries: Sequence[tuple[str, str, int, SummaryObject]]
    ) -> dict[int, list[tuple[str, str, int, str]]]:
        """Serialized state rows grouped by home shard."""
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
        return by_shard

    def load_object(
        self, instance_name: str, table_name: str, row_id: int
    ) -> SummaryObject | None:
        """Load one row's summary object, or None when never summarized.

        A one-pair :meth:`load_objects_for_table`.  Each call rebuilds a
        fresh object from storage.
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
        pairs simply absent.  One SQL query per home shard of the rows
        (chunked only to respect SQLite's bound-variable limit).
        """
        if not instance_names:
            return {}
        instance_marks = placeholders(len(instance_names))
        # Route each row to its home shard: one query per (shard, chunk).
        backend = self._db.backend
        rows_by_shard: dict[int, list[int]] = {}
        for row_id in sorted(set(row_ids)):
            rows_by_shard.setdefault(
                backend.shard_of(table_name, row_id), []
            ).append(row_id)
        result: dict[tuple[str, int], SummaryObject] = {}
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
                    (table_name, *instance_names, *chunk),
                    shard=shard,
                )
                for instance_name, row_id, payload in rows:
                    result[(instance_name, row_id)] = self._deserialize_object(
                        payload, instance_name, table_name, row_id
                    )
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
