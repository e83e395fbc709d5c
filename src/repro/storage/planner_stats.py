"""Persistence for the planner's catalog statistics.

The cost model (DESIGN.md §13) prices plans from per-table
statistics — row counts, per-column distinct-value estimates, per-
instance summary-object cardinality and serialized size.  Those numbers
are collected by ``InsightNotes.analyze()`` and kept **current** in
memory by incremental upkeep on ingest; this module owns their durable
form: one meta-shard table mapping ``(table_name, stat_key)`` to a
numeric value, so a reopened session starts from the last ANALYZE
instead of from nothing.

Key namespace (all values REAL):

``row_count``
    Base rows in the table at analyze time.
``annotations``
    Attachment rows targeting the table.
``analyzed_at``
    Epoch seconds of the collecting ANALYZE.
``ndv:<column>``
    Distinct non-NULL values of one column (per-shard maximum on a
    sharded backend — a lower bound, which only makes the planner's
    selectivity estimates conservative).
``summary_count:<instance>`` / ``summary_bytes:<instance>``
    Stored summary objects of one linked instance on this table, and
    their total serialized size.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.storage.database import Database
from repro.storage.schema import SYSTEM_PREFIX

_PLANNER_STATS_TABLE = f"{SYSTEM_PREFIX}planner_stats"


class PlannerStatsStore:
    """The ``planner_stats`` system table: load/replace per-table stats.

    Metadata, like instance definitions and links, lives on the meta
    shard only — statistics describe whole tables, not row partitions.
    """

    def __init__(self, database: Database) -> None:
        self._db = database
        with database.transaction() as connection:
            connection.execute(
                f"""
                CREATE TABLE IF NOT EXISTS {_PLANNER_STATS_TABLE} (
                    table_name TEXT NOT NULL,
                    stat_key TEXT NOT NULL,
                    stat_value REAL NOT NULL,
                    PRIMARY KEY (table_name, stat_key)
                )
                """
            )

    def replace_table(self, table: str, stats: Mapping[str, float]) -> None:
        """Atomically replace every persisted stat of one table."""
        with self._db.transaction() as connection:
            connection.execute(
                f"DELETE FROM {_PLANNER_STATS_TABLE} WHERE table_name = ?",
                (table,),
            )
            connection.executemany(
                f"INSERT INTO {_PLANNER_STATS_TABLE} "
                "(table_name, stat_key, stat_value) VALUES (?, ?, ?)",
                [(table, key, float(value)) for key, value in stats.items()],
            )

    def load_table(self, table: str) -> dict[str, float]:
        """Persisted stats of one table ({} when never analyzed)."""
        rows = self._db.fetch_all(
            f"SELECT stat_key, stat_value FROM {_PLANNER_STATS_TABLE} "
            "WHERE table_name = ?",
            (table,),
        )
        return {key: value for key, value in rows}

    def load_all(self) -> dict[str, dict[str, float]]:
        """Every persisted stat, grouped by table."""
        rows = self._db.fetch_all(
            f"SELECT table_name, stat_key, stat_value "
            f"FROM {_PLANNER_STATS_TABLE}"
        )
        loaded: dict[str, dict[str, float]] = {}
        for table, key, value in rows:
            loaded.setdefault(table, {})[key] = value
        return loaded

    def delete_table(self, table: str) -> None:
        """Drop one table's persisted stats (table dropped or renamed)."""
        with self._db.transaction() as connection:
            connection.execute(
                f"DELETE FROM {_PLANNER_STATS_TABLE} WHERE table_name = ?",
                (table,),
            )

    def clear(self) -> None:
        """Drop every persisted stat (the stats-staleness tests use this)."""
        with self._db.transaction() as connection:
            connection.execute(f"DELETE FROM {_PLANNER_STATS_TABLE}")
