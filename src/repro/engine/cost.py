"""Catalog statistics and the cost model that prices plans.

DESIGN.md §13.  Two pieces live here:

* :class:`CatalogStatistics` — per-table statistics (row counts,
  per-column distinct values, per-instance summary-object counts and
  serialized bytes, attachment counts), collected by ``ANALYZE``
  (:meth:`CatalogStatistics.analyze`), seeded from a COUNT(*) for a
  never-analyzed table, and refined by live execution feedback
  (observed ``rows_scanned`` of full scans).  They live in memory only.
* :class:`CostModel` — prices a logical plan bottom-up into a
  :class:`CostEstimate` (output cardinality + abstract cost units).
  The units are calibrated relative to each other, not to wall-clock:
  streaming a row costs ~1, evaluating a predicate a fraction of that,
  hydrating a row several times more (plus a per-byte term for summary
  deserialization).  With no statistics at all the model falls back to
  fixed defaults, so ``explain()`` works before any ``ANALYZE``.

The model prices plans and decides nothing: every rewrite in
:class:`~repro.engine.planner.Planner` is a rule, and the estimates feed
only ``explain()`` and each result's ``cost_estimate`` in traces.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.concurrency import make_lock
from repro.engine import plan as lp
from repro.engine.expressions import (
    BooleanOp,
    Column,
    Comparison,
    Expression,
    ExpressionError,
    InList,
    IsNull,
    Like,
    Not,
    resolve_column,
    uses_summaries,
)
from repro.errors import PlanError, UnknownTableError
from repro.storage.annotations import AnnotationStore
from repro.storage.catalog import SummaryCatalog
from repro.storage.database import Database

if TYPE_CHECKING:
    from repro.engine.operators import ExecutionStats

@dataclass
class TableStats:
    """Everything the cost model knows about one table."""

    table: str
    row_count: float = 0.0
    #: column name -> distinct non-NULL values (lower bound on shards).
    ndv: dict[str, float] = field(default_factory=dict)
    #: instance name -> (stored object count, total serialized bytes).
    summary_objects: dict[str, tuple[float, float]] = field(
        default_factory=dict
    )
    #: attachment rows targeting the table.
    annotations: float = 0.0
    #: epoch seconds of the collecting ANALYZE; None when the stats were
    #: only seeded from a COUNT(*) or execution feedback.
    analyzed_at: float | None = None

    def column_ndv(self, column: str) -> float | None:
        """Distinct values of ``column``, clamped into [1, row_count]."""
        value = self.ndv.get(column)
        if value is None:
            return None
        return max(1.0, min(value, max(self.row_count, 1.0)))

    def summary(self) -> dict[str, Any]:
        """Human-readable digest (the return value of ``analyze()``)."""
        return {
            "row_count": int(self.row_count),
            "columns_analyzed": len(self.ndv),
            "summary_instances": len(self.summary_objects),
            "summary_objects": int(
                sum(count for count, _ in self.summary_objects.values())
            ),
            "summary_bytes": int(
                sum(total for _, total in self.summary_objects.values())
            ),
            "annotations": int(self.annotations),
            "analyzed_at": self.analyzed_at,
        }


class CatalogStatistics:
    """In-memory statistics registry: seed, collection, feedback.

    Thread-safe; every priced plan reads it and every finished query
    may feed a row count back.  Nothing is persisted and no write path
    updates it: statistics only price plans, so a stale estimate costs
    an explain line, never a wrong or slower plan.
    """

    def __init__(
        self,
        database: Database,
        annotations: AnnotationStore,
        catalog: SummaryCatalog,
    ) -> None:
        self._db = database
        self._annotations = annotations
        self._catalog = catalog
        self._lock = make_lock("engine.cost_stats")
        self._tables: dict[str, TableStats] = {}
        self._feedback_updates = 0

    # -- reads ---------------------------------------------------------

    def table_stats(self, table: str) -> TableStats | None:
        """Stats for ``table``, seeding a COUNT(*)-only stub on first use.

        The stub keeps never-analyzed sessions sharp on the statistic
        that matters most (table sizes dominate every estimate) while
        staying cheap — one COUNT(*) per table per session.
        """
        with self._lock:
            stats = self._tables.get(table)
            if stats is not None:
                return stats
        try:
            observed = float(self._db.row_count(table))
        except UnknownTableError:
            return None
        with self._lock:
            stats = self._tables.get(table)
            if stats is None:
                stats = TableStats(table, row_count=observed)
                self._tables[table] = stats
            return stats

    def freshness(self) -> dict[str, Any]:
        """How current the registry is (exposed via statistics())."""
        with self._lock:
            analyzed = [
                stats.analyzed_at
                for stats in self._tables.values()
                if stats.analyzed_at is not None
            ]
            return {
                "tables_tracked": len(self._tables),
                "tables_analyzed": len(analyzed),
                "last_analyzed_at": max(analyzed) if analyzed else None,
                "feedback_updates": self._feedback_updates,
            }

    # -- collection ----------------------------------------------------

    def analyze(self, table: str | None = None) -> dict[str, dict[str, Any]]:
        """Recollect statistics (one table, or all user tables).

        Runs COUNT(DISTINCT) per column plus the catalog/attachment
        aggregates and replaces the in-memory entry — the explicit
        refresh of the stats lifecycle.
        """
        tables = [table] if table is not None else self._db.tables()
        now = time.time()
        refreshed: dict[str, dict[str, Any]] = {}
        for name in tables:
            stats = self._collect(name, now)
            with self._lock:
                self._tables[name] = stats
            refreshed[name] = stats.summary()
        return refreshed

    def _collect(self, table: str, now: float) -> TableStats:
        stats = TableStats(table, analyzed_at=now)
        stats.row_count = float(self._db.row_count(table))
        for column in self._db.columns(table):
            stats.ndv[column] = float(self._db.distinct_count(table, column))
        stats.annotations = float(
            self._annotations.table_attachment_count(table)
        )
        for instance, (count, total) in self._catalog.object_statistics(
            table
        ).items():
            stats.summary_objects[instance] = (float(count), float(total))
        return stats

    # -- execution feedback --------------------------------------------

    def observe_execution(
        self, root: lp.PlanNode, stats: "ExecutionStats"
    ) -> None:
        """Refine row counts from a finished query's ExecutionStats.

        Only the unambiguous observation is used: a plan with exactly
        one scan, no pushed filter/limit and no LIMIT operator reads the
        whole table, so its ``rows_scanned`` *is* the current row count.
        """
        scans = [node for node in lp.walk(root) if isinstance(node, lp.Scan)]
        if len(scans) != 1:
            return
        scan = scans[0]
        if scan.storage_filter is not None or scan.storage_limit is not None:
            return
        if any(isinstance(node, lp.Limit) for node in lp.walk(root)):
            return  # an engine-side LIMIT may stop the scan early
        observed = float(stats.rows_scanned)
        with self._lock:
            entry = self._tables.get(scan.table)
            if entry is None:
                entry = TableStats(scan.table)
                self._tables[scan.table] = entry
            if entry.row_count != observed:
                entry.row_count = observed
                self._feedback_updates += 1


@dataclass(frozen=True)
class CostEstimate:
    """Output cardinality + abstract cost of one plan subtree."""

    rows: float
    cost: float


class CostModel:
    """Prices logical plans from catalog statistics.

    All constants are in abstract units relative to ``EMIT_ROW`` = the
    cost of streaming one tuple through an operator, calibrated against
    each other rather than measured per machine.
    """

    #: Defaults when a table or column has no statistics at all.
    DEFAULT_ROWS = 1000.0
    DEFAULT_NDV = 10.0
    DEFAULT_SUMMARY_BYTES = 512.0

    EMIT_ROW = 1.0
    #: Pulling one row out of a storage cursor.
    SCAN_ROW = 0.2
    #: SQLite evaluating one pushed-down conjunct (C speed).
    STORAGE_PRED = 0.01
    #: SQLite grouping one row inside a pushed-down aggregation.
    STORAGE_GROUP_ROW = 0.05
    #: Evaluating one value-only conjunct in the engine.
    PRED = 0.1
    #: Evaluating one summary-function conjunct (touches objects).
    SUMMARY_PRED = 0.6
    #: Fixed per-row hydration overhead (attachment lookups, wiring).
    HYDRATE_ROW = 4.0
    #: Deserializing one summary object, plus per-byte JSON cost.
    HYDRATE_OBJECT = 2.0
    HYDRATE_BYTE = 0.004
    #: Hash-join build (right side) and probe (left side), per row.
    JOIN_BUILD = 1.5
    JOIN_PROBE = 1.0
    #: Group/duplicate bookkeeping and summary merging, per input row.
    GROUP_ROW = 1.5
    MERGE_ROW = 1.0
    SORT_ROW = 0.4

    #: Fallback selectivities when a predicate form carries no ndv info.
    EQ_SELECTIVITY_FLOOR = 0.001
    RANGE_SELECTIVITY = 1.0 / 3.0
    DEFAULT_SELECTIVITY = 0.3
    SUMMARY_SELECTIVITY = 0.5
    NULL_SELECTIVITY = 0.1
    LIKE_SELECTIVITY = 0.25

    def __init__(
        self,
        statistics: CatalogStatistics | None,
        schema_of: Callable[[lp.PlanNode], tuple[str, ...]],
    ) -> None:
        self._statistics = statistics
        self._schema_of = schema_of

    # -- public entry points -------------------------------------------

    def estimate(self, root: lp.PlanNode) -> CostEstimate:
        """Cardinality + cost of ``root``, bottom-up."""
        return self._estimate(root, self._alias_map(root))

    def hydration_cost_per_row(
        self, table: str, instances: tuple[str, ...] | None
    ) -> float:
        """Estimated cost of hydrating one row of ``table``.

        ``instances`` follows Scan semantics: None = all linked, () =
        none (only attachments remain), a tuple = that subset.
        """
        stats = self._table_stats(table)
        cost = self.HYDRATE_ROW
        if stats is None:
            named = 1 if instances is None else len(instances)
            return cost + named * (
                self.HYDRATE_OBJECT
                + self.DEFAULT_SUMMARY_BYTES * self.HYDRATE_BYTE
            )
        rows = max(stats.row_count, 1.0)
        wanted = (
            stats.summary_objects.keys() if instances is None else instances
        )
        for instance in wanted:
            count, total = stats.summary_objects.get(instance, (0.0, 0.0))
            if count <= 0:
                continue
            # Coverage: a row only pays for instances that actually
            # stored an object for it.
            coverage = min(1.0, count / rows)
            cost += coverage * (
                self.HYDRATE_OBJECT + (total / count) * self.HYDRATE_BYTE
            )
        return cost

    def predicate_cost_per_row(self, predicate: Expression | None) -> float:
        """Engine-side evaluation cost of a predicate, per row."""
        if predicate is None:
            return 0.0
        cost = 0.0
        for conjunct in _conjuncts(predicate):
            cost += (
                self.SUMMARY_PRED if uses_summaries(conjunct) else self.PRED
            )
        return cost

    # -- per-node estimation -------------------------------------------

    def _estimate(
        self, node: lp.PlanNode, aliases: dict[str, str]
    ) -> CostEstimate:
        if isinstance(node, lp.Scan):
            return self._estimate_scan(node)
        if isinstance(node, lp.StorageAggregate):
            return self._estimate_storage_aggregate(node)
        if isinstance(node, lp.Hydrate):
            child = self._estimate(node.child, aliases)
            per_row = self.hydration_cost_per_row(node.table, node.instances)
            return CostEstimate(child.rows, child.cost + child.rows * per_row)
        if isinstance(node, lp.Select):
            child = self._estimate(node.child, aliases)
            schema = self._schema_of(node.child)
            selectivity = self._selectivity(node.predicate, schema, aliases)
            rows = child.rows * selectivity
            cost = child.cost + child.rows * self.predicate_cost_per_row(
                node.predicate
            )
            return CostEstimate(rows, cost)
        if isinstance(node, lp.Project):
            child = self._estimate(node.child, aliases)
            return CostEstimate(
                child.rows, child.cost + child.rows * 0.5 * self.SCAN_ROW
            )
        if isinstance(node, lp.Compute):
            child = self._estimate(node.child, aliases)
            return CostEstimate(
                child.rows,
                child.cost + child.rows * len(node.items) * self.PRED,
            )
        if isinstance(node, lp.Join):
            return self._estimate_join(node, aliases)
        if isinstance(node, lp.GroupBy):
            return self._estimate_group_by(node, aliases)
        if isinstance(node, lp.Distinct):
            child = self._estimate(node.child, aliases)
            rows = self._group_cardinality(
                self._schema_of(node.child), child.rows, aliases
            )
            cost = child.cost + child.rows * (self.GROUP_ROW + self.MERGE_ROW)
            return CostEstimate(rows, cost)
        if isinstance(node, lp.Sort):
            child = self._estimate(node.child, aliases)
            comparisons = child.rows * math.log2(child.rows + 2.0)
            return CostEstimate(
                child.rows, child.cost + comparisons * self.SORT_ROW
            )
        if isinstance(node, lp.Limit):
            child = self._estimate(node.child, aliases)
            rows = min(child.rows, float(node.count))
            return CostEstimate(rows, child.cost + rows * 0.1 * self.EMIT_ROW)
        if isinstance(node, lp.Union):
            left = self._estimate(node.left, aliases)
            right = self._estimate(node.right, aliases)
            rows = left.rows + right.rows
            cost = left.cost + right.cost + rows * self.EMIT_ROW
            if node.distinct:
                rows *= 0.5
                cost += (left.rows + right.rows) * self.GROUP_ROW
            return CostEstimate(rows, cost)
        raise PlanError(f"cannot price {type(node).__name__}")

    def _estimate_scan(self, node: lp.Scan) -> CostEstimate:
        base = self._table_rows(node.table)
        rows = base
        cost = base * self.SCAN_ROW
        if node.storage_filter is not None:
            conjunct_count = str(node.storage_filter).count(" AND ") + 1
            rows *= self.DEFAULT_SELECTIVITY**conjunct_count
            cost = (
                base * conjunct_count * self.STORAGE_PRED
                + rows * self.SCAN_ROW
            )
        if node.storage_limit is not None:
            capped = min(rows, float(node.storage_limit))
            if rows > 0:
                cost *= max(capped / rows, 0.01)
            rows = capped
        return CostEstimate(max(rows, 0.1), cost)

    def _estimate_storage_aggregate(
        self, node: lp.StorageAggregate
    ) -> CostEstimate:
        base = self._table_rows(node.table)
        scanned = base
        if node.storage_filter is not None:
            conjunct_count = str(node.storage_filter).count(" AND ") + 1
            scanned *= self.DEFAULT_SELECTIVITY**conjunct_count
        if node.key_columns:
            stats = self._table_stats(node.table)
            groups = 1.0
            for column in node.key_columns:
                ndv = None
                if stats is not None:
                    ndv = stats.column_ndv(column)
                groups *= ndv if ndv is not None else self.DEFAULT_NDV
            rows = min(scanned, groups)
        else:
            rows = 1.0
        cost = (
            base * self.STORAGE_PRED
            + scanned * self.STORAGE_GROUP_ROW
            + rows * self.EMIT_ROW
        )
        return CostEstimate(max(rows, 0.1), cost)

    def _estimate_join(
        self, node: lp.Join, aliases: dict[str, str]
    ) -> CostEstimate:
        left = self._estimate(node.left, aliases)
        right = self._estimate(node.right, aliases)
        left_schema = self._schema_of(node.left)
        right_schema = self._schema_of(node.right)
        build_probe = (
            right.rows * self.JOIN_BUILD + left.rows * self.JOIN_PROBE
        )
        if node.predicate is None:
            rows = left.rows * right.rows
            cost = left.cost + right.cost + build_probe + rows * self.EMIT_ROW
            return CostEstimate(max(rows, 0.1), cost)
        equi_ndvs: list[float] = []
        residual_selectivity = 1.0
        residual_count = 0
        for conjunct in _conjuncts(node.predicate):
            ndv = self._equi_ndv(
                conjunct, left_schema, right_schema, aliases
            )
            if ndv is not None:
                equi_ndvs.append(ndv)
            else:
                residual_count += 1
                residual_selectivity *= self._selectivity(
                    conjunct, left_schema + right_schema, aliases
                )
        if equi_ndvs:
            matched = left.rows * right.rows
            for ndv in equi_ndvs:
                matched /= max(ndv, 1.0)
            rows = matched * residual_selectivity
            cost = (
                left.cost
                + right.cost
                + build_probe
                + matched * (self.EMIT_ROW + residual_count * self.PRED)
            )
        else:
            pairs = left.rows * right.rows
            rows = pairs * residual_selectivity
            cost = (
                left.cost
                + right.cost
                + build_probe
                + pairs * max(residual_count, 1) * self.PRED
                + rows * self.EMIT_ROW
            )
        if node.outer:
            rows = max(rows, left.rows)
        return CostEstimate(max(rows, 0.1), cost)

    def _estimate_group_by(
        self, node: lp.GroupBy, aliases: dict[str, str]
    ) -> CostEstimate:
        child = self._estimate(node.child, aliases)
        schema = self._schema_of(node.child)
        if node.keys:
            keys = []
            for key in node.keys:
                try:
                    keys.append(schema[resolve_column(schema, key)])
                except ExpressionError:
                    keys.append(key)
            rows = self._group_cardinality(tuple(keys), child.rows, aliases)
        else:
            rows = 1.0
        cost = child.cost + child.rows * (
            self.GROUP_ROW
            + self.MERGE_ROW
            + len(node.aggregates) * self.PRED
        )
        if node.having is not None:
            cost += rows * self.predicate_cost_per_row(node.having)
            rows *= self.DEFAULT_SELECTIVITY
        return CostEstimate(max(rows, 0.1), cost)

    # -- selectivity ----------------------------------------------------

    def _selectivity(
        self,
        predicate: Expression,
        schema: tuple[str, ...],
        aliases: dict[str, str],
    ) -> float:
        if uses_summaries(predicate):
            return self.SUMMARY_SELECTIVITY
        if isinstance(predicate, BooleanOp):
            parts = [
                self._selectivity(operand, schema, aliases)
                for operand in predicate.operands
            ]
            if predicate.op == "and":
                product = 1.0
                for part in parts:
                    product *= part
                return product
            return min(1.0, sum(parts))
        if isinstance(predicate, Not):
            return max(
                0.05,
                1.0 - self._selectivity(predicate.operand, schema, aliases),
            )
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, schema, aliases)
        if isinstance(predicate, InList):
            ndv = self._operand_ndv(predicate.operand, schema, aliases)
            if ndv is not None:
                return min(1.0, len(predicate.values) / ndv)
            return min(1.0, len(predicate.values) * 0.05)
        if isinstance(predicate, IsNull):
            base = self.NULL_SELECTIVITY
            return 1.0 - base if predicate.negated else base
        if isinstance(predicate, Like):
            return self.LIKE_SELECTIVITY
        return self.DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self,
        predicate: Comparison,
        schema: tuple[str, ...],
        aliases: dict[str, str],
    ) -> float:
        if predicate.op == "=":
            ndv = self._operand_ndv(predicate.left, schema, aliases)
            other = self._operand_ndv(predicate.right, schema, aliases)
            if ndv is not None and other is not None:
                # column = column: the larger side bounds the match rate.
                return 1.0 / max(ndv, other, 1.0)
            chosen = ndv if ndv is not None else other
            if chosen is not None:
                return max(self.EQ_SELECTIVITY_FLOOR, 1.0 / chosen)
            return 0.1
        if predicate.op == "!=":
            equal = self._comparison_selectivity(
                Comparison("=", predicate.left, predicate.right),
                schema,
                aliases,
            )
            return max(0.05, 1.0 - equal)
        return self.RANGE_SELECTIVITY

    def _operand_ndv(
        self,
        operand: Expression,
        schema: tuple[str, ...],
        aliases: dict[str, str],
    ) -> float | None:
        """Distinct-value estimate of a Column operand (None otherwise)."""
        if not isinstance(operand, Column):
            return None
        try:
            qualified = schema[resolve_column(schema, operand.name)]
        except ExpressionError:
            return None
        alias, _, column = qualified.rpartition(".")
        table = aliases.get(alias)
        if table is None:
            return self.DEFAULT_NDV
        stats = self._table_stats(table)
        if stats is None:
            return self.DEFAULT_NDV
        ndv = stats.column_ndv(column)
        return ndv if ndv is not None else self.DEFAULT_NDV

    def _equi_ndv(
        self,
        conjunct: Expression,
        left_schema: tuple[str, ...],
        right_schema: tuple[str, ...],
        aliases: dict[str, str],
    ) -> float | None:
        """max(ndv_left, ndv_right) for an equi-join conjunct, else None."""
        if not (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Column)
            and isinstance(conjunct.right, Column)
        ):
            return None
        if _resolves(left_schema, conjunct.left.name) and _resolves(
            right_schema, conjunct.right.name
        ):
            on_left, on_right = conjunct.left, conjunct.right
        elif _resolves(left_schema, conjunct.right.name) and _resolves(
            right_schema, conjunct.left.name
        ):
            on_left, on_right = conjunct.right, conjunct.left
        else:
            return None  # not one column per side: not a join key
        left_ndv = self._operand_ndv(on_left, left_schema, aliases)
        right_ndv = self._operand_ndv(on_right, right_schema, aliases)
        return max(
            left_ndv if left_ndv is not None else self.DEFAULT_NDV,
            right_ndv if right_ndv is not None else self.DEFAULT_NDV,
        )

    # -- stats plumbing -------------------------------------------------

    def _table_stats(self, table: str) -> TableStats | None:
        if self._statistics is None:
            return None
        return self._statistics.table_stats(table)

    def _table_rows(self, table: str) -> float:
        stats = self._table_stats(table)
        if stats is None:
            return self.DEFAULT_ROWS
        return max(stats.row_count, 1.0)

    def _group_cardinality(
        self,
        qualified_keys: tuple[str, ...],
        input_rows: float,
        aliases: dict[str, str],
    ) -> float:
        groups = 1.0
        for qualified in qualified_keys:
            alias, _, column = qualified.rpartition(".")
            stats = None
            table = aliases.get(alias)
            if table is not None:
                stats = self._table_stats(table)
            ndv = stats.column_ndv(column) if stats is not None else None
            groups *= ndv if ndv is not None else self.DEFAULT_NDV
            if groups >= input_rows:
                return max(input_rows, 1.0)
        return max(min(groups, input_rows), 1.0)

    def _alias_map(self, root: lp.PlanNode) -> dict[str, str]:
        aliases: dict[str, str] = {}
        for node in lp.walk(root):
            if isinstance(node, (lp.Scan, lp.Hydrate, lp.StorageAggregate)):
                aliases[node.alias] = node.table
        return aliases


def _conjuncts(predicate: Expression) -> Iterator[Expression]:
    """Flatten nested ANDs into top-level conjuncts."""
    if isinstance(predicate, BooleanOp) and predicate.op == "and":
        for operand in predicate.operands:
            yield from _conjuncts(operand)
    else:
        yield predicate


def _resolves(schema: tuple[str, ...], name: str) -> bool:
    try:
        resolve_column(schema, name)
    except ExpressionError:
        return False
    return True


__all__ = [
    "CatalogStatistics",
    "CostEstimate",
    "CostModel",
    "TableStats",
]
