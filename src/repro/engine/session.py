"""The InsightNotes session facade — the library's public entry point.

Ties the whole stack together behind one object:

* base tables and inserts (:class:`~repro.storage.database.Database`),
* raw annotations with cell-level attachment and automatic incremental
  summary maintenance (:class:`~repro.maintenance.incremental.SummaryManager`),
* summary instance definition / linking (:class:`~repro.storage.catalog.SummaryCatalog`),
* summary-aware SQL queries with QID-stamped results,
* ZOOMIN commands served through the RCO-managed result cache.

Example
-------
>>> notes = InsightNotes()
>>> notes.create_table("birds", ["name", "species", "weight"])
>>> row = notes.insert("birds", ("Swan Goose", "Anser cygnoides", 3.2))
>>> notes.define_classifier("ClassBird1",
...     labels=["Behavior", "Disease", "Anatomy", "Other"],
...     training=[("found eating stonewort", "Behavior")])
>>> notes.link("ClassBird1", "birds")
>>> notes.add_annotation("observed feeding near the shore",
...                      table="birds", row_id=row)
>>> result = notes.query("SELECT name, species FROM birds")
>>> zoom = notes.zoomin(
...     f"ZOOMIN REFERENCE QID = {result.qid} ON ClassBird1 INDEX 1")
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.engine.cost import CatalogStatistics
from repro.engine.executor import execute_plan
from repro.engine.explain import Explanation, build_explanation
from repro.engine.operators import (
    DEFAULT_SCAN_BLOCK_SIZE,
    ExecutionStats,
    Tracer,
)
from repro.engine.plan import PlanNode
from repro.engine.planner import Planner, plan_uses_summaries
from repro.engine.results import QueryResult, ResultRegistry
from repro.engine.sqlparser import build_logical, parse_sql
from repro.errors import AnnotationError
from repro.maintenance.incremental import SummaryManager
from repro.model.annotation import Annotation, AnnotationKind
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationDraft, AnnotationStore
from repro.storage.catalog import DEFAULT_OBJECT_CACHE_SIZE, SummaryCatalog
from repro.storage.database import Database
from repro.storage.planner_stats import PlannerStatsStore
from repro.summaries.base import SummaryInstance
from repro.summaries.registry import SummaryTypeRegistry
from repro.zoomin.admission import AdmitAll
from repro.zoomin.command import ZoomInCommand
from repro.zoomin.executor import ZoomInExecutor, ZoomInResult
from repro.zoomin.rco import RCOPolicy
from repro.zoomin.stores import SQLiteResultStore
from repro.zoomin.tiered import TieredZoomInCache
from repro.zoomin.tracing import TraceStore


class InsightNotes:
    """A summary-based annotation management session.

    Parameters
    ----------
    path:
        SQLite database path (default in-memory).
    registry:
        Summary type registry; defaults to the three built-in types.
        Register custom types before defining instances of them.
    cache_bytes:
        Budget of the zoom-in result cache's memory tier
        (:class:`~repro.zoomin.tiered.TieredZoomInCache`, RCO-ranked,
        admitting every result that fits), charged against each
        result's estimated in-memory size.  The cache is the only holder
        of results; a qid it does not hold is re-executed from its
        recorded plan (see :meth:`result`).
    cache_store:
        SQLite file of the cache's disk tier; ``None`` keeps the tier in
        a private in-memory SQLite database.  Needs ``cache_disk_bytes``.
    cache_disk_bytes:
        Budget of the cache's disk tier, charged in encoded payload
        bytes: memory victims are demoted there and results too large
        for memory are admitted there directly.  ``0`` (the default)
        runs without a disk tier — no store is opened and a memory
        victim is dropped.
    trace_history:
        How many recent per-query traces (:class:`~repro.zoomin.tracing.
        QueryTrace`) the session retains for :meth:`trace`.
    scan_block_size:
        How many base rows each table scan prefetches per storage
        round-trip (summaries and attachments are loaded in bulk per
        block).  ``1`` degenerates to per-row loading — the benchmark
        harness uses that as its "before" configuration.
    object_cache_size:
        Bound of the catalog's deserialization LRU (``0`` disables it).
    shards:
        Number of storage shards.  ``1`` (the default) is the original
        single-file layout, byte-identical to previous releases.
        ``N >= 2`` hash-partitions rows, attachments, and summary state
        across ``N`` SQLite files, each with its own read pool and
        independently serialized writer — bulk ingest commits per-shard
        sub-batches concurrently and scans scatter-gather in global row
        order.  File-backed paths only; see DESIGN.md §11.

    Every query runs one pipeline: sargable predicates and LIMIT are
    compiled into the storage scan, summaries are hydrated lazily above
    the residual selection, and catalog statistics drive join ordering,
    hydrate placement and storage-side aggregation (DESIGN.md §8, §13).
    The Theorems 1-2 project-before-merge normalization is always on;
    the plan-equivalence ablation switches it off through the
    ``planner.normalize_plans`` attribute.  Statistics seed themselves
    lazily and refresh on demand via :meth:`analyze`.  Sessions are safe
    to *share* across threads: concurrent queries each get their own
    operator tree, and every shared structure (caches, registries,
    counters) is internally locked.
    """

    def __init__(
        self,
        path: str = ":memory:",
        registry: SummaryTypeRegistry | None = None,
        cache_bytes: int = 4 * 1024 * 1024,
        cache_store: str | None = None,
        cache_disk_bytes: int = 0,
        trace_history: int = 128,
        scan_block_size: int = DEFAULT_SCAN_BLOCK_SIZE,
        object_cache_size: int = DEFAULT_OBJECT_CACHE_SIZE,
        shards: int = 1,
    ) -> None:
        self.db = Database(path, shards=shards)
        self.annotations = AnnotationStore(self.db)
        self.catalog = SummaryCatalog(
            self.db, registry=registry, object_cache_size=object_cache_size
        )
        self.manager = SummaryManager(self.db, self.annotations, self.catalog)
        self.stats_store = PlannerStatsStore(self.db)
        self.stats_registry = CatalogStatistics(
            self.db, self.annotations, self.catalog, store=self.stats_store
        )
        self.planner = Planner(
            self.db,
            self.annotations,
            self.catalog,
            manager=self.manager,
            scan_block_size=scan_block_size,
            statistics=self.stats_registry,
        )
        self.results = ResultRegistry()
        self.traces = TraceStore(capacity=trace_history)
        disk_store = None
        if cache_disk_bytes:
            # The disk tier must deserialize with *this* session's
            # registry, or custom summary types fail to revive.
            disk_store = SQLiteResultStore(
                cache_store or ":memory:", registry=self.catalog.registry
            )
        elif cache_store is not None:
            raise ValueError("cache_store names the disk tier; set cache_disk_bytes")
        self.cache = TieredZoomInCache(
            memory_bytes=cache_bytes,
            disk_bytes=cache_disk_bytes,
            policy=RCOPolicy(),
            disk_store=disk_store,
            admission=AdmitAll(),
            trace_store=self.traces,
        )
        self._zoomin = ZoomInExecutor(
            self.annotations, self.cache, recompute=self._reexecute
        )

    # -- lifecycle ---------------------------------------------------

    def flush(self) -> None:
        """Flush deferred summary writes without closing the session.

        A long-running server calls this at drain points so summary
        state is durable even though the process (and its session)
        lives on.
        """
        self.manager.flush()

    def close(self) -> None:
        """Flush deferred summary writes, close the zoom-in cache's disk
        tier and the database."""
        self.manager.flush()
        self.cache.close()
        self.db.close()

    def __enter__(self) -> "InsightNotes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- data -----------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str]) -> None:
        """Create a base table."""
        self.db.create_table(name, columns)

    def insert(
        self, table: str, values: Sequence[Any] | Mapping[str, Any]
    ) -> int:
        """Insert one row; returns its row id."""
        row_id = self.db.insert(table, values)
        self.stats_registry.on_rows_inserted(table)
        return row_id

    def insert_many(self, table: str, rows: Sequence[Sequence[Any]]) -> list[int]:
        """Insert several rows; returns their row ids."""
        row_ids = self.db.insert_many(table, rows)
        self.stats_registry.on_rows_inserted(table, len(row_ids))
        return row_ids

    def delete_row(self, table: str, row_id: int) -> None:
        """Delete a base row, cascading through annotations and summaries.

        Annotations attached only to this row are deleted outright;
        annotations also covering other rows are detached here and keep
        their effect elsewhere.  The row's summary objects are dropped.
        """
        detached = 0
        for annotation_id in sorted(
            self.annotations.annotation_ids_for_row(table, row_id)
        ):
            remaining = self.annotations.rows_for_annotation(annotation_id)
            if remaining == {(table, row_id)}:
                self.annotations.delete(annotation_id)
            else:
                self.annotations.detach_row(annotation_id, table, row_id)
            detached += 1
        self.manager.on_row_deleted(table, row_id)
        self.db.delete_row(table, row_id)
        self.stats_registry.on_rows_deleted(table)
        if detached:
            self.stats_registry.on_annotations_changed(table, -detached)

    # -- annotations -----------------------------------------------------

    #: Keys an :meth:`add_annotations` spec may carry — exactly the
    #: keyword parameters of :meth:`add_annotation`.
    _ANNOTATION_SPEC_KEYS = frozenset(
        {
            "text",
            "table",
            "row_id",
            "columns",
            "cells",
            "author",
            "document",
            "title",
            "created_at",
        }
    )

    def _resolve_annotation_cells(
        self,
        table: str | None,
        row_id: int | None,
        columns: Sequence[str] | None,
        cells: Sequence[CellRef] | None,
    ) -> list[CellRef]:
        """Turn one annotation target spec into an explicit cell list."""
        if cells is None:
            if table is None or row_id is None:
                raise AnnotationError(
                    "add_annotation needs either cells or table + row_id"
                )
            target_columns = (
                tuple(columns) if columns is not None else self.db.columns(table)
            )
            return [CellRef(table, row_id, column) for column in target_columns]
        if table is not None or row_id is not None or columns is not None:
            raise AnnotationError(
                "pass either cells or table/row_id/columns, not both"
            )
        return list(cells)

    def add_annotation(
        self,
        text: str,
        table: str | None = None,
        row_id: int | None = None,
        columns: Sequence[str] | None = None,
        cells: Sequence[CellRef] | None = None,
        author: str = "anonymous",
        document: bool = False,
        title: str = "",
        created_at: float | None = None,
    ) -> Annotation:
        """Attach a new annotation and update all affected summaries.

        Target either a row (``table`` + ``row_id``, optionally narrowed
        to ``columns``; omitted columns mean the whole row) or an explicit
        ``cells`` list spanning arbitrary rows and tables.  A batch of
        one through the bulk ingest path — callers with many annotations
        in hand should pass them all to :meth:`add_annotations` instead.
        """
        return self.add_annotations(
            [
                {
                    "text": text,
                    "table": table,
                    "row_id": row_id,
                    "columns": columns,
                    "cells": cells,
                    "author": author,
                    "document": document,
                    "title": title,
                    "created_at": created_at,
                }
            ]
        )[0]

    def add_annotations(
        self, specs: Sequence[Mapping[str, Any]]
    ) -> list[Annotation]:
        """Attach a batch of annotations in one bulk ingest pass.

        Each spec is a mapping of :meth:`add_annotation` keyword
        arguments (``text`` is required; targeting rules are identical).
        The whole batch is validated up front, stored with two
        ``executemany`` inserts in a single transaction, and folded into
        the affected summaries through
        :meth:`~repro.maintenance.incremental.SummaryManager.add_annotations`
        — instances resolved once per table, summary objects bulk-loaded,
        each annotation analyzed at most once per instance, and one
        bulk write-back.  The resulting summary state is identical to
        adding the annotations one by one in spec order.

        Returns the stored annotations, in spec order.  Raises
        :class:`~repro.errors.AnnotationError` before anything is stored
        if any spec is malformed.
        """
        drafts: list[AnnotationDraft] = []
        cell_lists: list[list[CellRef]] = []
        for spec in specs:
            unknown = set(spec) - self._ANNOTATION_SPEC_KEYS
            if unknown:
                raise AnnotationError(
                    f"unknown annotation spec keys: {sorted(unknown)}"
                )
            text = spec.get("text")
            if not isinstance(text, str):
                raise AnnotationError("annotation spec needs a text string")
            resolved = self._resolve_annotation_cells(
                spec.get("table"),
                spec.get("row_id"),
                spec.get("columns"),
                spec.get("cells"),
            )
            kind = (
                AnnotationKind.DOCUMENT
                if spec.get("document", False)
                else AnnotationKind.COMMENT
            )
            drafts.append(
                AnnotationDraft(
                    text=text,
                    cells=tuple(resolved),
                    author=spec.get("author", "anonymous"),
                    kind=kind,
                    title=spec.get("title", ""),
                    created_at=spec.get("created_at"),
                )
            )
            cell_lists.append(resolved)
        if not drafts:
            return []
        stored = self.annotations.add_many(drafts)
        self.manager.add_annotations(list(zip(stored, cell_lists)))
        per_table: dict[str, int] = {}
        for cells in cell_lists:
            for cell in cells:
                per_table[cell.table] = per_table.get(cell.table, 0) + 1
        for table, delta in per_table.items():
            self.stats_registry.on_annotations_changed(table, delta)
        return stored

    def delete_annotation(self, annotation_id: int) -> None:
        """Remove an annotation, updating all affected summaries."""
        cells = self.annotations.cells_of(annotation_id)
        per_table: dict[str, int] = {}
        for cell in cells:
            per_table[cell.table] = per_table.get(cell.table, 0) + 1
        self.manager.on_annotation_deleted(annotation_id)
        self.annotations.delete(annotation_id)
        # A read between the summary update and the store delete may
        # have cached the pre-delete attachment map; drop it again.
        self.manager.invalidate_attachments(
            {(cell.table, cell.row_id) for cell in cells}
        )
        for table, count in per_table.items():
            self.stats_registry.on_annotations_changed(table, -count)

    def update_annotation(
        self,
        annotation_id: int,
        text: str | None = None,
        title: str | None = None,
    ) -> Annotation:
        """Rewrite an annotation's text, re-summarizing everywhere.

        The annotation keeps its id, author, timestamp, and attachments;
        its old effect is removed from every affected summary and the new
        text is folded back in (a corrected observation may change its
        class label, cluster group, or snippet).
        """
        self.manager.on_annotation_deleted(annotation_id)
        updated = self.annotations.update(annotation_id, text=text, title=title)
        cells = self.annotations.cells_of(annotation_id)
        self.manager.on_annotation_added(updated, cells)
        return updated

    # -- summary instances ------------------------------------------------

    def define_instance(
        self, type_name: str, instance_name: str, config: dict
    ) -> SummaryInstance:
        """Define a summary instance of a registered type."""
        return self.catalog.define_instance(type_name, instance_name, config)

    def define_classifier(
        self,
        name: str,
        labels: Sequence[str],
        training: Sequence[tuple[str, str]] | None = None,
    ) -> SummaryInstance:
        """Convenience: define and optionally train a classifier instance."""
        instance = self.catalog.define_instance(
            "Classifier", name, {"labels": list(labels)}
        )
        if training:
            instance.train(list(training))  # type: ignore[attr-defined]
            self.catalog.save_instance_config(name)
        return instance

    def define_cluster(self, name: str, threshold: float = 0.4, **config: Any
                       ) -> SummaryInstance:
        """Convenience: define a cluster instance."""
        return self.catalog.define_instance(
            "Cluster", name, {"threshold": threshold, **config}
        )

    def define_snippet(self, name: str, **config: Any) -> SummaryInstance:
        """Convenience: define a snippet instance."""
        return self.catalog.define_instance("Snippet", name, config)

    def rebuild_summaries(
        self, instance_name: str | None = None, table: str | None = None
    ) -> int:
        """Recompute summary state from the raw annotations.

        Narrows to one instance and/or one table when given; returns the
        number of (instance, table) pairs rebuilt.  Needed after changes
        that invalidate derived state wholesale — most commonly a model
        retrain (see :meth:`retrain_classifier`).
        """
        from repro.maintenance.rebuild import rebuild_table

        pairs = [
            (instance, linked_table)
            for instance, linked_table in self.catalog.links()
            if (instance_name is None or instance == instance_name)
            and (table is None or linked_table == table)
        ]
        self.manager.drop_caches()
        for instance, linked_table in pairs:
            rebuild_table(
                self.db, self.annotations, self.catalog, instance, linked_table
            )
        return len(pairs)

    def retrain_classifier(
        self, instance_name: str, examples: Sequence[tuple[str, str]]
    ) -> None:
        """Continue training a classifier and refresh all its summaries.

        The extra examples shift the model's predictions, so every stored
        summary object of the instance is rebuilt from the raw
        annotations and the summarize-once cache for the instance is
        invalidated — stale labels never linger.
        """
        instance = self.catalog.get_instance(instance_name)
        instance.train(list(examples))  # type: ignore[attr-defined]
        self.catalog.save_instance_config(instance_name)
        self.manager.contributions.invalidate_instance(instance_name)
        self.rebuild_summaries(instance_name=instance_name)

    def link(self, instance_name: str, table: str) -> None:
        """Link an instance to a table and summarize its existing rows."""
        self.catalog.link(instance_name, table)
        self.manager.summarize_table(instance_name, table)

    def unlink(self, instance_name: str, table: str) -> None:
        """Unlink an instance from a table, dropping its state there."""
        self.manager.drop_caches()
        self.catalog.unlink(instance_name, table)

    # -- queries ----------------------------------------------------------

    def query(self, sql: str, trace: bool = False) -> QueryResult:
        """Run a SQL query; the result carries summaries and a QID."""
        statement = parse_sql(sql)
        self._flatten_subqueries(statement)
        logical = build_logical(statement, self.planner)
        return self.execute_logical(logical, sql=sql, trace=trace)

    def flatten_predicate(self, expression: Any) -> Any:
        """Flatten any IN-subqueries inside a standalone predicate.

        Used by statement paths that evaluate predicates directly (e.g.
        ``DELETE FROM ... WHERE x IN (SELECT ...)``).
        """
        from repro.engine.subqueries import flatten_expression

        return flatten_expression(expression, self._run_in_subquery)

    def _run_in_subquery(self, sub_statement: Any) -> tuple[Any, ...]:
        """Execute one uncorrelated IN-subquery; returns its values.

        Only the single output column's values are consumed, so unless a
        subquery expression actually reads summaries, the plan skips
        hydration entirely.
        """
        self._flatten_subqueries(sub_statement)
        logical = build_logical(sub_statement, self.planner)
        prepared = self.planner.prepare(
            logical, hydrate=plan_uses_summaries(logical)
        )
        operator = self.planner.physical(prepared)
        if len(operator.schema) != 1:
            from repro.errors import SQLSyntaxError

            raise SQLSyntaxError(
                "an IN subquery must select exactly one column, got "
                f"{len(operator.schema)}"
            )
        return tuple(row.values[0] for row in operator)

    def _flatten_subqueries(self, statement: Any) -> None:
        """Replace IN (SELECT ...) predicates with literal IN lists.

        Uncorrelated subqueries run once, eagerly; their single output
        column's values become the IN list.  Applied to WHERE, HAVING,
        and JOIN..ON predicates of every SELECT core.
        """
        from repro.engine.sqlparser import CompoundSelect
        from repro.engine.subqueries import flatten_expression

        run_subquery = self._run_in_subquery
        if isinstance(statement, CompoundSelect):
            for part in statement.parts:
                self._flatten_subqueries(part)
            return
        if statement.where is not None:
            statement.where = flatten_expression(statement.where, run_subquery)
        if statement.having is not None:
            statement.having = flatten_expression(statement.having, run_subquery)
        statement.joins = [
            (table, alias, flatten_expression(predicate, run_subquery), outer)
            for table, alias, predicate, outer in statement.joins
        ]

    def execute_logical(
        self, logical: PlanNode, sql: str = "", trace: bool = False
    ) -> QueryResult:
        """Run a programmatically built logical plan."""
        prepared = self.planner.prepare(logical)
        result = self._run_prepared(
            prepared, self.results.next_qid(), sql, trace=trace
        )
        self.results.register(result.qid, prepared, sql)
        # Trace first so the cache's admission/eviction events land on
        # an already-open trace.
        self.traces.record_query(result)
        self.cache.put(result)
        return result

    def result(self, qid: int) -> QueryResult:
        """Query ``qid``'s cached snapshot, or else its recorded plan
        re-executed on the current data; ``UnknownQueryIdError`` when
        neither exists."""
        result, _ = self.cache.get_or_compute(qid, lambda: self._reexecute(qid))
        return result

    def _reexecute(self, qid: int) -> QueryResult:
        """Run ``qid``'s recorded plan again, under the same qid."""
        record = self.results.plan(qid)
        return self._run_prepared(record.plan, qid, record.sql)

    def _run_prepared(
        self, prepared: PlanNode, qid: int, sql: str, trace: bool = False
    ) -> QueryResult:
        """Execute a prepared plan, feed back statistics, price it."""
        tracer = Tracer() if trace else None
        stats = ExecutionStats()
        operator = self.planner.physical(prepared, tracer, stats)
        # Sharded sessions attach the per-shard pool checkout deltas this
        # query drove; unsharded payloads stay exactly as before.
        sharded = self.db.shard_count > 1
        before = self.db.backend.counters() if sharded else {}
        result = execute_plan(
            operator, qid=qid, sql=sql, logical=prepared, stats=stats
        )
        if sharded:
            after = self.db.backend.counters()
            stats.record_backend_counters(
                {
                    shard: {
                        key: value - before.get(shard, {}).get(key, 0)
                        for key, value in counters.items()
                    }
                    for shard, counters in after.items()
                }
            )
        result.trace = tracer
        self.stats_registry.observe_execution(prepared, stats)
        # Price the plan's recompute cost once, after the execution
        # feedback lands (so the estimate sees the freshest row counts);
        # the cache's admission policy and the trace both read it.
        result.cost_estimate = self.planner.cost_model.estimate(prepared).cost
        return result

    def execute(self, statement: str) -> Any:
        """Run any supported statement: SELECT, ZOOMIN, CREATE TABLE,
        INSERT INTO, DELETE FROM.

        Returns a :class:`QueryResult` for SELECT, a
        :class:`~repro.zoomin.executor.ZoomInResult` for ZOOMIN, and a
        status string for DDL/DML.
        """
        from repro.engine.ddl import execute_statement

        return execute_statement(self, statement)

    def explain(self, sql: str) -> Explanation:
        """The prepared (normalized) logical plan for ``sql``, costed.

        Returns an :class:`~repro.engine.explain.Explanation` — a
        ``str`` rendering of the plan with per-operator cardinality and
        cost estimates (``[rows~N cost~C]``), that also carries the plan
        itself and a :meth:`~repro.engine.explain.Explanation.to_json`
        structural view.  Estimates come from the same catalog
        statistics the cost planner uses; :meth:`analyze` refreshes
        them.
        """
        statement = parse_sql(sql)
        self._flatten_subqueries(statement)
        logical = build_logical(statement, self.planner)
        prepared = self.planner.prepare(logical)
        return build_explanation(prepared, self.planner.cost_model)

    def analyze(self, table: str | None = None) -> dict[str, Any]:
        """Refresh planner statistics, persisting them in the catalog.

        Recomputes row counts, per-column distinct-value estimates,
        annotation volume, and per-instance summary-object cardinality
        and size for ``table`` (or every base table), storing the result
        in the ``planner_stats`` system table so later sessions start
        warm.  Returns a per-table digest of what was gathered.
        """
        return self.stats_registry.analyze(table)

    # -- zoom-in ---------------------------------------------------------

    def zoomin(self, command: str | ZoomInCommand) -> ZoomInResult:
        """Execute a ZOOMIN command against a previous result."""
        return self._zoomin.execute(command)

    def trace(self, qid: int) -> dict[str, Any] | None:
        """The structured trace of query ``qid`` as a JSON payload.

        Covers the planner's view (plan text, fingerprint, cost
        estimate), execution (wall clock, engine counters, per-operator
        timings when the query ran with ``trace=True``), and every
        cache event the result was involved in since.  None when the
        qid was never executed here or its trace aged out of the
        bounded history (``trace_history``).
        """
        return self.traces.to_json(qid)

    # -- monitoring --------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        """A snapshot of the session's operational counters.

        Groups the numbers an operator would watch: data volumes,
        maintenance activity (incl. the summarize-once cache), and
        zoom-in cache behaviour.
        """
        contribution_stats = self.manager.contributions.stats
        return {
            "shards": self.db.shard_count,
            "shard_pools": self.db.backend.counters(),
            "tables": len(self.db.tables()),
            "rows": sum(self.db.row_count(t) for t in self.db.tables()),
            "annotations": self.annotations.count(),
            "annotation_bytes": self.annotations.total_text_bytes(),
            "summary_instances": len(self.catalog.instance_names()),
            "summary_links": len(self.catalog.links()),
            "summary_state_bytes": self.catalog.summary_bytes(),
            "object_cache": self.catalog.object_cache_info(),
            "maintenance": self.manager.stats.as_dict(),
            "summarize_once": {
                "hits": contribution_stats.hits,
                "misses": contribution_stats.misses,
                "bypasses": contribution_stats.bypasses,
                "hit_ratio": contribution_stats.hit_ratio,
            },
            "queries_registered": len(self.results),
            "planner": {
                **self.planner.counters.to_json(),
                "stats": self.stats_registry.freshness(),
            },
            "zoomin": self.cache.stats_json(),
            "traces_retained": len(self.traces),
        }
