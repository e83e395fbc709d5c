"""Physical operators of the summary-aware execution engine.

Every operator consumes and produces streams of
:class:`~repro.model.tuple.AnnotatedTuple`, applying the extended
semantics of [30]:

* **Scan** attaches each base tuple's summary objects (query-stripped) and
  its annotation-to-column attachment map.
* **Select** filters without touching summaries (Figure 2, step 2).
* **Project** removes the effect of annotations attached only to dropped
  columns (Figure 2, step 1): classifier counts decrement, snippets
  disappear, cluster groups shrink and re-elect representatives.  The
  removal is deferred to the first read of each instance
  (:meth:`~repro.model.tuple.AnnotatedTuple.drop`).
* **Join** merges counterpart summary objects without double counting
  annotations attached to both inputs (Figure 2, step 3).
* **GroupBy** and **Distinct** merge the summaries of the tuples they
  collapse.
* **Sort**, **Limit**, **Union** propagate summaries unchanged.

Operators support an optional :class:`Tracer`, which records every emitted
tuple per operator — the "under-the-hood execution" view the demo exposes
on the query tree.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Iterator, Sequence
from functools import partial
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.concurrency import LockLike, make_lock
from repro.engine.expressions import (
    Column,
    Comparison,
    Expression,
    resolve_column,
)
from repro.engine.plan import Aggregate
from repro.errors import ExpressionError, PlanError
from repro.model.tuple import AnnotatedTuple, ColumnSetMemo, rewrite_attachments
from repro.summaries.base import SummaryInstance, SummaryObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.maintenance.incremental import SummaryManager
    from repro.storage.database import Database


class TraceEntry:
    """Snapshot of one tuple as it left one operator.

    Summary payloads are captured by reference (they are values, see
    :class:`~repro.summaries.base.SummaryObject`) and rendered lazily:
    tracing a large scan pays no string render per summary per tuple
    unless the trace is actually displayed.
    """

    __slots__ = ("operator", "values", "_objects", "_rendered")

    def __init__(
        self,
        operator: str,
        values: tuple[Any, ...],
        summary_objects: dict[str, SummaryObject],
    ) -> None:
        self.operator = operator
        self.values = values
        self._objects = summary_objects
        self._rendered: dict[str, str] | None = None

    @property
    def summaries(self) -> dict[str, str]:
        """Rendered summary strings, computed on first access."""
        if self._rendered is None:
            self._rendered = {
                name: obj.render() for name, obj in sorted(self._objects.items())
            }
        return self._rendered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEntry(operator={self.operator!r}, values={self.values!r})"


class Tracer:
    """Collects per-operator intermediate tuples for visualization.

    Parameters
    ----------
    max_entries:
        Hard cap on retained entries; tuples beyond it are counted in
        :attr:`dropped` instead of stored, so tracing a large query
        cannot hold the whole intermediate-result volume in memory.
        Pass ``None`` for an unbounded trace.
    """

    DEFAULT_MAX_ENTRIES = 10_000

    def __init__(self, max_entries: int | None = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.entries: list[TraceEntry] = []
        self.max_entries = max_entries
        self.dropped = 0
        #: Inclusive per-operator wall clock and emitted-row counts,
        #: keyed by the operator's description.  "Inclusive" because the
        #: iterator model nests pulls: an operator's time contains its
        #: children's (the same convention EXPLAIN ANALYZE implementations
        #: report without a subtraction pass).
        self.operator_seconds: dict[str, float] = {}
        self.operator_rows: dict[str, int] = {}

    def add_time(self, operator_label: str, seconds: float, rows: int) -> None:
        """Accumulate one pull's wall clock against an operator."""
        self.operator_seconds[operator_label] = (
            self.operator_seconds.get(operator_label, 0.0) + seconds
        )
        self.operator_rows[operator_label] = (
            self.operator_rows.get(operator_label, 0) + rows
        )

    def timings_json(self) -> list[dict[str, Any]]:
        """Per-operator timing rows, slowest first (JSON-able)."""
        return [
            {
                "operator": label,
                "seconds": round(seconds, 6),
                "rows": self.operator_rows.get(label, 0),
            }
            for label, seconds in sorted(
                self.operator_seconds.items(), key=lambda kv: -kv[1]
            )
        ]

    def record(self, operator: "Operator", row: AnnotatedTuple) -> None:
        """Record ``row`` as an output of ``operator``."""
        if self.max_entries is not None and len(self.entries) >= self.max_entries:
            self.dropped += 1
            return
        # Reading row.summaries forces every pending projection, and a
        # later drop rebinds the row's map rather than changing it, so
        # holding the map itself is the snapshot.
        self.entries.append(
            TraceEntry(
                operator=operator.describe(),
                values=row.values,
                summary_objects=row.summaries,
            )
        )

    def by_operator(self) -> dict[str, list[TraceEntry]]:
        """Entries grouped by operator description, insertion-ordered."""
        grouped: dict[str, list[TraceEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.operator, []).append(entry)
        return grouped


class Operator(abc.ABC):
    """Base class of physical operators (iterator model)."""

    def __init__(self, schema: tuple[str, ...], tracer: Tracer | None) -> None:
        self.schema = schema
        self._tracer = tracer

    @abc.abstractmethod
    def rows(self) -> Iterator[AnnotatedTuple]:
        """Produce the operator's output stream."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line description for traces and plan displays."""

    def __iter__(self) -> Iterator[AnnotatedTuple]:
        if self._tracer is None:
            yield from self.rows()
            return
        # Traced execution also times each pull (inclusive of children —
        # see Tracer.operator_seconds).  The per-row perf_counter pair is
        # only paid when a trace was explicitly requested.
        tracer = self._tracer
        label = self.describe()
        iterator = self.rows()
        while True:
            started = time.perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                tracer.add_time(label, time.perf_counter() - started, 0)
                return
            tracer.add_time(label, time.perf_counter() - started, 1)
            tracer.record(self, row)
            yield row


def merge_summary_maps(*maps: dict[str, SummaryObject]) -> dict[str, SummaryObject]:
    """Merge several tuples' summary maps, one merge per instance.

    An instance present in more than one map merges dedup-aware in a
    single ``first.merge(*rest)`` call.  A one-sided instance propagates
    as it is (ClassBird1/TextSummary1 in Figure 2, which exist only on
    tuple r).  Instances keep the order in which they first appear.
    """
    collected: dict[str, list[SummaryObject]] = {}
    for summaries in maps:
        for name, obj in summaries.items():
            collected.setdefault(name, []).append(obj)
    return {
        name: first.merge(*rest) if rest else first
        for name, (first, *rest) in collected.items()
    }


def merge_attachments(*maps: dict[int, frozenset[str]]) -> dict[int, frozenset[str]]:
    """Union attachment maps, unioning column sets for shared ids."""
    merged = dict(maps[0])
    for attachments in maps[1:]:
        for annotation_id, columns in attachments.items():
            existing = merged.get(annotation_id)
            merged[annotation_id] = columns if existing is None else existing | columns
    return merged


def merge_rows(
    rows: list[AnnotatedTuple],
) -> tuple[dict[str, SummaryObject], dict[int, frozenset[str]], frozenset[tuple[str, int]]]:
    """Summaries, attachments and provenance of ``rows`` merged as one tuple.

    Every instance merges once however many rows there are; a lone row's
    maps pass through as they are.
    """
    first = rows[0]
    if len(rows) == 1:
        return first.summaries, first.attachments, first.source_rows
    return (
        merge_summary_maps(*(row.summaries for row in rows)),
        merge_attachments(*(row.attachments for row in rows)),
        first.source_rows.union(*(row.source_rows for row in rows[1:])),
    )


def _map_columns(
    column_map: dict[str, set[str]], columns: frozenset[str]
) -> frozenset[str]:
    """Output columns the input ``columns`` survive as under ``column_map``."""
    outputs: set[str] = set()
    for column in columns:
        outputs |= column_map.get(column, set())
    return frozenset(outputs)


def _extend_equivalent(
    equivalent: tuple[tuple[str, str], ...], columns: frozenset[str]
) -> frozenset[str]:
    """``columns`` spread across value-equivalent (equi-joined) columns."""
    extra: set[str] = set()
    for left_name, right_name in equivalent:
        if left_name in columns:
            extra.add(right_name)
        if right_name in columns:
            extra.add(left_name)
    return columns | extra if extra else columns


#: Base rows fetched (and hydrated against storage) per block.
DEFAULT_SCAN_BLOCK_SIZE = 256


@dataclass
class ExecutionStats:
    """Per-query execution counters, exposed on the query result.

    ``rows_scanned`` counts base rows produced by storage scans (after
    any pushed-down filter/limit); ``rows_hydrated`` counts rows whose
    summary objects and attachment maps were materialized; and
    ``hydration_blocks`` counts the bulk-fetch round-trip groups.  A
    selective query with lazy hydration shows ``rows_hydrated`` well
    below ``rows_scanned``.

    On a sharded backend two more counter groups appear (and **only**
    then — unsharded sessions keep the original three-key payload):
    ``shard_rows_scanned`` splits the scan count by the home shard of
    each merged row, and ``backend`` carries the per-shard pool deltas
    (read checkouts, writer batches) the query drove, recorded by the
    session around execution.

    Accumulation and snapshots are lock-protected: sessions are shared
    across threads, and a result's stats may be read from a thread other
    than the one that ran the query.
    """

    rows_scanned: int = 0
    rows_hydrated: int = 0
    hydration_blocks: int = 0
    shard_rows_scanned: dict[str, int] = field(default_factory=dict)
    backend_counters: dict[str, dict[str, int]] = field(default_factory=dict)
    _lock: LockLike = field(
        default_factory=lambda: make_lock("engine.execution_stats"),
        repr=False,
        compare=False,
    )

    def count_scanned(self, rows: int = 1, shard: int | None = None) -> None:
        with self._lock:
            self.rows_scanned += rows
            if shard is not None:
                key = str(shard)
                self.shard_rows_scanned[key] = (
                    self.shard_rows_scanned.get(key, 0) + rows
                )

    def count_hydrated_block(self, rows: int) -> None:
        with self._lock:
            self.hydration_blocks += 1
            self.rows_hydrated += rows

    def record_backend_counters(
        self, counters: dict[str, dict[str, int]]
    ) -> None:
        """Attach the per-shard pool checkout deltas of this query."""
        with self._lock:
            self.backend_counters = {
                shard: dict(values) for shard, values in counters.items()
            }

    def to_json(self) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {
                "rows_scanned": self.rows_scanned,
                "rows_hydrated": self.rows_hydrated,
                "hydration_blocks": self.hydration_blocks,
            }
            if self.shard_rows_scanned:
                payload["shard_rows_scanned"] = dict(self.shard_rows_scanned)
            if self.backend_counters:
                payload["backend"] = {
                    shard: dict(values)
                    for shard, values in self.backend_counters.items()
                }
            return payload


class ScanOperator(Operator):
    """Value-only scan of a base table.

    Emits plain tuples — values plus source-row identity, no summaries,
    no attachments; a :class:`HydrateOperator` placed downstream attaches
    the annotation payload to the rows that survive filtering (late
    materialization).  Sargable predicates and LIMIT compiled by the
    planner (:mod:`repro.engine.pushdown`) execute inside the storage
    statement via :meth:`Database.scan`.
    """

    def __init__(
        self,
        database: "Database",
        table: str,
        alias: str,
        tracer: Tracer | None = None,
        storage_filter: Any = None,
        storage_limit: int | None = None,
        stats: ExecutionStats | None = None,
    ) -> None:
        columns = database.columns(table)
        super().__init__(
            tuple(f"{alias}.{column}" for column in columns), tracer
        )
        self._db = database
        self.table = table
        self.alias = alias
        self.storage_filter = storage_filter
        self.storage_limit = storage_limit
        self._stats = stats

    def rows(self) -> Iterator[AnnotatedTuple]:
        where_sql: str | None = None
        params: tuple[Any, ...] = ()
        if self.storage_filter is not None:
            where_sql = self.storage_filter.sql
            params = self.storage_filter.params
        stats = self._stats
        on_row_shard = None
        if stats is not None and self._db.shard_count > 1:
            # The scatter-gather merge reports each row's home shard;
            # counting there feeds the per-shard breakdown (and the
            # total) in one call.
            on_row_shard = lambda shard: stats.count_scanned(shard=shard)  # noqa: E731
        for row_id, values in self._db.scan(
            self.table, where_sql, params, self.storage_limit, on_row_shard
        ):
            if stats is not None and on_row_shard is None:
                stats.count_scanned()
            yield AnnotatedTuple(
                values=values,
                source_rows=frozenset({(self.table, row_id)}),
            )

    def describe(self) -> str:
        base = (
            f"Scan({self.table})"
            if self.alias == self.table
            else f"Scan({self.table} AS {self.alias})"
        )
        if self.storage_filter is not None:
            base = f"{base} [pushed: {self.storage_filter}]"
        if self.storage_limit is not None:
            base = f"{base} [limit: {self.storage_limit}]"
        return base


class HydrateOperator(Operator):
    """Attach summary objects and attachment maps to surviving rows.

    Buffers its input into blocks of ``block_size`` and fetches each
    block's summary values and attachment maps through the
    :class:`~repro.maintenance.incremental.SummaryManager`'s caches (at
    most one storage round-trip per block per kind).  Because the
    planner places this operator above the residual selection (and a
    pushed LIMIT), only rows that survive filtering pay the
    deserialization tax.

    The operator is *projection-aware*: when it sits above a Project, its
    schema is the kept column subset, so attachments are narrowed to the
    surviving columns and fully-dropped annotations have their effects
    removed from the summary objects — the same outcome as hydrating at
    the scan and projecting afterwards, at a fraction of the fetches.
    Narrowing qualifies and filters each *distinct* stored column set
    once per block, not once per annotation per row.  The removal is
    deferred: each row carries the manager's ``for_query()`` values and
    the dropped ids as its pending drop set
    (:meth:`~repro.model.tuple.AnnotatedTuple.drop`), and an instance is
    projected only when something reads it — a summary predicate or sort
    key reads only the instances it names, and the rows a Limit keeps are
    read in full.  A row with no stored object gets the empty object's value.
    """

    def __init__(
        self,
        child: Operator,
        manager: "SummaryManager",
        table: str,
        alias: str,
        instances: tuple[str, ...] | None = None,
        tracer: Tracer | None = None,
        block_size: int = DEFAULT_SCAN_BLOCK_SIZE,
        stats: ExecutionStats | None = None,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        super().__init__(child.schema, tracer)
        self._child = child
        self._manager = manager
        self.table = table
        self.alias = alias
        self.instances = instances
        self.block_size = block_size
        self._stats = stats

    def rows(self) -> Iterator[AnnotatedTuple]:
        instances = self._manager.instances_for_table(self.table)
        if self.instances is not None:
            wanted = set(self.instances)
            instances = [i for i in instances if i.name in wanted]
            if not instances:
                # Named subset with no linked instance: plain relational
                # processing, no attachment bookkeeping either.
                yield from self._child
                return
        block: list[AnnotatedTuple] = []
        for row in self._child:
            block.append(row)
            if len(block) >= self.block_size:
                yield from self._emit_block(block, instances)
                block = []
        if block:
            yield from self._emit_block(block, instances)

    def _row_id(self, row: AnnotatedTuple) -> int:
        for table, row_id in row.source_rows:
            if table == self.table:
                return row_id
        raise PlanError(
            f"Hydrate({self.alias}): row has no {self.table!r} source"
        )

    def _emit_block(
        self,
        block: list[AnnotatedTuple],
        instances: Sequence["SummaryInstance"],
    ) -> Iterator[AnnotatedTuple]:
        """Fetch one block's summary values and attachments, then emit."""
        row_ids = [self._row_id(row) for row in block]
        names = [instance.name for instance in instances]
        values = self._manager.objects_for_rows(names, self.table, row_ids)
        attachment_maps = self._manager.attachments_for_rows(self.table, row_ids)
        stats = self._stats
        if stats is not None:
            stats.count_hydrated_block(len(block))
        kept = frozenset(self.schema)
        prefix = f"{self.alias}."

        def narrow(columns: frozenset[str]) -> frozenset[str]:
            return frozenset(
                qualified
                for column in columns
                if (qualified := prefix + column) in kept
            )

        memo: ColumnSetMemo = {}
        for row, row_id in zip(block, row_ids):
            attachments, dropped = rewrite_attachments(
                attachment_maps.get(row_id, {}), narrow, memo
            )
            summaries: dict[str, SummaryObject] = {}
            for instance in instances:
                value = values.get((instance.name, row_id))
                if value is None:
                    value = instance.new_object().for_query()
                summaries[instance.name] = value
            row.summaries = summaries
            row.drop(dropped)
            row.attachments = attachments
            yield row

    def describe(self) -> str:
        base = f"Hydrate({self.alias})"
        if self.instances is not None:
            if not self.instances:
                base = f"{base} [no summaries]"
            else:
                base = f"{base} [summaries: {', '.join(self.instances)}]"
        return base


class SelectOperator(Operator):
    """Predicate filter; summaries propagate unchanged."""

    def __init__(
        self, child: Operator, predicate: Expression, tracer: Tracer | None = None
    ) -> None:
        super().__init__(child.schema, tracer)
        self._child = child
        self.predicate = predicate

    def rows(self) -> Iterator[AnnotatedTuple]:
        for row in self._child:
            if self.predicate.evaluate(row, self.schema):
                yield row

    def describe(self) -> str:
        return f"Select({self.predicate})"


class ProjectOperator(Operator):
    """Column projection with annotation-effect removal.

    The paper's extended projection (Figure 2, step 1): annotations whose
    every attached column is dropped have their effect removed from the
    tuple's summary objects — counts decrement, cluster representatives
    get re-elected — without fetching the raw annotations.  The operator
    narrows the attachments and adds the dropped ids to the row's pending
    drop set; each instance is projected once, on its first read.
    """

    def __init__(
        self,
        child: Operator,
        columns: Sequence[str],
        tracer: Tracer | None = None,
    ) -> None:
        self._indices = tuple(
            resolve_column(child.schema, name) for name in columns
        )
        qualified = tuple(child.schema[index] for index in self._indices)
        if len(set(qualified)) != len(qualified):
            raise PlanError(f"duplicate projection columns: {qualified}")
        super().__init__(qualified, tracer)
        self._child = child

    def rows(self) -> Iterator[AnnotatedTuple]:
        kept = frozenset(self.schema)
        memo: ColumnSetMemo = {}
        for row in self._child:
            row.values = tuple(row.values[index] for index in self._indices)
            row.drop(row.restrict_attachments(kept, memo))
            yield row

    def describe(self) -> str:
        return f"Project({', '.join(self.schema)})"


class ComputeOperator(Operator):
    """Expression projection with annotation-effect remapping.

    For each output expression, the input columns it references are
    computed once; per tuple, an annotation keeps its effect on every
    output whose referenced inputs intersect the annotation's columns,
    and loses it when no output references it — the Compute
    generalization of the Figure 2 projection semantics.
    """

    def __init__(
        self,
        child: Operator,
        items: Sequence[tuple[Expression, str]],
        tracer: Tracer | None = None,
    ) -> None:
        names = tuple(name for _, name in items)
        super().__init__(names, tracer)
        self._child = child
        self._items = tuple(items)
        # Input column -> output columns referencing it.
        self._column_map: dict[str, set[str]] = {}
        for expression, name in self._items:
            for reference in expression.referenced_columns():
                index = resolve_column(child.schema, reference)
                self._column_map.setdefault(child.schema[index], set()).add(name)
        self._outputs_of = partial(_map_columns, self._column_map)

    def rows(self) -> Iterator[AnnotatedTuple]:
        child_schema = self._child.schema
        memo: ColumnSetMemo = {}
        for row in self._child:
            values = tuple(
                expression.evaluate(row, child_schema)
                for expression, _name in self._items
            )
            row.values = values
            row.attachments, dropped = rewrite_attachments(
                row.attachments, self._outputs_of, memo
            )
            row.drop(dropped)
            yield row

    def describe(self) -> str:
        rendered = ", ".join(
            f"{expression} AS {name}" if str(expression) != name else name
            for expression, name in self._items
        )
        return f"Compute({rendered})"


class JoinOperator(Operator):
    """Inner join with dedup-aware summary merging.

    The right input is materialized.  When the predicate contains
    top-level equality conjuncts between one left and one right column, a
    hash index over the right side accelerates matching; residual
    conjuncts are evaluated on each candidate pair.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Expression | None,
        outer: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        overlap = set(left.schema) & set(right.schema)
        if overlap:
            raise PlanError(f"join inputs share columns: {sorted(overlap)}")
        super().__init__(left.schema + right.schema, tracer)
        self._left = left
        self._right = right
        self.predicate = predicate
        self.outer = outer
        self._equi_keys, self._residual = self._split_predicate()
        # Equality makes the two join columns value-equivalent, so an
        # annotation on one logically covers the other: Figure 2's step 4
        # projects out s.x without losing its annotations because they
        # also attach to r.a.
        self._equivalent_columns = tuple(
            (left.schema[li], right.schema[ri]) for li, ri in self._equi_keys
        )
        self._widen = partial(_extend_equivalent, self._equivalent_columns)

    def _split_predicate(
        self,
    ) -> tuple[list[tuple[int, int]], list[Expression]]:
        """Extract hashable left/right equality pairs from the predicate."""
        if self.predicate is None:
            return [], []
        from repro.engine.expressions import BooleanOp

        conjuncts: list[Expression]
        if isinstance(self.predicate, BooleanOp) and self.predicate.op == "and":
            conjuncts = list(self.predicate.operands)
        else:
            conjuncts = [self.predicate]
        equi: list[tuple[int, int]] = []
        residual: list[Expression] = []
        for conjunct in conjuncts:
            pair = self._equi_pair(conjunct)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        return equi, residual

    def _equi_pair(self, conjunct: Expression) -> tuple[int, int] | None:
        if not (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Column)
            and isinstance(conjunct.right, Column)
        ):
            return None
        for first, second in (
            (conjunct.left.name, conjunct.right.name),
            (conjunct.right.name, conjunct.left.name),
        ):
            try:
                left_index = resolve_column(self._left.schema, first)
                right_index = resolve_column(self._right.schema, second)
            except ExpressionError:
                # This orientation doesn't match the schemas; the swapped
                # orientation is tried next.
                continue
            return left_index, right_index
        return None

    def combine(
        self, left: AnnotatedTuple, right: AnnotatedTuple, memo: ColumnSetMemo
    ) -> AnnotatedTuple:
        """Join two tuples: concatenate values, merge summaries dedup-aware.

        ``memo`` is shared by every pair of one ``rows()`` pass, so each
        distinct column set is widened across equi-joined columns once.
        """
        attachments = merge_attachments(left.attachments, right.attachments)
        if self._equivalent_columns:
            # Widening never empties a column set, so nothing is dropped.
            attachments, _ = rewrite_attachments(attachments, self._widen, memo)
        return AnnotatedTuple(
            values=left.values + right.values,
            summaries=merge_summary_maps(left.summaries, right.summaries),
            attachments=attachments,
            source_rows=left.source_rows | right.source_rows,
        )

    def _pad_unmatched(self, left_row: AnnotatedTuple) -> AnnotatedTuple:
        """NULL-pad an unmatched left tuple; its summaries pass through."""
        return AnnotatedTuple(
            values=left_row.values + (None,) * len(self._right.schema),
            summaries=left_row.summaries,
            attachments=dict(left_row.attachments),
            source_rows=left_row.source_rows,
        )

    def rows(self) -> Iterator[AnnotatedTuple]:
        memo: ColumnSetMemo = {}
        if self._equi_keys:
            # The hash index IS the materialization — built in one pass
            # over the right input, no intermediate list.
            index: dict[tuple[Any, ...], list[AnnotatedTuple]] = {}
            for row in self._right:
                key = tuple(row.values[ri] for _, ri in self._equi_keys)
                index.setdefault(key, []).append(row)
            for left_row in self._left:
                key = tuple(left_row.values[li] for li, _ in self._equi_keys)
                matched = False
                if None not in key:
                    for right_row in index.get(key, ()):
                        combined = self.combine(left_row, right_row, memo)
                        if all(
                            residual.evaluate(combined, self.schema)
                            for residual in self._residual
                        ):
                            matched = True
                            yield combined
                if self.outer and not matched:
                    yield self._pad_unmatched(left_row)
        else:
            # Non-equi: every left row sees every right row, so the
            # materialization is genuinely needed — keep it explicit.
            right_rows = list(self._right)
            for left_row in self._left:
                matched = False
                for right_row in right_rows:
                    combined = self.combine(left_row, right_row, memo)
                    if self.predicate is None or self.predicate.evaluate(
                        combined, self.schema
                    ):
                        matched = True
                        yield combined
                if self.outer and not matched:
                    yield self._pad_unmatched(left_row)

    def describe(self) -> str:
        kind = "LeftOuterJoin" if self.outer else "Join"
        if self.predicate is None:
            return f"{kind}(cross)"
        return f"{kind}({self.predicate})"


class GroupByOperator(Operator):
    """Grouping and aggregation with summary merging.

    Output schema: the (qualified) key columns followed by one column per
    aggregate.  Every group member's attachments are remapped — key columns
    keep their names, aggregate-argument columns map to the aggregate's
    output column, all other columns drop (removing their annotations'
    effects, per the projection semantics) — and then the members'
    summaries merge into one object per instance.
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        aggregates: Sequence[Aggregate],
        having: Expression | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._key_indices = tuple(resolve_column(child.schema, k) for k in keys)
        key_names = tuple(child.schema[i] for i in self._key_indices)
        self._aggregates = tuple(aggregates)
        self._agg_indices: list[int | None] = []
        agg_names: list[str] = []
        for aggregate in self._aggregates:
            if aggregate.argument is None:
                self._agg_indices.append(None)
                agg_names.append("count(*)")
            else:
                index = resolve_column(child.schema, aggregate.argument.name)
                self._agg_indices.append(index)
                agg_names.append(f"{aggregate.function}({child.schema[index]})")
        super().__init__(key_names + tuple(agg_names), tracer)
        self._child = child
        self.having = having
        # Input column -> output columns it survives as.
        self._column_map: dict[str, set[str]] = {}
        for name in key_names:
            self._column_map.setdefault(name, set()).add(name)
        for aggregate_index, output_name in zip(self._agg_indices, agg_names):
            if aggregate_index is not None:
                input_name = child.schema[aggregate_index]
                self._column_map.setdefault(input_name, set()).add(output_name)
        self._outputs_of = partial(_map_columns, self._column_map)

    def _remap_member(
        self, row: AnnotatedTuple, memo: ColumnSetMemo
    ) -> AnnotatedTuple:
        """Apply projection semantics onto the group-by output columns.

        ``memo`` is shared by every member of one ``rows()`` pass.
        """
        row.attachments, dropped = rewrite_attachments(
            row.attachments, self._outputs_of, memo
        )
        row.drop(dropped)
        return row

    def _aggregate_value(
        self, aggregate: Aggregate, index: int | None, members: list[AnnotatedTuple]
    ) -> Any:
        if index is None:
            return len(members)
        values = [m.values[index] for m in members if m.values[index] is not None]
        if aggregate.function == "count":
            return len(values)
        if not values:
            return None
        if aggregate.function == "sum":
            return sum(values)
        if aggregate.function == "avg":
            return sum(values) / len(values)
        if aggregate.function == "min":
            return min(values)
        return max(values)

    def rows(self) -> Iterator[AnnotatedTuple]:
        groups: dict[tuple[Any, ...], list[AnnotatedTuple]] = {}
        for row in self._child:
            key = tuple(row.values[i] for i in self._key_indices)
            groups.setdefault(key, []).append(row)
        if not groups and not self._key_indices:
            # SQL: a global aggregate over empty input yields one row
            # (COUNT = 0, other aggregates NULL) with empty summaries.
            values = tuple(
                self._aggregate_value(aggregate, index, [])
                for aggregate, index in zip(self._aggregates, self._agg_indices)
            )
            out = AnnotatedTuple(values=values)
            if self.having is None or self.having.evaluate(out, self.schema):
                yield out
            return
        memo: ColumnSetMemo = {}
        for key, members in groups.items():
            members = [self._remap_member(member, memo) for member in members]
            summaries, attachments, source_rows = merge_rows(members)
            values = key + tuple(
                self._aggregate_value(aggregate, index, members)
                for aggregate, index in zip(self._aggregates, self._agg_indices)
            )
            out = AnnotatedTuple(
                values=values,
                summaries=summaries,
                attachments=attachments,
                source_rows=source_rows,
            )
            if self.having is None or self.having.evaluate(out, self.schema):
                yield out

    def describe(self) -> str:
        keys = ", ".join(self.schema[: len(self._key_indices)])
        aggs = ", ".join(self.schema[len(self._key_indices):])
        return f"GroupBy(keys=[{keys}]; aggs=[{aggs}])"


class DistinctOperator(Operator):
    """Duplicate elimination; duplicates' summaries merge into one tuple."""

    def __init__(self, child: Operator, tracer: Tracer | None = None) -> None:
        super().__init__(child.schema, tracer)
        self._child = child

    def rows(self) -> Iterator[AnnotatedTuple]:
        duplicates: dict[tuple[Any, ...], list[AnnotatedTuple]] = {}
        for row in self._child:
            duplicates.setdefault(row.values, []).append(row)
        for rows in duplicates.values():
            first = rows[0]
            first.summaries, first.attachments, first.source_rows = merge_rows(rows)
            yield first

    def describe(self) -> str:
        return "Distinct"


class StorageAggregateOperator(Operator):
    """Grouping/aggregation executed inside SQLite (cost-planner lowering).

    The planner emits this leaf only for provably summary-free tables
    (no linked instances, no attachments) on a single-shard backend, so
    merging summaries during grouping would be a no-op — the SQL result
    is byte-identical to streaming the scan through
    :class:`GroupByOperator`/:class:`DistinctOperator`, including group
    order (``ORDER BY MIN(rowid)`` reproduces first-seen order over the
    rowid-ordered scan) and provenance (``GROUP_CONCAT(rowid)`` rebuilds
    each group's ``source_rows``).

    ``rows_scanned`` counts the *group* rows crossing into the engine —
    the per-base-row work happens in C, which is the point.
    """

    def __init__(
        self,
        database: "Database",
        table: str,
        alias: str,
        key_columns: Sequence[str],
        output_keys: Sequence[str],
        aggregates: Sequence[tuple[str, str | None]],
        output_aggregates: Sequence[str],
        storage_filter: Any = None,
        distinct: bool = False,
        tracer: Tracer | None = None,
        stats: ExecutionStats | None = None,
    ) -> None:
        super().__init__(tuple(output_keys) + tuple(output_aggregates), tracer)
        self._db = database
        self.table = table
        self.alias = alias
        self._key_columns = tuple(key_columns)
        self._aggregates = tuple(aggregates)
        self.storage_filter = storage_filter
        self._distinct = distinct
        self._stats = stats

    def rows(self) -> Iterator[AnnotatedTuple]:
        where_sql: str | None = None
        params: tuple[Any, ...] = ()
        if self.storage_filter is not None:
            where_sql = self.storage_filter.sql
            params = self.storage_filter.params
        for row in self._db.scan_aggregate(
            self.table, self._key_columns, self._aggregates, where_sql, params
        ):
            values, concat = row[:-1], row[-1]
            if self._stats is not None:
                self._stats.count_scanned()
            source_rows: frozenset[tuple[str, int]] = frozenset()
            if concat:
                source_rows = frozenset(
                    (self.table, int(row_id))
                    for row_id in str(concat).split(",")
                )
            yield AnnotatedTuple(values=tuple(values), source_rows=source_rows)

    def describe(self) -> str:
        kind = "distinct" if self._distinct else "group"
        base = f"StorageAggregate({kind} {self.table})"
        if self.storage_filter is not None:
            base = f"{base} [pushed: {self.storage_filter}]"
        return base


class SortOperator(Operator):
    """Order by expressions; NULLs sort first ascending, last descending."""

    def __init__(
        self,
        child: Operator,
        keys: Sequence[Expression],
        descending: Sequence[bool] = (),
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(child.schema, tracer)
        self._child = child
        self._keys = tuple(keys)
        self._descending = tuple(descending) or tuple(False for _ in keys)

    def rows(self) -> Iterator[AnnotatedTuple]:
        rows = list(self._child)
        # Stable multi-key sort: apply keys right-to-left.
        for key, descending in reversed(list(zip(self._keys, self._descending))):
            rows.sort(
                key=lambda row: _sort_token(key.evaluate(row, self.schema)),
                reverse=descending,
            )
        yield from rows

    def describe(self) -> str:
        rendered = ", ".join(
            f"{key}{' DESC' if desc else ''}"
            for key, desc in zip(self._keys, self._descending)
        )
        return f"Sort({rendered})"


def _sort_token(value: Any) -> tuple[int, Any]:
    """Total-order token: None < numbers < strings < everything else."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, str(value))


class LimitOperator(Operator):
    """Emit at most ``count`` rows."""

    def __init__(
        self, child: Operator, count: int, tracer: Tracer | None = None
    ) -> None:
        super().__init__(child.schema, tracer)
        self._child = child
        self.count = count

    def rows(self) -> Iterator[AnnotatedTuple]:
        emitted = 0
        for row in self._child:
            if emitted >= self.count:
                return
            emitted += 1
            yield row

    def describe(self) -> str:
        return f"Limit({self.count})"


class UnionOperator(Operator):
    """Bag union of two arity-compatible inputs (left's schema wins)."""

    def __init__(
        self, left: Operator, right: Operator, tracer: Tracer | None = None
    ) -> None:
        if len(left.schema) != len(right.schema):
            raise PlanError(
                f"union arity mismatch: {len(left.schema)} vs {len(right.schema)}"
            )
        super().__init__(left.schema, tracer)
        self._left = left
        self._right = right

    def rows(self) -> Iterator[AnnotatedTuple]:
        yield from self._left
        rename = dict(zip(self._right.schema, self.schema))
        for row in self._right:
            row.rename_attachment_columns(rename)
            yield row

    def describe(self) -> str:
        return "Union(all)"
