"""Incremental summary maintenance.

:class:`SummaryManager` is the single write path for summary state.  When
an annotation is inserted it:

1. groups the annotation's attached cells by base row,
2. for every summary instance linked to an affected table, loads (or
   creates) the row's summary object,
3. obtains the annotation's contribution — through the summarize-once
   cache when the instance's invariant properties allow — and folds it in,
4. persists the updated object (write-through by default; deferrable for
   bulk loads).

:meth:`SummaryManager.add_annotations` is the batched form of the same
contract — the ingest mirror of the scan pipeline's block prefetch.  A
whole batch is grouped by (table, row) up front, linked instances are
resolved once per table, touched objects are bulk-loaded through the
catalog's block reader, contributions are computed at most once per
(instance, annotation) batch-wide, folding goes through the summary
types' ``fold_many`` hooks, and the write-back is a single
``executemany`` transaction.

Deletion reverses the effect: ids are removed from the objects, and cluster
groups re-elect representatives from their heavy state.

The manager keeps a bounded in-memory object cache so a burst of
annotations on the same hot rows does not round-trip JSON through SQLite
for every insert.

The manager is shared across concurrent queries.  One re-entrant lock
guards every piece of mutable state (object cache, dirty set,
attachments LRU, stats, contribution memo): write paths hold it end to
end — they are serialized anyway by the storage layer's single-writer
lock — while the read paths (:meth:`objects_for_rows`,
:meth:`attachments_for_rows`) probe the caches under the lock, run SQL
with the lock *released*, and re-acquire it to fill, so concurrent
queries never serialize on each other's fetches.  A fill skips rows a
writer invalidated while the fetch was in flight.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.concurrency import make_rlock
from repro.maintenance.invariants import ContributionCache
from repro.model.annotation import Annotation
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationStore
from repro.storage.catalog import SummaryCatalog
from repro.storage.database import Database
from repro.summaries.base import SummaryInstance, SummaryObject
from repro.summaries.cluster import ClusterSummary


@dataclass
class MaintenanceStats:
    """Counters exposed to the maintenance benchmarks.

    ``objects_updated`` counts *persisted* object writes — an object
    folded many times between flushes in deferred mode counts once, when
    it actually reaches storage.  The batch counters describe the bulk
    ingestion path: ``batches`` / ``batch_rows`` give the ingest shape
    (``rows_per_batch`` in :meth:`as_dict` is their ratio), and
    ``folds_saved`` counts contribution analyses the batch skipped
    because the same annotation had already been analyzed for another
    tuple — the summarize-once guarantee applied batch-wide.
    """

    annotations_processed: int = 0
    objects_updated: int = 0
    objects_created: int = 0
    object_cache_hits: int = 0
    object_cache_misses: int = 0
    batches: int = 0
    batch_rows: int = 0
    folds_saved: int = 0

    @property
    def rows_per_batch(self) -> float:
        """Mean number of distinct base rows touched per ingest batch."""
        return self.batch_rows / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """Plain-dict view for reporting."""
        return {
            "annotations_processed": self.annotations_processed,
            "objects_updated": self.objects_updated,
            "objects_created": self.objects_created,
            "object_cache_hits": self.object_cache_hits,
            "object_cache_misses": self.object_cache_misses,
            "batches": self.batches,
            "batch_rows": self.batch_rows,
            "rows_per_batch": round(self.rows_per_batch, 3),
            "folds_saved": self.folds_saved,
        }


class SummaryManager:
    """Keeps persisted summary objects current under annotation traffic.

    Parameters
    ----------
    database, annotations, catalog:
        The shared storage stack.
    write_through:
        Persist each updated object immediately (default).  Bulk loaders
        may disable this and call :meth:`flush` once at the end.
    object_cache_size:
        Maximum number of summary objects kept hot in memory.
    attachments_cache_size:
        Maximum number of per-row attachment maps kept hot — a separate
        bound, because attachment maps are far smaller than summary
        objects and the scan path touches one per base row.
    """

    #: Default bound of the per-row attachments LRU.
    DEFAULT_ATTACHMENTS_CACHE_SIZE = 16384

    def __init__(
        self,
        database: Database,
        annotations: AnnotationStore,
        catalog: SummaryCatalog,
        write_through: bool = True,
        object_cache_size: int = 4096,
        attachments_cache_size: int = DEFAULT_ATTACHMENTS_CACHE_SIZE,
    ) -> None:
        if object_cache_size < 1:
            raise ValueError(
                f"object_cache_size must be >= 1, got {object_cache_size}"
            )
        if attachments_cache_size < 1:
            raise ValueError(
                "attachments_cache_size must be >= 1, "
                f"got {attachments_cache_size}"
            )
        self._db = database
        self._annotations = annotations
        self._catalog = catalog
        self.write_through = write_through
        self.contributions = ContributionCache()
        self.stats = MaintenanceStats()
        # Re-entrant: flush() runs inside add_annotations' locked region.
        # guards_io: the write-through path intentionally persists
        # summary objects while this lock serializes maintenance.
        self._lock = make_rlock("maintenance.summary_manager", guards_io=True)
        self._object_cache_size = object_cache_size
        self._attachments_cache_size = attachments_cache_size
        # (instance, table, row_id) -> object; OrderedDict gives LRU order.
        self._objects: OrderedDict[tuple[str, str, int], SummaryObject] = OrderedDict()
        self._dirty: set[tuple[str, str, int]] = set()
        # (table, row_id) -> annotation id -> columns; the scan hot path.
        self._attachments: OrderedDict[
            tuple[str, int], dict[int, frozenset[str]]
        ] = OrderedDict()
        # Invalidation stamps that keep a read's fill from caching a map
        # a concurrent write made stale: every invalidation ticks the
        # clock and stamps its row; a fill is refused for rows stamped
        # after the reader's snapshot, or when the snapshot predates the
        # floor (the last time the bounded stamp table was cleared).
        self._invalidation_clock = 0
        self._invalidation_floor = 0
        self._invalidated_at: dict[tuple[str, int], int] = {}

    # -- object cache ---------------------------------------------------

    def _get_object(
        self, instance: SummaryInstance, table: str, row_id: int
    ) -> SummaryObject:
        key = (instance.name, table, row_id)
        if key in self._objects:
            self._objects.move_to_end(key)
            self.stats.object_cache_hits += 1
            return self._objects[key]
        self.stats.object_cache_misses += 1
        obj = self._catalog.load_object(instance.name, table, row_id)
        if obj is None:
            obj = instance.new_object()
            self.stats.objects_created += 1
        self._objects[key] = obj
        self._evict_if_needed()
        return obj

    def _evict_if_needed(self) -> None:
        while len(self._objects) > self._object_cache_size:
            key, obj = self._objects.popitem(last=False)
            if key in self._dirty:
                self._catalog.save_object(key[0], key[1], key[2], obj)
                self.stats.objects_updated += 1
                self._dirty.discard(key)

    def _mark_updated(self, key: tuple[str, str, int]) -> None:
        # ``objects_updated`` counts persisted writes, not folds — in
        # deferred mode the counter moves at flush/eviction time instead.
        obj = self._objects[key]
        if self.write_through:
            self._catalog.save_object(key[0], key[1], key[2], obj)
            self.stats.objects_updated += 1
        else:
            self._dirty.add(key)

    def flush(self) -> int:
        """Persist all deferred updates; returns how many were written.

        All dirty objects go out through the catalog's bulk upsert — one
        transaction regardless of how many objects the deferred window
        accumulated.
        """
        with self._lock:
            entries = [
                (key[0], key[1], key[2], obj)
                for key in sorted(self._dirty)
                if (obj := self._objects.get(key)) is not None
            ]
            written = self._catalog.save_objects(entries)
            self.stats.objects_updated += written
            self._dirty.clear()
            return written

    def drop_caches(self) -> None:
        """Flush and empty the object cache (tests, memory pressure)."""
        with self._lock:
            self.flush()
            self._objects.clear()
            self._attachments.clear()

    # -- attachment cache ---------------------------------------------

    def attachments_for_row(
        self, table: str, row_id: int
    ) -> dict[int, frozenset[str]]:
        """Cached annotation-to-columns map for one base row."""
        return self.attachments_for_rows(table, (row_id,))[row_id]

    def attachments_for_rows(
        self, table: str, row_ids: Iterable[int]
    ) -> dict[int, dict[int, frozenset[str]]]:
        """Attachment maps for a block of base rows, cache-aware.

        Rows already in the attachments LRU are served from memory; the
        misses go to the store in one bulk round-trip and are cached on
        the way out (including empty maps — absence is worth caching).

        The fetch runs with the lock released, so a writer may invalidate
        a row between fetch and fill.  Such a row's map is still returned
        (it was current when read) but not cached: the invalidation stamp
        taken before the fetch tells the fill which rows moved.
        """
        result: dict[int, dict[int, frozenset[str]]] = {}
        missing: list[int] = []
        with self._lock:
            snapshot = self._invalidation_clock
            for row_id in row_ids:
                key = (table, row_id)
                cached = self._attachments.get(key)
                if cached is not None:
                    self._attachments.move_to_end(key)
                    result[row_id] = cached
                else:
                    missing.append(row_id)
        if missing:
            fetched = self._annotations.attachments_for_rows(table, missing)
            with self._lock:
                fresh = snapshot >= self._invalidation_floor
                for row_id, attachments in fetched.items():
                    key = (table, row_id)
                    if fresh and self._invalidated_at.get(key, 0) <= snapshot:
                        self._attachments[key] = attachments
                    result[row_id] = attachments
                self._evict_attachments_if_needed()
        return result

    def _evict_attachments_if_needed(self) -> None:
        while len(self._attachments) > self._attachments_cache_size:
            self._attachments.popitem(last=False)

    def invalidate_attachments(self, rows: Iterable[tuple[str, int]]) -> None:
        """Drop the cached attachment maps of ``rows`` after a store
        write that changed them outside the summary write path."""
        with self._lock:
            for table, row_id in rows:
                self._invalidate_attachments(table, row_id)

    def _invalidate_attachments(self, table: str, row_id: int) -> None:
        key = (table, row_id)
        self._attachments.pop(key, None)
        self._invalidation_clock += 1
        if len(self._invalidated_at) >= self._attachments_cache_size:
            # Bound the stamps: forget them all and refuse every fill
            # whose snapshot predates the forgetting.
            self._invalidated_at.clear()
            self._invalidation_floor = self._invalidation_clock
        self._invalidated_at[key] = self._invalidation_clock

    # -- write path -------------------------------------------------------

    def on_annotation_added(
        self, annotation: Annotation, cells: Iterable[CellRef]
    ) -> int:
        """Fold a newly stored annotation into all affected summaries.

        Returns the number of summary objects updated.
        """
        with self._lock:
            self.stats.annotations_processed += 1
            rows: dict[tuple[str, int], None] = {}
            for cell in cells:
                rows.setdefault((cell.table, cell.row_id), None)
            updated = 0
            for table, row_id in rows:
                self._invalidate_attachments(table, row_id)
                for instance in self._catalog.instances_for_table(table):
                    obj = self._get_object(instance, table, row_id)
                    if annotation.annotation_id in obj.annotation_ids():
                        continue  # idempotent replay
                    contribution = self.contributions.analyze(instance, annotation)
                    instance.add_to(obj, annotation, contribution)
                    self._mark_updated((instance.name, table, row_id))
                    updated += 1
            return updated

    def add_annotations(
        self, batch: Sequence[tuple[Annotation, Sequence[CellRef]]]
    ) -> int:
        """Fold a batch of newly stored annotations into all summaries.

        The bulk counterpart of :meth:`on_annotation_added`, and the
        engine's ingest hot path.  Per affected table it resolves the
        linked instances **once**, bulk-loads every touched summary
        object through the catalog's block reader, analyzes each
        annotation at most once per instance (batch-wide summarize-once),
        folds per-object through the types' :meth:`fold_many` hooks, and
        persists all updated objects with one ``executemany``
        transaction.  Internally the batch always runs in deferred-write
        mode; with :attr:`write_through` enabled the deferred updates are
        flushed before returning, so callers observe the same durability
        as the single-annotation path.

        Returns the number of summary objects that received new
        contributions.  Folding order matches a loop of single adds, so
        the resulting summary state is identical (order matters for
        non-annotation-invariant types such as clustering).
        """
        batch = [(annotation, list(cells)) for annotation, cells in batch]
        if not batch:
            return 0
        with self._lock:
            self.stats.batches += 1
            self.stats.annotations_processed += len(batch)
            # table -> row_id -> annotations in arrival order (deduplicated:
            # an annotation attached to several cells of a row folds once).
            by_table: dict[str, dict[int, list[Annotation]]] = {}
            for annotation, cells in batch:
                rows_of_annotation: set[tuple[str, int]] = set()
                for cell in cells:
                    target = (cell.table, cell.row_id)
                    if target in rows_of_annotation:
                        continue
                    rows_of_annotation.add(target)
                    by_table.setdefault(cell.table, {}).setdefault(
                        cell.row_id, []
                    ).append(annotation)
            updated = 0
            for table in sorted(by_table):
                row_map = by_table[table]
                self.stats.batch_rows += len(row_map)
                for row_id in row_map:
                    self._invalidate_attachments(table, row_id)
                instances = self._catalog.instances_for_table(table)
                if not instances:
                    continue
                names = [instance.name for instance in instances]
                missing_rows = sorted(
                    row_id
                    for row_id in row_map
                    if any((name, table, row_id) not in self._objects for name in names)
                )
                loaded = (
                    self._catalog.load_objects_for_table(names, table, missing_rows)
                    if missing_rows
                    else {}
                )
                # One contribution per (instance, annotation) for the whole
                # table group, however many rows the annotation covers.
                unique: dict[int, Annotation] = {}
                for annotations in row_map.values():
                    for annotation in annotations:
                        unique.setdefault(annotation.annotation_id, annotation)
                applications = sum(len(v) for v in row_map.values())
                contributions: dict[str, dict[int, object]] = {
                    instance.name: self.contributions.analyze_many(
                        instance, unique.values()
                    )
                    for instance in instances
                }
                self.stats.folds_saved += (applications - len(unique)) * len(instances)
                for row_id in sorted(row_map):
                    annotations = row_map[row_id]
                    for instance in instances:
                        key = (instance.name, table, row_id)
                        obj = self._objects.get(key)
                        if obj is not None:
                            self._objects.move_to_end(key)
                            self.stats.object_cache_hits += 1
                        else:
                            self.stats.object_cache_misses += 1
                            obj = loaded.get((instance.name, row_id))
                            if obj is None:
                                obj = instance.new_object()
                                self.stats.objects_created += 1
                            self._objects[key] = obj
                        folded = obj.fold_many(
                            instance,
                            [
                                (
                                    annotation,
                                    contributions[instance.name][
                                        annotation.annotation_id
                                    ],
                                )
                                for annotation in annotations
                            ],
                        )
                        if folded:
                            self._dirty.add(key)
                            updated += 1
            if self.write_through:
                self.flush()
            self._evict_if_needed()
            return updated

    def on_annotation_deleted(self, annotation_id: int) -> int:
        """Remove a deleted annotation's effect from all summaries.

        Must be called *before* the annotation's attachments are removed
        from the store (it needs them to locate the affected rows).
        Returns the number of summary objects updated.
        """
        affected = self._annotations.rows_for_annotation(annotation_id)
        with self._lock:
            self.contributions.invalidate(annotation_id)
            updated = 0
            for table, row_id in sorted(affected):
                self._invalidate_attachments(table, row_id)
                for instance in self._catalog.instances_for_table(table):
                    obj = self._get_object(instance, table, row_id)
                    if annotation_id not in obj.annotation_ids():
                        continue
                    obj.remove_annotations({annotation_id})
                    if isinstance(obj, ClusterSummary):
                        # The centroid moved; re-elect representatives from
                        # the heavy state kept at maintenance time.
                        for group in obj.groups:
                            if group.vectors is not None:
                                group.rerank()
                    self._mark_updated((instance.name, table, row_id))
                    updated += 1
            return updated

    def on_row_deleted(self, table: str, row_id: int) -> int:
        """Drop all summary state of a deleted base row.

        Returns the number of summary objects removed.  The caller is
        responsible for the annotation-side cascade (deleting or
        detaching the row's annotations).
        """
        removed = 0
        with self._lock:
            self._invalidate_attachments(table, row_id)
            for instance in self._catalog.instances_for_table(table):
                key = (instance.name, table, row_id)
                self._objects.pop(key, None)
                self._dirty.discard(key)
                self._catalog.delete_object(instance.name, table, row_id)
                removed += 1
        return removed

    # -- bootstrap ---------------------------------------------------

    def summarize_table(self, instance_name: str, table: str) -> int:
        """Build summaries for every existing row of ``table``.

        Used when an instance is linked to a table that already carries
        annotations — the FIG4 extensibility scenario.  Existing summary
        state for the pair is replaced.  Returns the number of rows
        summarized (rows without annotations get no object).
        """
        instance = self._catalog.get_instance(instance_name)
        summarized = 0
        with self._lock:
            for row_id, _values in self._db.rows(table):
                pairs = self._annotations.annotations_for_row(table, row_id)
                key = (instance.name, table, row_id)
                self._objects.pop(key, None)
                self._dirty.discard(key)
                if not pairs:
                    self._catalog.delete_object(instance.name, table, row_id)
                    continue
                obj = instance.new_object()
                for annotation, _columns in pairs:
                    contribution = self.contributions.analyze(instance, annotation)
                    instance.add_to(obj, annotation, contribution)
                self._catalog.save_object(instance.name, table, row_id, obj)
                summarized += 1
        return summarized

    # -- reads --------------------------------------------------------

    def current_object(
        self, instance_name: str, table: str, row_id: int
    ) -> SummaryObject | None:
        """The up-to-date summary object for one row, cache-aware.

        Routed through :meth:`objects_for_rows` so the single-row path
        and the scan block path share one implementation (and one set of
        cache semantics).
        """
        return self.objects_for_rows((instance_name,), table, (row_id,)).get(
            (instance_name, row_id)
        )

    def objects_for_rows(
        self,
        instance_names: Iterable[str],
        table: str,
        row_ids: Iterable[int],
    ) -> dict[tuple[str, int], SummaryObject]:
        """Up-to-date summary objects for a block of rows, cache-aware.

        The manager's write cache wins (it may hold not-yet-flushed
        objects); everything else is one bulk catalog read.  Pairs with
        no summary state are simply absent from the result.  Returned
        objects are live — callers must take ``for_query()`` or
        ``copy()`` before mutating.
        """
        names = list(instance_names)
        ids = list(row_ids)
        result: dict[tuple[str, int], SummaryObject] = {}
        missing_ids: set[int] = set()
        with self._lock:
            for row_id in ids:
                for name in names:
                    key = (name, table, row_id)
                    if key in self._objects:
                        self._objects.move_to_end(key)
                        self.stats.object_cache_hits += 1
                        result[(name, row_id)] = self._objects[key]
                    else:
                        missing_ids.add(row_id)
        if missing_ids:
            loaded = self._catalog.load_objects_for_table(
                names, table, sorted(missing_ids)
            )
            for (name, row_id), obj in loaded.items():
                # Don't pollute the write cache with read-path objects;
                # the catalog keeps its own deserialization LRU.
                result.setdefault((name, row_id), obj)
        return result
