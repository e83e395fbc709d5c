"""Incremental summary maintenance.

:class:`SummaryManager` is the single write path for summary state.  When
an annotation is inserted it:

1. groups the annotation's attached cells by base row,
2. for every summary instance linked to an affected table, loads (or
   creates) the row's summary object,
3. analyzes the annotation once per instance and folds that contribution
   into every affected object,
4. persists the updated object (write-through by default; deferrable for
   bulk loads).

:meth:`SummaryManager.add_annotations` is the batched form of the same
contract — the ingest mirror of the scan pipeline's block prefetch.  A
whole batch is grouped by (table, row) up front, linked instances are
resolved once per table, touched objects are bulk-loaded through the
catalog's block reader, contributions are computed once per
(instance, annotation) batch-wide, folding goes through the summary
types' ``fold_many`` hooks, and the write-back is a single
``executemany`` transaction.

Deletion reverses the effect: ids are removed from the objects, and cluster
groups re-elect representatives from their heavy state.

The manager's bounded object cache is the only cache of summary
objects: maintenance folds into the cached objects, and queries read
through it (:meth:`objects_for_rows`), so a burst of annotations on hot
rows and repeated queries over the same rows both skip the SQLite
round-trip and the JSON rebuild.  The cache also remembers rows that
were never summarized.  The catalog below it only loads, saves and
deletes.

The manager is shared across concurrent queries.  One re-entrant lock
guards every piece of mutable state (object cache, dirty set,
attachments LRU, stats): write paths hold it end to
end — they are serialized anyway by the storage layer's single-writer
lock — while the read paths (:meth:`objects_for_rows`,
:meth:`attachments_for_rows`) probe the caches under the lock, run SQL
with the lock *released*, and re-acquire it to fill, so concurrent
queries never serialize on each other's fetches.  A fill never replaces
a cached entry and skips keys a write stamped while the fetch was in
flight: every save and delete the manager makes stamps its keys, and a
write that goes straight to the catalog runs inside :meth:`bypass`,
which refuses every older fill.  A read returns ``for_query()`` values
taken under the lock, so no fold can reach a value a query holds.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from repro.concurrency import InvalidationStamps, make_rlock
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
    (``rows_per_batch`` in :meth:`as_dict` is their ratio).
    ``analyze_calls`` counts contribution analyses and ``folds_saved``
    the applications that reused a contribution analyzed earlier in the
    same batch because the annotation covers another tuple — the
    summarize-once guarantee applied batch-wide (:meth:`summarize_once`).
    """

    annotations_processed: int = 0
    objects_updated: int = 0
    objects_created: int = 0
    batches: int = 0
    batch_rows: int = 0
    folds_saved: int = 0
    analyze_calls: int = 0

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
            "batches": self.batches,
            "batch_rows": self.batch_rows,
            "rows_per_batch": round(self.rows_per_batch, 3),
            "folds_saved": self.folds_saved,
            "analyze_calls": self.analyze_calls,
        }

    def summarize_once(self) -> dict[str, int | float]:
        """Contribution reuse: ``hits`` are applications that reused a
        batch contribution, ``misses`` are ``analyze`` calls."""
        total = self.folds_saved + self.analyze_calls
        return {
            "hits": self.folds_saved,
            "misses": self.analyze_calls,
            "hit_ratio": self.folds_saved / total if total else 0.0,
        }


class SummaryManager:
    """Keeps persisted summary objects current under annotation traffic,
    and serves them to queries through the one summary-object cache.

    Parameters
    ----------
    database, annotations, catalog:
        The shared storage stack.
    write_through:
        Persist each updated object immediately (default).  Bulk loaders
        may disable this and call :meth:`flush` once at the end.
    object_cache_size:
        Bound of the object cache, which writes fold into and reads fill:
        summary objects plus "never summarized" markers.
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
        object_cache_size: int = 8192,
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
        self.stats = MaintenanceStats()
        # Re-entrant: flush() runs inside add_annotations' locked region.
        # guards_io: the write-through path intentionally persists
        # summary objects while this lock serializes maintenance.
        self._lock = make_rlock("maintenance.summary_manager", guards_io=True)
        self._object_cache_size = object_cache_size
        self._attachments_cache_size = attachments_cache_size
        # (instance, table, row_id) -> object, or None for a row never
        # summarized; OrderedDict gives LRU order.
        self._objects: OrderedDict[
            tuple[str, str, int], SummaryObject | None
        ] = OrderedDict()
        self._dirty: set[tuple[str, str, int]] = set()
        # Keep a read's fill from caching an object a write made stale.
        self._object_stamps = InvalidationStamps(object_cache_size)
        self._hits = 0
        self._misses = 0
        # (table, row_id) -> annotation id -> columns; the scan hot path.
        self._attachments: OrderedDict[
            tuple[str, int], dict[int, frozenset[str]]
        ] = OrderedDict()
        # Keep a read's fill from caching a map a concurrent write made stale.
        self._attachment_stamps = InvalidationStamps(attachments_cache_size)

    # -- object cache ---------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the object cache, reads and writes."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._objects),
                "capacity": self._object_cache_size,
            }

    def _probe(
        self, key: tuple[str, str, int]
    ) -> tuple[bool, SummaryObject | None]:
        """``(cached, object)`` for one key; call under the lock."""
        if key in self._objects:
            self._objects.move_to_end(key)
            self._hits += 1
            return True, self._objects[key]
        self._misses += 1
        return False, None

    def _writable_object(
        self,
        instance: SummaryInstance,
        table: str,
        row_id: int,
        obj: SummaryObject | None,
    ) -> SummaryObject:
        """Cache ``obj`` for maintenance, creating it for a new row."""
        if obj is None:
            obj = instance.new_object()
            self.stats.objects_created += 1
        self._objects[(instance.name, table, row_id)] = obj
        return obj

    def _get_object(
        self, instance: SummaryInstance, table: str, row_id: int
    ) -> SummaryObject:
        cached, obj = self._probe((instance.name, table, row_id))
        if not cached:
            obj = self._catalog.load_object(instance.name, table, row_id)
        obj = self._writable_object(instance, table, row_id, obj)
        self._evict_if_needed()
        return obj

    def _evict_if_needed(self) -> None:
        evicted = []
        while len(self._objects) > self._object_cache_size:
            key, obj = self._objects.popitem(last=False)
            if obj is not None and key in self._dirty:
                evicted.append((key, obj))
        self._save(evicted)

    def _save(
        self, entries: Sequence[tuple[tuple[str, str, int], SummaryObject]]
    ) -> int:
        """Persist ``entries`` in one transaction and stamp their keys.

        ``objects_updated`` counts persisted writes, not folds — in
        deferred mode the counter moves at flush/eviction time instead.
        """
        written = self._catalog.save_objects(
            [(*key, obj) for key, obj in entries]
        )
        for key, _obj in entries:
            self._dirty.discard(key)
            self._object_stamps.invalidate(key)
        self.stats.objects_updated += written
        return written

    def _forget(self, key: tuple[str, str, int]) -> None:
        """Drop ``key`` ahead of a direct catalog write to its row."""
        self._objects.pop(key, None)
        self._dirty.discard(key)
        self._object_stamps.invalidate(key)

    def _mark_updated(
        self, key: tuple[str, str, int], obj: SummaryObject
    ) -> None:
        if self.write_through:
            self._save([(key, obj)])
        else:
            self._dirty.add(key)

    def flush(self) -> int:
        """Persist all deferred updates; returns how many were written.

        All dirty objects go out through the catalog's bulk upsert — one
        transaction regardless of how many objects the deferred window
        accumulated.
        """
        with self._lock:
            written = self._save(
                [
                    (key, obj)
                    for key in sorted(self._dirty)
                    if (obj := self._objects.get(key)) is not None
                ]
            )
            self._dirty.clear()
            return written

    def drop_caches(self) -> None:
        """Flush and empty the object cache (tests, memory pressure)."""
        with self._lock:
            self.flush()
            self._objects.clear()
            self._attachments.clear()

    @contextmanager
    def bypass(self) -> Iterator[None]:
        """Hold maintenance still around writes made straight to the catalog.

        For :func:`~repro.maintenance.rebuild.rebuild_table`,
        :meth:`~repro.storage.catalog.SummaryCatalog.unlink` and
        :meth:`~repro.storage.catalog.SummaryCatalog.drop_instance`:
        deferred updates are flushed and the caches emptied first, the
        body runs under the lock, and afterwards every read that fetched
        before it is refused its fill.
        """
        with self._lock:
            self.drop_caches()
            try:
                yield
            finally:
                self._object_stamps.invalidate_all()

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
            snapshot = self._attachment_stamps.snapshot()
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
                for row_id, attachments in fetched.items():
                    key = (table, row_id)
                    if self._attachment_stamps.fillable(key, snapshot):
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
        self._attachment_stamps.invalidate(key)

    # -- write path -------------------------------------------------------

    def on_annotation_added(
        self, annotation: Annotation, cells: Iterable[CellRef]
    ) -> int:
        """Fold a newly stored annotation into all affected summaries.

        The sequential ``add_to`` reference that the batch ingest path
        (:meth:`add_annotations`) is tested against; the engine itself
        only ingests through the batch.  Returns the number of summary
        objects updated.
        """
        with self._lock:
            self.stats.annotations_processed += 1
            rows: dict[tuple[str, int], None] = {}
            for cell in cells:
                rows.setdefault((cell.table, cell.row_id), None)
            updated = 0
            # instance name -> this call's one analysis of the annotation
            contributions: dict[str, object] = {}
            for table, row_id in rows:
                self._invalidate_attachments(table, row_id)
                for instance in self._catalog.instances_for_table(table):
                    obj = self._get_object(instance, table, row_id)
                    if annotation.annotation_id in obj.annotation_ids():
                        continue  # idempotent replay
                    if instance.name not in contributions:
                        contributions[instance.name] = instance.analyze(annotation)
                    instance.add_to(obj, annotation, contributions[instance.name])
                    self._mark_updated((instance.name, table, row_id), obj)
                    updated += 1
            self.stats.analyze_calls += len(contributions)
            self.stats.folds_saved += updated - len(contributions)
            return updated

    def add_annotations(
        self, batch: Sequence[tuple[Annotation, Sequence[CellRef]]]
    ) -> int:
        """Fold a batch of newly stored annotations into all summaries.

        The bulk counterpart of :meth:`on_annotation_added`, and the
        engine's ingest hot path.  Per affected table it resolves the
        linked instances **once**, bulk-loads every touched summary
        object through the catalog's block reader, analyzes each
        annotation once per instance for the whole batch, across tables
        (batch-wide summarize-once), folds per-object through the types'
        :meth:`fold_many` hooks, and persists all updated objects with
        one ``executemany`` transaction.  Internally the batch always
        runs in deferred-write mode; with :attr:`write_through` enabled
        the deferred updates are flushed before returning, so callers
        observe the same durability as the single-annotation path.

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
            # instance name -> annotation id -> contribution, for the whole
            # batch: every built-in ``analyze`` reads only the annotation, so
            # one covering rows of several tables is still analyzed once.
            contributions: dict[str, dict[int, object]] = {}
            applications = 0
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
                # The write path fetches under the lock: no write can
                # land between its fetch and its fill.
                loaded = (
                    self._catalog.load_objects_for_table(names, table, missing_rows)
                    if missing_rows
                    else {}
                )
                unique: dict[int, Annotation] = {}
                for annotations in row_map.values():
                    applications += len(annotations) * len(instances)
                    for annotation in annotations:
                        unique.setdefault(annotation.annotation_id, annotation)
                for instance in instances:
                    memo = contributions.setdefault(instance.name, {})
                    for annotation_id, annotation in unique.items():
                        if annotation_id not in memo:
                            memo[annotation_id] = instance.analyze(annotation)
                for row_id in sorted(row_map):
                    annotations = row_map[row_id]
                    for instance in instances:
                        memo = contributions[instance.name]
                        key = (instance.name, table, row_id)
                        cached, obj = self._probe(key)
                        if not cached:
                            obj = loaded.get((instance.name, row_id))
                        obj = self._writable_object(instance, table, row_id, obj)
                        folded = obj.fold_many(
                            instance,
                            [
                                (annotation, memo[annotation.annotation_id])
                                for annotation in annotations
                            ],
                        )
                        if folded:
                            self._dirty.add(key)
                            updated += 1
            analyzed = sum(len(memo) for memo in contributions.values())
            self.stats.analyze_calls += analyzed
            self.stats.folds_saved += applications - analyzed
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
                        obj.rerank_groups()
                    self._mark_updated((instance.name, table, row_id), obj)
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
                self._forget((instance.name, table, row_id))
                self._catalog.delete_object(instance.name, table, row_id)
                removed += 1
        return removed

    # -- reads --------------------------------------------------------

    def instances_for_table(self, table: str) -> list[SummaryInstance]:
        """The instances linked to ``table`` (the catalog's, name-sorted)."""
        return self._catalog.instances_for_table(table)

    def current_object(
        self, instance_name: str, table: str, row_id: int
    ) -> SummaryObject | None:
        """One row's summary value; see :meth:`objects_for_rows`."""
        return self.objects_for_rows((instance_name,), table, (row_id,)).get(
            (instance_name, row_id)
        )

    def objects_for_rows(
        self,
        instance_names: Iterable[str],
        table: str,
        row_ids: Iterable[int],
    ) -> dict[tuple[str, int], SummaryObject]:
        """Summary values for a block of rows, read through the object cache.

        Cached pairs are served from memory; the misses are fetched in
        one bulk catalog read with the lock released and cached on the
        way out, "never summarized" included.  A fill never replaces an
        entry a writer cached meanwhile (it is newer than the fetch) and
        skips keys a write stamped since the probe — such a pair is
        returned as fetched, which was current when read.  Pairs with no
        summary state are absent from the result.

        The result holds ``for_query()`` values taken under the lock:
        a fold that starts later detaches the object from its value
        first, so a value never changes once returned.
        """
        names = list(instance_names)
        result: dict[tuple[str, int], SummaryObject] = {}
        missing: list[tuple[str, int]] = []
        with self._lock:
            snapshot = self._object_stamps.snapshot()
            for row_id in row_ids:
                for name in names:
                    cached, obj = self._probe((name, table, row_id))
                    if not cached:
                        missing.append((name, row_id))
                    elif obj is not None:
                        result[(name, row_id)] = obj.for_query()
        if not missing:
            return result
        loaded = self._catalog.load_objects_for_table(
            sorted({name for name, _row_id in missing}),
            table,
            sorted({row_id for _name, row_id in missing}),
        )
        with self._lock:
            for name, row_id in missing:
                key = (name, table, row_id)
                if key in self._objects:
                    obj = self._objects[key]
                else:
                    obj = loaded.get((name, row_id))
                    if self._object_stamps.fillable(key, snapshot):
                        self._objects[key] = obj
                if obj is not None:
                    result[(name, row_id)] = obj.for_query()
            self._evict_if_needed()
        return result
