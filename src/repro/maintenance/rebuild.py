"""Recompute-from-scratch maintenance baseline.

The naive alternative to incremental maintenance: whenever an annotation
arrives, rebuild the affected rows' summary objects from *all* their raw
annotations.  Its cost grows with the number of annotations already on the
row, while the incremental path's cost is per-annotation — the gap the
EXP-M1 benchmark measures.

The standalone :func:`rebuild_row` / :func:`rebuild_table` helpers are also
used legitimately: to bootstrap a newly linked instance (a link *is* a
table rebuild) and to repair state after non-invertible changes (e.g.
retraining a classifier model).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.model.annotation import Annotation
from repro.model.cell import CellRef
from repro.storage.annotations import AnnotationStore
from repro.storage.catalog import SummaryCatalog
from repro.storage.database import Database
from repro.summaries.base import SummaryInstance, SummaryObject


def rebuild_row(
    annotations: AnnotationStore,
    catalog: SummaryCatalog,
    instance: SummaryInstance,
    table: str,
    row_id: int,
    persist: bool = True,
) -> SummaryObject | None:
    """Rebuild one row's summary object from its raw annotations.

    Annotations are applied in id order, which makes rebuilds reproducible
    (order matters for clustering).  Returns the fresh object, or None —
    with any persisted object deleted — when the row has no annotations.
    """
    pairs = annotations.annotations_for_row(table, row_id)
    if not pairs:
        if persist:
            catalog.delete_object(instance.name, table, row_id)
        return None
    obj = instance.new_object()
    for annotation, _columns in pairs:  # already id-ordered by the store
        instance.add_to(obj, annotation, instance.analyze(annotation))
    if persist:
        catalog.save_object(instance.name, table, row_id, obj)
    return obj


def rebuild_table(
    database: Database,
    annotations: AnnotationStore,
    catalog: SummaryCatalog,
    instance_name: str,
    table: str,
) -> int:
    """Rebuild every row of ``table`` for one instance; returns how many
    rows got an object (rows without annotations get none).

    Rows are rebuilt in memory, then the pair's stored state is replaced
    in one write: on each shard, one transaction purges the pair and
    upserts the rebuilt objects.  Linking an instance to a table is this
    rebuild (:meth:`~repro.engine.session.InsightNotes.link`).
    """
    instance = catalog.get_instance(instance_name)
    objects: dict[int, SummaryObject] = {}
    for row_id, _values in database.rows(table):
        obj = rebuild_row(
            annotations, catalog, instance, table, row_id, persist=False
        )
        if obj is not None:
            objects[row_id] = obj
    catalog.replace_objects(instance_name, table, objects)
    return len(objects)


class RebuildMaintainer:
    """Drop-in maintenance strategy that rebuilds instead of updating.

    Exposes the same ``on_annotation_added`` entry point as
    :class:`~repro.maintenance.incremental.SummaryManager` so benchmarks
    can swap strategies without changing the driving loop.
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

    def on_annotation_added(
        self, annotation: Annotation, cells: Iterable[CellRef]
    ) -> int:
        """Rebuild the summaries of every row the annotation touches."""
        return self._rebuild_rows(
            dict.fromkeys((cell.table, cell.row_id) for cell in cells)
        )

    def on_annotation_deleted(self, annotation_id: int) -> int:
        """Rebuild the summaries of every row the annotation touched."""
        return self._rebuild_rows(
            sorted(self._annotations.rows_for_annotation(annotation_id))
        )

    def _rebuild_rows(self, rows: Iterable[tuple[str, int]]) -> int:
        rebuilt = 0
        for table, row_id in rows:
            for instance in self._catalog.instances_for_table(table):
                rebuild_row(self._annotations, self._catalog, instance, table, row_id)
                rebuilt += 1
        return rebuilt

    def flush(self) -> int:
        """No deferred state; present for interface parity."""
        return 0
