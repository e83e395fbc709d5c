"""The extended tuple of InsightNotes' data model.

Every tuple flowing through the summary-aware query engine carries:

* its attribute ``values`` under the current operator schema,
* its ``summaries`` — one summary object per summary instance linked to the
  originating relation(s), and
* an ``attachments`` map recording, for each raw annotation that contributed
  to those summaries, which of the tuple's *current* columns the annotation
  is attached to.

The attachments map is what makes the extended projection semantics
(Theorems 1–2 of the engine paper) computable anywhere in the plan: when a
projection drops columns, every annotation whose remaining attachment set
becomes empty has its effect removed from the tuple's summary objects —
without ever fetching the raw annotation text.  The removal is deferred
to the first read of each summary object (:meth:`AnnotatedTuple.drop`).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping, Set
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.summaries.base import SummaryObject

#: Memo of a column-set rewrite: input column set -> rewritten set.
ColumnSetMemo = dict[frozenset[str], frozenset[str]]

#: The pending drop set of a row with nothing pending.
_NO_DROPS: frozenset[int] = frozenset()


def rewrite_attachments(
    attachments: Mapping[int, frozenset[str]],
    rewrite: Callable[[frozenset[str]], frozenset[str]],
    memo: ColumnSetMemo,
) -> tuple[dict[int, frozenset[str]], set[int]]:
    """Rewrite every annotation's column set; return the map and dropped ids.

    ``rewrite`` runs once per *distinct* column set: ``memo`` keeps its
    results, so a caller that rewrites many rows through one function
    passes the same memo to every call (and a fresh one per function).
    Annotations whose rewritten set is empty are left out of the map and
    their ids returned — the caller removes their effect from the summary
    objects.
    """
    rewritten: dict[int, frozenset[str]] = {}
    dropped: set[int] = set()
    for annotation_id, columns in attachments.items():
        result = memo.get(columns)
        if result is None:
            result = memo[columns] = rewrite(columns)
        if result:
            rewritten[annotation_id] = result
        else:
            dropped.add(annotation_id)
    return rewritten, dropped


class AnnotatedTuple:
    """A tuple plus its annotation summaries.

    Parameters
    ----------
    values:
        Attribute values, positionally aligned with the operator's output
        schema (the operator owns the column-name list).
    summaries:
        Mapping of summary-instance name to the summary object describing
        this tuple's annotations under that instance.
    attachments:
        Mapping of annotation id to the frozenset of column names (in the
        current schema) the annotation is attached to.  Only annotations
        whose effect is still present in ``summaries`` appear here.
    source_rows:
        ``(table, row_id)`` pairs of the base rows this tuple derives from.
        Used by zoom-in execution and the under-the-hood operator log.

    Projection is deferred.  Operators that drop annotations call
    :meth:`drop`, which only unions the ids into the row's *pending* drop
    set; an instance is projected — one ``without(pending)`` call — the
    first time something reads it, through :meth:`summary` (one instance)
    or :attr:`summaries` (all of them).  By the projection law
    ``without(A).without(B) == without(A | B)`` a read returns exactly
    what projecting eagerly at every drop would have, while instances
    that no one reads before a Limit or a filter discards the row are
    never projected.  A drop that arrives after an instance was read
    projects that instance right away, so a read instance always carries
    every drop so far.

    A row is forced on one thread: operators run on the query's thread,
    and a result is sized (which reads every instance) before the zoom-in
    cache shares it.
    """

    __slots__ = ("values", "attachments", "source_rows", "_summaries", "_pending", "_forced")

    def __init__(
        self,
        values: tuple[Any, ...],
        summaries: dict[str, "SummaryObject"] | None = None,
        attachments: dict[int, frozenset[str]] | None = None,
        source_rows: frozenset[tuple[str, int]] = frozenset(),
    ) -> None:
        self.values = values
        self.attachments = {} if attachments is None else attachments
        self.source_rows = source_rows
        self._summaries = {} if summaries is None else summaries
        #: Ids whose effect the values in ``_summaries`` still carry.
        self._pending: Set[int] = _NO_DROPS
        #: Instances read while ``_pending`` was set, already projected.
        self._forced: dict[str, SummaryObject] | None = None

    @property
    def summaries(self) -> dict[str, "SummaryObject"]:
        """Every instance, projected: a plain dict.

        Forces each instance still pending.  Forcing rebinds rather than
        changes the row's map, so a dict returned here is never altered by
        a later drop set (the tracer keeps it as a snapshot).
        """
        pending = self._pending
        if pending:
            forced = self._forced
            self._summaries = {
                name: (
                    value.without(pending)
                    if forced is None or name not in forced
                    else forced[name]
                )
                for name, value in self._summaries.items()
            }
            self._pending = _NO_DROPS
            self._forced = None
        return self._summaries

    @summaries.setter
    def summaries(self, summaries: dict[str, "SummaryObject"]) -> None:
        """Replace every instance; the new values have nothing pending."""
        self._summaries = summaries
        self._pending = _NO_DROPS
        self._forced = None

    def summary(self, name: str) -> "SummaryObject | None":
        """Instance ``name`` projected, or ``None`` when the row lacks it.

        Projects that one instance on its first read after a drop and
        keeps the result; the other instances stay pending.
        """
        value = self._summaries.get(name)
        if value is None or not self._pending:
            return value
        forced = self._forced
        if forced is None:
            forced = self._forced = {}
        projected = forced.get(name)
        if projected is None:
            projected = forced[name] = value.without(self._pending)
        return projected

    def drop(self, ids: Set[int]) -> None:
        """Remove ``ids``' effect: now from read instances, on read from the rest.

        The row keeps ``ids`` as it is (callers hand over a fresh set and
        never change it afterwards) and unions later sets into a new one.
        """
        if ids:
            if self._forced:
                self._forced = {
                    name: value.without(ids) for name, value in self._forced.items()
                }
            self._pending = ids if not self._pending else self._pending | ids

    def annotation_ids(self) -> frozenset[int]:
        """Ids of all annotations still contributing to this tuple."""
        return frozenset(self.attachments)

    def restrict_attachments(
        self,
        kept_columns: Collection[str],
        memo: ColumnSetMemo | None = None,
    ) -> set[int]:
        """Narrow attachments to ``kept_columns``; return dropped ids.

        For every annotation, the attachment set is intersected with the
        kept columns.  Annotations whose intersection is empty are removed
        from the map and their ids returned — the caller is responsible for
        removing their effect from the summary objects.  A caller
        narrowing many rows to the same columns passes them as a frozenset
        and shares one ``memo`` across the rows, so each distinct column
        set is intersected once.
        """
        kept = frozenset(kept_columns)  # no copy when already a frozenset
        self.attachments, dropped = rewrite_attachments(
            self.attachments,
            lambda columns: columns & kept,
            {} if memo is None else memo,
        )
        return dropped

    def rename_attachment_columns(self, mapping: Mapping[str, str]) -> None:
        """Rewrite attachment column names through ``mapping``.

        Columns absent from the mapping keep their name.  Used when an
        operator renames its output schema (e.g. alias-qualified join
        output).
        """
        self.attachments = {
            annotation_id: frozenset(mapping.get(col, col) for col in cols)
            for annotation_id, cols in self.attachments.items()
        }

    def total_summary_size(self) -> int:
        """Sum of the size estimates of all attached summary objects."""
        return sum(obj.size_estimate() for obj in self.summaries.values())
