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
without ever fetching the raw annotation text.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.summaries.base import SummaryObject

#: Memo of a column-set rewrite: input column set -> rewritten set.
ColumnSetMemo = dict[frozenset[str], frozenset[str]]


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


@dataclass(slots=True)
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
    """

    values: tuple[Any, ...]
    summaries: dict[str, "SummaryObject"] = field(default_factory=dict)
    attachments: dict[int, frozenset[str]] = field(default_factory=dict)
    source_rows: frozenset[tuple[str, int]] = field(default_factory=frozenset)

    def copy(self) -> "AnnotatedTuple":
        """Deep-enough copy: summary objects are copied, values shared."""
        return AnnotatedTuple(
            values=self.values,
            summaries={name: obj.copy() for name, obj in self.summaries.items()},
            attachments=dict(self.attachments),
            source_rows=self.source_rows,
        )

    def annotation_ids(self) -> frozenset[int]:
        """Ids of all annotations still contributing to this tuple."""
        return frozenset(self.attachments)

    def annotations_on_columns(self, columns: Iterable[str]) -> set[int]:
        """Annotation ids attached to at least one of ``columns``."""
        wanted = set(columns)
        return {
            annotation_id
            for annotation_id, cols in self.attachments.items()
            if cols & wanted
        }

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
