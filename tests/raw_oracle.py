"""Raw-propagation oracle for the summary engine's equivalence tests.

:class:`RawOracle` answers a query with
:class:`repro.baselines.RawQueryEngine` over the *normalized* logical
plan — selections pushed to their relations and un-needed columns
projected out before every merge (Theorems 1–2) — with none of the
engine's storage rewrites: no predicate or LIMIT pushdown, no
aggregation pushdown, no lazy hydration.  Every row
carries its raw annotations, so :meth:`RawOracle.check` can hold a
summary-engine result to:

* the same row values (compared in order, or sorted when a rewrite may
  legally reorder rows),
* the same propagated annotation ids per row,
* per-instance summary coverage: classifier members per label equal
  the instance's own labelling of the raw annotations; cluster, terms
  and timeline objects cover exactly the raw ids; snippets cover
  exactly the raw documents.

Summary functions in WHERE clauses (``SUMMARY_COUNT``, ``GROUP_COUNT``)
are evaluated on objects folded from the row's surviving raw
annotations, in id order, with every instance in the catalog — so the
fixtures using them must link every instance to the tables those
predicates read.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro import AnnotationKind, InsightNotes
from repro.baselines import RawQueryEngine
from repro.engine.expressions import Expression
from repro.engine.sqlparser import CompoundSelect, build_logical, parse_sql
from repro.engine.subqueries import flatten_expression
from repro.model.annotation import Annotation
from repro.model.tuple import AnnotatedTuple
from repro.summaries.base import SummaryObject
from repro.summaries.classifier import ClassifierSummary

#: One expected row: its values and its raw annotations by id.
RawRow = tuple[tuple[Any, ...], dict[int, Annotation]]


class _SummaryAwareRawEngine(RawQueryEngine):
    """Raw propagation whose selections may read summary functions."""

    def __init__(
        self,
        notes: InsightNotes,
        fold: Callable[[dict[int, Annotation]], dict[str, SummaryObject]],
    ) -> None:
        super().__init__(notes.db, notes.annotations)
        self._fold = fold

    def _select(self, predicate: Expression, schema, rows):
        for row in rows:
            annotations = {i: a for i, (a, _c) in row.annotations.items()}
            folded = AnnotatedTuple(values=row.values, summaries=self._fold(annotations))
            if predicate.evaluate(folded, schema):
                yield row


class RawOracle:
    """Expected answers for one quiesced session."""

    def __init__(self, notes: InsightNotes) -> None:
        self.notes = notes
        self._engine = _SummaryAwareRawEngine(notes, self._fold)
        self._contributions: dict[tuple[str, int], Any] = {}

    # -- expected rows ------------------------------------------------

    def _execute(self, statement: Any) -> list[RawRow]:
        self._flatten(statement)
        planner = self.notes.planner
        logical = build_logical(statement, planner)
        plan = planner.normalize(planner.push_down_selections(logical))
        return [
            (row.values, {i: a for i, (a, _c) in row.annotations.items()})
            for row in self._engine.execute(plan).tuples
        ]

    def _flatten(self, statement: Any) -> None:
        """Flatten IN-subqueries by running them on the raw engine too."""
        if isinstance(statement, CompoundSelect):
            for part in statement.parts:
                self._flatten(part)
            return
        if statement.where is not None:
            statement.where = flatten_expression(
                statement.where, self._subquery_values
            )
        if statement.having is not None:
            statement.having = flatten_expression(
                statement.having, self._subquery_values
            )

    def _subquery_values(self, statement: Any) -> tuple[Any, ...]:
        return tuple(values[0] for values, _ in self._execute(statement))

    # -- summaries from raw annotations -----------------------------------

    def _analyze(self, name: str, annotation: Annotation) -> Any:
        key = (name, annotation.annotation_id)
        if key not in self._contributions:
            instance = self.notes.catalog.get_instance(name)
            self._contributions[key] = instance.analyze(annotation)
        return self._contributions[key]

    def _fold(self, annotations: dict[int, Annotation]) -> dict[str, SummaryObject]:
        """Every instance's object recomputed from ``annotations``."""
        folded: dict[str, SummaryObject] = {}
        for name in self.notes.catalog.instance_names():
            instance = self.notes.catalog.get_instance(name)
            obj = instance.new_object()
            for annotation_id in sorted(annotations):
                annotation = annotations[annotation_id]
                instance.add_to(obj, annotation, self._analyze(name, annotation))
            folded[name] = obj
        return folded

    # -- the check ----------------------------------------------------

    def check(self, result: Any, sql: str, ordered: bool = True) -> None:
        """Assert ``result`` (the engine's answer to ``sql``) is right."""
        expected = self._execute(parse_sql(sql))
        got = [(row, _key(row.values, row.annotation_ids())) for row in result.tuples]
        want = [(anns, _key(values, anns)) for values, anns in expected]
        if not ordered:
            got.sort(key=lambda pair: repr(pair[1]))
            want.sort(key=lambda pair: repr(pair[1]))
        assert [key for _, key in got] == [key for _, key in want], sql
        for (row, _), (annotations, _) in zip(got, want):
            for name, obj in row.summaries.items():
                assert self._covered(name, annotations) == _coverage(obj), (
                    f"{sql}: {name} coverage differs on {row.values}"
                )

    def _covered(self, name: str, annotations: dict[int, Annotation]) -> Any:
        """What ``name``'s object over ``annotations`` must cover."""
        instance = self.notes.catalog.get_instance(name)
        if instance.type_name == "Classifier":
            labels: dict[str, set[int]] = {label: set() for label in instance.labels}
            for annotation_id, annotation in annotations.items():
                labels[self._analyze(name, annotation)].add(annotation_id)
            return labels
        if instance.type_name == "Snippet":
            return {
                i for i, a in annotations.items()
                if a.kind is AnnotationKind.DOCUMENT
            }
        return set(annotations)


def _key(values: tuple[Any, ...], ids: Any) -> tuple[Any, ...]:
    return values, tuple(sorted(ids))


def _coverage(obj: SummaryObject) -> Any:
    if isinstance(obj, ClassifierSummary):
        return {label: set(obj.members(label)) for label in obj.labels}
    return set(obj.annotation_ids())
