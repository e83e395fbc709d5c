"""The correctness gate: what the program returned against the raw baseline.

Runs outside every timed section.  Each distinct read statement of the
script is executed once more through the same path the workload uses and
compared with :class:`repro.baselines.RawQueryEngine` on the same
database state — row values, the propagated annotation ids, and a
canonical fingerprint of every summary object (classifier members by
label against a fresh classification of the raw annotations, cluster
coverage, snippet coverage of the documents).  Each distinct zoom-in
variant is replayed against that result and must return exactly the
annotation ids behind the named component.
"""

from __future__ import annotations

from typing import Any

from repro import AnnotationKind, InsightNotes, InsightNotesError
from repro.baselines import RawQueryEngine
from repro.engine.results import QueryResult
from repro.engine.sqlparser import build_logical, parse_sql

from benchmarks.e2e.spec import CLASSIFIERS, CLUSTER, SNIPPET

#: Summary objects are fingerprinted on this many leading rows of a result
#: (classifying every raw annotation again is the gate's dearest step);
#: row values and propagated ids are compared on every row.
_FINGERPRINT_ROWS = 5
#: The engine projects before it filters (Theorems 1-2 normalisation), so
#: SUMMARY_COUNT sees only annotations that touch a kept column.
_SUMMARY_BASE = "SELECT name, species FROM birds"


class Gate:
    """Collects checks made and mismatches found for one run.

    A gate is used on one quiesced database state (no writes between its
    checks): labels and the SUMMARY_COUNT base scan are computed once.
    """

    def __init__(self, oracle: InsightNotes) -> None:
        self._session = oracle
        self._raw = RawQueryEngine(oracle.db, oracle.annotations)
        self._labels: dict[tuple[str, int], str] = {}
        self._summary_base: list[tuple[tuple[Any, ...], dict[int, Any]]] | None = None
        self.checked = 0
        self.mismatches: list[str] = []

    def revive(self, payload: dict[str, Any]) -> QueryResult:
        """A wire ``query`` response as a :class:`QueryResult`."""
        return QueryResult.from_json(payload, self._session.catalog.registry)

    def _fail(self, what: str, detail: str) -> None:
        self.mismatches.append(f"{what}: {detail}")

    def _raw_rows(self, sql: str) -> list[tuple[tuple[Any, ...], dict[int, Any]]]:
        planner = self._session.planner
        plan = planner.prepare(build_logical(parse_sql(sql), planner))
        return [(row.values, row.annotations) for row in self._raw.execute(plan).tuples]

    def _label(self, instance: str, annotation: Any) -> str:
        key = (instance, annotation.annotation_id)
        label = self._labels.get(key)
        if label is None:
            label = self._session.catalog.get_instance(instance).analyze(annotation)
            self._labels[key] = label
        return label

    def _expected_summary(self, op: dict[str, Any]) -> list[tuple[Any, dict[int, Any]]]:
        """Oracle for the SUMMARY_COUNT top-10: classify the raw annotations."""
        label, threshold = op["params"]
        if self._summary_base is None:
            self._summary_base = self._raw_rows(_SUMMARY_BASE)
        scored = []
        for values, annotations in self._summary_base:
            count = sum(
                self._label("ClassBird1", annotation) == label
                for annotation, _columns in annotations.values()
            )
            if count > threshold:
                scored.append((count, values, annotations))
        scored.sort(key=lambda entry: -entry[0])  # stable: ties stay in rowid order
        return [(values, annotations) for _count, values, annotations in scored[:10]]

    def check_read(self, op: dict[str, Any], result: QueryResult) -> None:
        """Compare one read result with the raw-propagation baseline."""
        self.checked += 1
        what = f"op {op['i']} {op['op']}"
        expected = (
            self._expected_summary(op) if op["op"] == "summary"
            else self._raw_rows(op["sql"])
        )
        ordered = op["op"] == "summary"
        got = [(row.values, frozenset(row.annotation_ids())) for row in result.tuples]
        want = [(values, frozenset(annotations)) for values, annotations in expected]
        if not ordered:
            got.sort(key=repr)
            want.sort(key=repr)
        if got != want:
            self._fail(what, f"rows/annotation ids differ ({len(got)} vs {len(want)} rows)")
            return
        # Two join rows may show the same values; the ids they carry tell them apart.
        by_row = {(values, frozenset(annotations)): annotations
                  for values, annotations in expected}
        for row in result.tuples[:_FINGERPRINT_ROWS]:
            ids = frozenset(row.annotation_ids())
            annotations = by_row[row.values, ids]
            for instance in CLASSIFIERS:
                obj = row.summaries.get(instance)
                if obj is None:
                    continue
                members: dict[str, set[int]] = {label: set() for label in obj.labels}
                for annotation, _columns in annotations.values():
                    members[self._label(instance, annotation)].add(annotation.annotation_id)
                if any(obj.members(label) != members[label] for label in obj.labels):
                    self._fail(what, f"{instance} members differ on {row.values}")
            cluster = row.summaries.get(CLUSTER)
            if cluster is not None and cluster.annotation_ids() != ids:
                self._fail(what, f"{CLUSTER} coverage differs on {row.values}")
            snippet = row.summaries.get(SNIPPET)
            documents = {
                i for i, (a, _c) in annotations.items() if a.kind is AnnotationKind.DOCUMENT
            }
            if snippet is not None and snippet.annotation_ids() != documents:
                self._fail(what, f"{SNIPPET} coverage differs on {row.values}")

    def check_zoomin(
        self, op: dict[str, Any], result: QueryResult, zoom: dict[str, Any]
    ) -> None:
        """``zoom`` (wire JSON form) must expand exactly ``result``'s components."""
        self.checked += 1
        what = f"op {op['i']} zoomin"
        instance, index, detail = op["params"]
        full = detail == "FULL"
        expected = []
        for row in result.tuples:
            obj = row.summaries.get(instance)
            if obj is None:
                continue
            components = obj.zoom_components()
            for component in components if index is None else [components[index - 1]]:
                ids = list(component.annotation_ids) if full else []
                expected.append((list(row.values), component.index, component.label, ids))
        got = [
            (m["values"], m["component"]["index"], m["component"]["label"],
             [a["annotation_id"] for a in m["annotations"]])
            for m in zoom["matches"]
        ]
        if got != expected:
            self._fail(what, f"components differ ({len(got)} vs {len(expected)} matches)")
            return
        if not full:
            return
        returned = {a["annotation_id"]: a for m in zoom["matches"] for a in m["annotations"]}
        stored = self._session.annotations.get_many(returned)
        for annotation in stored:
            if returned[annotation.annotation_id]["text"] != annotation.text:
                self._fail(what, f"annotation {annotation.annotation_id} text differs")
        if instance in CLASSIFIERS:
            by_id = {annotation.annotation_id: annotation for annotation in stored}
            for match in zoom["matches"]:
                label = match["component"]["label"]
                if any(
                    self._label(instance, by_id[a["annotation_id"]]) != label
                    for a in match["annotations"]
                ):
                    self._fail(what, f"{instance} zoom-in returned a foreign label")

    def check_durable(
        self, fresh: InsightNotes, initial: int, acknowledged: list[int]
    ) -> None:
        """``fresh`` (a session opened after close) must read every acknowledged id."""
        self.checked += 1
        try:
            fresh.annotations.get_many(acknowledged)
        except InsightNotesError as exc:
            self._fail("durability", f"acknowledged annotation unreadable: {exc!r}")
        count = fresh.annotations.count()
        if len(set(acknowledged)) != len(acknowledged) or count != initial + len(acknowledged):
            self._fail(
                "durability",
                f"count {count} != initial {initial} + acknowledged {len(acknowledged)}",
            )
