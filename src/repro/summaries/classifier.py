"""The Classifier summary type.

A classifier instance (e.g. ``ClassBird1`` with labels Behavior / Disease /
Anatomy / Other) assigns every raw annotation one class label.  The
per-tuple summary object is the familiar rendering from Figure 1:

    ClassBird1  [(Behavior, 33), (Disease, 8), (Anatomy, 25), (Other, 16)]

Internally the object keeps the *annotation ids* per label, not just the
counts, because (a) the join merge must not double-count an annotation
attached to both inputs, (b) projection must remove individual annotations'
effects, and (c) zoom-in must expand a label back into its raw annotations.

Classification is annotation-invariant and data-invariant: the predicted
label of an annotation depends only on its text, so the summarize-once
optimization applies in full.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from typing import Any

from repro.model.annotation import Annotation
from repro.summaries.base import (
    InstanceProperties,
    SummaryInstance,
    SummaryObject,
    SummaryType,
    ZoomComponent,
    sets_union,
    sets_without,
)
from repro.summaries.naive_bayes import NaiveBayesClassifier
from repro.text.tokenize import Tokenizer

TYPE_NAME = "Classifier"


class ClassifierSummary(SummaryObject):
    """Per-tuple classifier summary: label -> set of annotation ids."""

    type_name = TYPE_NAME

    def __init__(self, instance_name: str, labels: Sequence[str]) -> None:
        super().__init__(instance_name)
        self.labels: tuple[str, ...] = tuple(labels)
        self._members: dict[str, set[int]] = {label: set() for label in self.labels}

    # -- construction ------------------------------------------------

    def add(self, annotation_id: int, label: str) -> None:
        """Record ``annotation_id`` under ``label``.

        Re-adding an id under the same label is a no-op (idempotent), which
        makes replay-based maintenance safe.  Adding it under a *different*
        label raises: one annotation has exactly one class.
        """
        self._writable()
        if label not in self._members:
            raise ValueError(
                f"label {label!r} not in instance labels {self.labels}"
            )
        for other_label, ids in self._members.items():
            if other_label != label and annotation_id in ids:
                raise ValueError(
                    f"annotation {annotation_id} already classified as "
                    f"{other_label!r}, cannot also be {label!r}"
                )
        self._members[label].add(annotation_id)

    # -- inspection ----------------------------------------------------

    def count(self, label: str) -> int:
        """Number of annotations classified under ``label``."""
        return len(self._members.get(label, ()))

    def counts(self) -> list[tuple[str, int]]:
        """``(label, count)`` pairs in label order — the Figure 1 view."""
        return [(label, len(self._members[label])) for label in self.labels]

    def members(self, label: str) -> frozenset[int]:
        """Annotation ids classified under ``label``."""
        return frozenset(self._members.get(label, ()))

    def label_of(self, annotation_id: int) -> str | None:
        """The label assigned to ``annotation_id``, or None if absent."""
        for label, ids in self._members.items():
            if annotation_id in ids:
                return label
        return None

    def annotation_ids(self) -> frozenset[int]:
        return frozenset().union(*self._members.values()) if self._members else frozenset()

    # -- batch maintenance -----------------------------------------------

    def fold_many(
        self,
        instance: SummaryInstance,
        items: Sequence[tuple[Annotation, Any]],
    ) -> int:
        """Vectorized batch fold: one membership scan, one set update per label.

        The sequential path pays an O(labels x members) scan per fold (the
        cross-label conflict check inside :meth:`add`); here the id->label
        assignment is built once and new ids land in their label sets in
        bulk.  Already-present ids are skipped exactly as the maintenance
        layer's replay rule does.
        """
        self._writable()
        if not items:
            return 0
        assigned: set[int] = set()
        for ids in self._members.values():
            assigned |= ids
        pending: dict[str, list[int]] = {}
        folded = 0
        for annotation, label in items:
            annotation_id = annotation.annotation_id
            if annotation_id in assigned:
                continue
            if label not in self._members:
                raise ValueError(
                    f"label {label!r} not in instance labels {self.labels}"
                )
            assigned.add(annotation_id)
            pending.setdefault(label, []).append(annotation_id)
            folded += 1
        for label, ids in pending.items():
            self._members[label].update(ids)
        return folded

    # -- query-time algebra -------------------------------------------

    def copy(self) -> "ClassifierSummary":
        clone = ClassifierSummary(self.instance_name, self.labels)
        clone._members = {label: set(ids) for label, ids in self._members.items()}
        return clone

    def remove_annotations(self, ids: Set[int]) -> None:
        self._writable()
        members = sets_without(self._members, ids, keep_empty=True)
        if members is not None:
            self._members = members

    def without(self, ids: Set[int]) -> "ClassifierSummary":
        """Projection that rebuilds only the label sets ``ids`` hit."""
        view = self.for_query()
        members = sets_without(view._members, ids, keep_empty=True)
        return view if members is None else view._value(_members=members)

    def merge(self, *others: SummaryObject) -> "ClassifierSummary":
        for other in others:
            if not isinstance(other, ClassifierSummary):
                raise TypeError(f"cannot merge ClassifierSummary with {type(other).__name__}")
            if other.labels != self.labels:
                raise ValueError(
                    "cannot merge classifier summaries with different label sets: "
                    f"{self.labels} vs {other.labels}"
                )
        # Set union is exactly the dedup-aware merge of Figure 2: an
        # annotation attached to both join inputs is counted once.
        members = sets_union(
            obj.for_query()._members for obj in (self, *others)  # type: ignore[attr-defined]
        )
        return self._value(_members=members)

    def for_query(self) -> "ClassifierSummary":
        return self._shared_view()

    # -- zoom-in ---------------------------------------------------------

    def zoom_components(self) -> list[ZoomComponent]:
        return [
            ZoomComponent(
                index=position,
                label=label,
                annotation_ids=tuple(sorted(self._members[label])),
            )
            for position, label in enumerate(self.labels, start=1)
        ]

    # -- bookkeeping -----------------------------------------------------

    def size_estimate(self) -> int:
        # Label strings plus ~8 bytes per stored annotation id.
        label_bytes = sum(len(label) for label in self.labels)
        id_bytes = 8 * sum(len(ids) for ids in self._members.values())
        return label_bytes + id_bytes + 16

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "instance": self.instance_name,
            "labels": list(self.labels),
            "members": {label: sorted(ids) for label, ids in self._members.items()},
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ClassifierSummary":
        obj = cls(data["instance"], data["labels"])
        for label, ids in data.get("members", {}).items():
            obj._members[label] = set(ids)
        return obj

    def render(self) -> str:
        body = ", ".join(f"({label}, {count})" for label, count in self.counts())
        return f"{self.instance_name} [{body}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassifierSummary {self.render()}>"


class ClassifierInstance(SummaryInstance):
    """A configured classifier: labels + trained Naive Bayes model."""

    type_name = TYPE_NAME

    def __init__(
        self,
        name: str,
        labels: Sequence[str],
        model: NaiveBayesClassifier | None = None,
        properties: InstanceProperties | None = None,
    ) -> None:
        super().__init__(
            name,
            properties
            or InstanceProperties(annotation_invariant=True, data_invariant=True),
        )
        self.labels: tuple[str, ...] = tuple(labels)
        self.model = model or NaiveBayesClassifier(self.labels)
        if self.model.labels != self.labels:
            raise ValueError(
                f"model labels {self.model.labels} do not match "
                f"instance labels {self.labels}"
            )

    def train(self, examples: Sequence[tuple[str, str]]) -> None:
        """Train (or continue training) the underlying model."""
        self.model.fit(examples)

    def new_object(self) -> ClassifierSummary:
        return ClassifierSummary(self.name, self.labels)

    def analyze(self, annotation: Annotation) -> str:
        """Predict the class label — the cacheable contribution."""
        return self.model.predict(annotation.text)

    def add_to(
        self,
        obj: SummaryObject,
        annotation: Annotation,
        contribution: str,
    ) -> None:
        if not isinstance(obj, ClassifierSummary):
            raise TypeError(f"expected ClassifierSummary, got {type(obj).__name__}")
        obj.add(annotation.annotation_id, contribution)

    def config(self) -> dict[str, Any]:
        return {
            "labels": list(self.labels),
            "model": self.model.to_json(),
            "annotation_invariant": self.properties.annotation_invariant,
            "data_invariant": self.properties.data_invariant,
        }


class ClassifierType(SummaryType):
    """Level-1 registration of the Classifier technique family."""

    name = TYPE_NAME

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer

    def create_instance(
        self, instance_name: str, config: Mapping[str, Any]
    ) -> ClassifierInstance:
        labels = config["labels"]
        model_data = config.get("model")
        model = (
            NaiveBayesClassifier.from_json(model_data, tokenizer=self._tokenizer)
            if model_data
            else NaiveBayesClassifier(labels, tokenizer=self._tokenizer)
        )
        properties = InstanceProperties(
            annotation_invariant=config.get("annotation_invariant", True),
            data_invariant=config.get("data_invariant", True),
        )
        return ClassifierInstance(
            instance_name, labels, model=model, properties=properties
        )

    def object_from_json(self, data: Mapping[str, Any]) -> ClassifierSummary:
        return ClassifierSummary.from_json(data)
