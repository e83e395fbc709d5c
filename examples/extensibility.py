"""Figure 4 scenario: extensibility and the summarization hierarchy.

Demonstrates all three levels:

1. **Summary Types** — registering a brand-new type (an author-histogram
   summarizer) alongside the built-in Classifier/Cluster/Snippet;
2. **Summary Instances** — defining domain-specific instances (the
   biological FunctionPrediction/Provenance/Comment classifier vs. the
   ornithological Behavior/Disease/Anatomy/Other one) with their invariant
   properties;
3. **Summary Objects** — linking instances to relations at runtime and
   watching existing annotations get summarized under the new instance.
"""

from collections.abc import Mapping, Set
from typing import Any

from repro import InsightNotes
from repro.model.annotation import Annotation
from repro.summaries.base import (
    InstanceProperties,
    SummaryInstance,
    SummaryObject,
    SummaryType,
    ZoomComponent,
)
from repro.summaries.registry import default_registry


class AuthorSummary(SummaryObject):
    """Custom level-3 object: per-author annotation counts."""

    type_name = "AuthorHistogram"

    def __init__(self, instance_name: str) -> None:
        super().__init__(instance_name)
        self.by_author: dict[str, set[int]] = {}

    def annotation_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        for members in self.by_author.values():
            ids |= members
        return frozenset(ids)

    def copy(self) -> "AuthorSummary":
        clone = AuthorSummary(self.instance_name)
        clone.by_author = {a: set(m) for a, m in self.by_author.items()}
        return clone

    def remove_annotations(self, ids: Set[int]) -> None:
        for author in list(self.by_author):
            self.by_author[author] -= ids
            if not self.by_author[author]:
                del self.by_author[author]

    def merge(self, *others: SummaryObject) -> "AuthorSummary":
        # The dedup-aware union of self and every counterpart: copy once,
        # fold each other in.
        merged = self.copy()
        for other in others:
            assert isinstance(other, AuthorSummary)
            for author, members in other.by_author.items():
                merged.by_author.setdefault(author, set()).update(members)
        return merged

    def zoom_components(self) -> list[ZoomComponent]:
        return [
            ZoomComponent(index=i, label=author,
                          annotation_ids=tuple(sorted(members)))
            for i, (author, members) in enumerate(
                sorted(self.by_author.items()), start=1)
        ]

    def size_estimate(self) -> int:
        return sum(len(a) + 8 * len(m) for a, m in self.by_author.items())

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "instance": self.instance_name,
            "by_author": {a: sorted(m) for a, m in self.by_author.items()},
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "AuthorSummary":
        obj = cls(data["instance"])
        obj.by_author = {a: set(m) for a, m in data["by_author"].items()}
        return obj

    def render(self) -> str:
        body = ", ".join(f"({a}, {len(m)})" for a, m in sorted(self.by_author.items()))
        return f"{self.instance_name} [{body}]"


class AuthorInstance(SummaryInstance):
    """Custom level-2 instance (no configuration needed)."""

    type_name = "AuthorHistogram"

    def __init__(self, name: str) -> None:
        super().__init__(name, InstanceProperties(True, True))

    def new_object(self) -> AuthorSummary:
        return AuthorSummary(self.name)

    def analyze(self, annotation: Annotation) -> str:
        return annotation.author

    def add_to(self, obj: SummaryObject, annotation: Annotation,
               contribution: str) -> None:
        assert isinstance(obj, AuthorSummary)
        obj.by_author.setdefault(contribution, set()).add(
            annotation.annotation_id
        )

    def config(self) -> dict[str, Any]:
        return {}


class AuthorHistogramType(SummaryType):
    """Custom level-1 type registration."""

    name = "AuthorHistogram"

    def create_instance(self, instance_name: str,
                        config: Mapping[str, Any]) -> AuthorInstance:
        return AuthorInstance(instance_name)

    def object_from_json(self, data: Mapping[str, Any]) -> AuthorSummary:
        return AuthorSummary.from_json(data)


def main() -> None:
    # Level 1: register the custom type next to the built-ins.
    registry = default_registry()
    registry.register(AuthorHistogramType())
    notes = InsightNotes(registry=registry)
    print("Registered summary types:", registry.type_names())
    print()

    notes.create_table("genes", ["symbol", "organism", "length"])
    g1 = notes.insert("genes", ("BRCA1", "human", 81189))
    notes.insert("genes", ("tp53", "mouse", 11541))

    # Level 2: two domain-specific classifier instances over the same type.
    notes.define_classifier(
        "GeneClasses",
        labels=["FunctionPrediction", "Provenance", "Comment"],
        training=[
            ("predicted to regulate dna repair pathways", "FunctionPrediction"),
            ("likely involved in tumor suppression function", "FunctionPrediction"),
            ("record imported from the consortium release", "Provenance"),
            ("entry curated by the annotation team", "Provenance"),
            ("interesting gene worth a closer look", "Comment"),
            ("general note about this locus", "Comment"),
        ],
    )
    notes.define_instance("AuthorHistogram", "WhoAnnotated", {})
    for instance in notes.catalog.instance_names():
        print("Defined instance:", notes.catalog.get_instance(instance).describe())
    print()

    # Annotations arrive BEFORE any instance is linked.
    notes.add_annotation("predicted to regulate dna repair in cells",
                         table="genes", row_id=g1, author="curatorA")
    notes.add_annotation("record imported from the consortium release",
                         table="genes", row_id=g1, author="pipeline")
    notes.add_annotation("interesting gene worth a closer look",
                         table="genes", row_id=g1, author="curatorA")

    # Level 3: linking summarizes the existing annotations immediately.
    notes.link("GeneClasses", "genes")
    notes.link("WhoAnnotated", "genes")
    result = notes.query("SELECT symbol, organism FROM genes")
    row = result.tuples[0]
    print("After linking both instances:")
    for name in sorted(row.summaries):
        print(" ", row.summaries[name].render())
    print()

    # Unlinking drops the instance's objects for that relation.
    notes.unlink("WhoAnnotated", "genes")
    result2 = notes.query("SELECT symbol FROM genes")
    print("After unlinking WhoAnnotated:",
          sorted(result2.tuples[0].summaries))
    notes.close()


if __name__ == "__main__":
    main()
