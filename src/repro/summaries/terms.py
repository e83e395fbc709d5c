"""The Terms summary type — frequent terms across a tuple's annotations.

An extension type beyond the paper's built-in three, registered through
the same level-1 interface (``extended_registry()``): for each tuple it
maintains, per term, the set of annotations mentioning it, and reports the
top-k most frequent terms.  This gives scientists an at-a-glance "what are
people talking about" view (``[(stonewort, 17), (influenza, 9), ...]``)
and zoom-in expands a term into the annotations that mention it.

Term extraction depends only on the annotation text, so the type is
annotation- and data-invariant and benefits from summarize-once.  The
full term -> ids map is kept (removal must be exact under projection);
only rendering and zoom enumeration are capped at ``top_k``.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
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
from repro.text.tokenize import Tokenizer

TYPE_NAME = "Terms"

DEFAULT_TOP_K = 8


class TermsSummary(SummaryObject):
    """Per-tuple term summary: term -> annotation ids mentioning it."""

    type_name = TYPE_NAME

    def __init__(self, instance_name: str, top_k: int = DEFAULT_TOP_K) -> None:
        super().__init__(instance_name)
        self.top_k = top_k
        self._members: dict[str, set[int]] = {}

    # -- construction ------------------------------------------------

    def add(self, annotation_id: int, terms: Set[str]) -> None:
        """Record that ``annotation_id`` mentions each of ``terms``."""
        self._writable()
        for term in terms:
            self._members.setdefault(term, set()).add(annotation_id)

    # -- inspection ----------------------------------------------------

    def term_count(self, term: str) -> int:
        """How many annotations mention ``term``."""
        return len(self._members.get(term, ()))

    def top_terms(self, k: int | None = None) -> list[tuple[str, int]]:
        """The ``k`` most frequent terms as ``(term, count)`` pairs.

        Count-descending, term-ascending tie-break — deterministic so the
        zoom-in INDEX addressing is stable.
        """
        limit = self.top_k if k is None else k
        ranked = sorted(
            self._members.items(), key=lambda item: (-len(item[1]), item[0])
        )
        return [(term, len(ids)) for term, ids in ranked[:limit]]

    def annotation_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        for members in self._members.values():
            ids |= members
        return frozenset(ids)

    # -- query-time algebra -------------------------------------------

    def copy(self) -> "TermsSummary":
        clone = TermsSummary(self.instance_name, self.top_k)
        clone._members = {term: set(ids) for term, ids in self._members.items()}
        return clone

    def remove_annotations(self, ids: Set[int]) -> None:
        """Drop ``ids`` in place; emptied terms drop out, the rest keep order."""
        self._writable()
        members = sets_without(self._members, ids, keep_empty=False)
        if members is not None:
            self._members = members

    def without(self, ids: Set[int]) -> "TermsSummary":
        """Projection that rebuilds only the term sets ``ids`` hit."""
        view = self.for_query()
        members = sets_without(view._members, ids, keep_empty=False)
        return view if members is None else view._value(_members=members)

    def merge(self, *others: SummaryObject) -> "TermsSummary":
        for other in others:
            if not isinstance(other, TermsSummary):
                raise TypeError(f"cannot merge TermsSummary with {type(other).__name__}")
        inputs = [obj.for_query() for obj in (self, *others)]
        return self._value(
            top_k=max(obj.top_k for obj in inputs),  # type: ignore[attr-defined]
            _members=sets_union(obj._members for obj in inputs),  # type: ignore[attr-defined]
        )

    def for_query(self) -> "TermsSummary":
        return self._shared_view()

    # -- zoom-in ---------------------------------------------------------

    def zoom_components(self) -> list[ZoomComponent]:
        return [
            ZoomComponent(
                index=position,
                label=term,
                annotation_ids=tuple(sorted(self._members[term])),
            )
            for position, (term, _count) in enumerate(self.top_terms(), start=1)
        ]

    # -- bookkeeping -----------------------------------------------------

    def size_estimate(self) -> int:
        return 16 + sum(
            len(term) + 8 * len(ids) for term, ids in self._members.items()
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "instance": self.instance_name,
            "top_k": self.top_k,
            "members": {
                term: sorted(ids) for term, ids in self._members.items()
            },
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TermsSummary":
        obj = cls(data["instance"], top_k=data.get("top_k", DEFAULT_TOP_K))
        for term, ids in data.get("members", {}).items():
            obj._members[term] = set(ids)
        return obj

    def render(self) -> str:
        body = ", ".join(f"({term}, {count})" for term, count in self.top_terms())
        return f"{self.instance_name} [{body}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TermsSummary {len(self._members)} terms>"


class TermsInstance(SummaryInstance):
    """A configured Terms instance: tokenizer + top-k."""

    type_name = TYPE_NAME

    def __init__(
        self,
        name: str,
        top_k: int = DEFAULT_TOP_K,
        tokenizer: Tokenizer | None = None,
        properties: InstanceProperties | None = None,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        super().__init__(
            name,
            properties
            or InstanceProperties(annotation_invariant=True, data_invariant=True),
        )
        self.top_k = top_k
        self._tokenizer = tokenizer or Tokenizer()

    def new_object(self) -> TermsSummary:
        return TermsSummary(self.name, top_k=self.top_k)

    def analyze(self, annotation: Annotation) -> frozenset[str]:
        """Distinct terms of the annotation — the cacheable contribution."""
        return frozenset(self._tokenizer.tokens(annotation.text))

    def add_to(
        self,
        obj: SummaryObject,
        annotation: Annotation,
        contribution: frozenset[str],
    ) -> None:
        if not isinstance(obj, TermsSummary):
            raise TypeError(f"expected TermsSummary, got {type(obj).__name__}")
        obj.add(annotation.annotation_id, contribution)

    def config(self) -> dict[str, Any]:
        return {
            "top_k": self.top_k,
            "annotation_invariant": self.properties.annotation_invariant,
            "data_invariant": self.properties.data_invariant,
        }


class TermsType(SummaryType):
    """Level-1 registration of the Terms technique family."""

    name = TYPE_NAME

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer

    def create_instance(
        self, instance_name: str, config: Mapping[str, Any]
    ) -> TermsInstance:
        properties = InstanceProperties(
            annotation_invariant=config.get("annotation_invariant", True),
            data_invariant=config.get("data_invariant", True),
        )
        return TermsInstance(
            instance_name,
            top_k=config.get("top_k", DEFAULT_TOP_K),
            tokenizer=self._tokenizer,
            properties=properties,
        )

    def object_from_json(self, data: Mapping[str, Any]) -> TermsSummary:
        return TermsSummary.from_json(data)
