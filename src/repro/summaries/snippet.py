"""The Snippet summary type.

Large-object annotations — attached articles, long experiment reports —
cannot usefully propagate through queries in full.  A snippet instance
(``TextSummary1`` in Figure 1) extracts a few representative sentences from
each document annotation and carries only those:

    TextSummary1 ["Experiment E ...", "Wikipedia article ..."]

Two extractive methods are provided (after the survey the paper cites
[24]):

* ``frequency`` — SumBasic-style scoring: sentences score by the mean
  document-frequency weight of their content words; after each pick the
  chosen words are down-weighted to reduce redundancy.
* ``lexrank`` — PageRank over the sentence cosine-similarity graph
  (via :mod:`networkx`), picking the highest-centrality sentences.

Snippet extraction depends only on the annotation text, so the type is
annotation- and data-invariant and benefits from summarize-once.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from typing import Any

from repro.model.annotation import Annotation
from repro.summaries.base import (
    InstanceProperties,
    SummaryInstance,
    SummaryObject,
    SummaryType,
    ZoomComponent,
)
from repro.text.sentences import split_sentences
from repro.text.similarity import cosine_similarity
from repro.text.tokenize import Tokenizer
from repro.text.vectorize import normalize, term_frequencies

TYPE_NAME = "Snippet"

#: Documents shorter than this many sentences are carried verbatim.
MIN_SENTENCES_TO_SUMMARIZE = 2


def frequency_snippet(
    text: str,
    max_sentences: int,
    tokenizer: Tokenizer,
) -> list[str]:
    """SumBasic-style extractive summary of ``text``.

    Returns up to ``max_sentences`` sentences in original document order.
    """
    sentences = split_sentences(text)
    if len(sentences) <= max(MIN_SENTENCES_TO_SUMMARIZE, max_sentences):
        return sentences[:max_sentences] if sentences else []
    token_lists = [tokenizer.tokens(sentence) for sentence in sentences]
    weights: dict[str, float] = {}
    total_tokens = sum(len(tokens) for tokens in token_lists) or 1
    for tokens in token_lists:
        for token in tokens:
            weights[token] = weights.get(token, 0.0) + 1.0 / total_tokens

    chosen: list[int] = []
    available = set(range(len(sentences)))
    while available and len(chosen) < max_sentences:
        best_index = max(
            sorted(available),
            key=lambda i: (
                sum(weights.get(t, 0.0) for t in token_lists[i])
                / max(1, len(token_lists[i]))
            ),
        )
        chosen.append(best_index)
        available.discard(best_index)
        # Down-weight the picked words so later picks add new content.
        for token in token_lists[best_index]:
            if token in weights:
                weights[token] *= weights[token]
    return [sentences[i] for i in sorted(chosen)]


def lexrank_snippet(
    text: str,
    max_sentences: int,
    tokenizer: Tokenizer,
    similarity_threshold: float = 0.1,
) -> list[str]:
    """LexRank extractive summary: PageRank on the sentence graph."""
    import networkx as nx

    sentences = split_sentences(text)
    if len(sentences) <= max(MIN_SENTENCES_TO_SUMMARIZE, max_sentences):
        return sentences[:max_sentences] if sentences else []
    vectors = [
        normalize(term_frequencies(tokenizer.tokens(sentence)))
        for sentence in sentences
    ]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(sentences)))
    for i in range(len(sentences)):
        for j in range(i + 1, len(sentences)):
            similarity = cosine_similarity(vectors[i], vectors[j])
            if similarity >= similarity_threshold:
                graph.add_edge(i, j, weight=similarity)
    scores = nx.pagerank(graph, weight="weight")
    ranked = sorted(range(len(sentences)), key=lambda i: (-scores.get(i, 0.0), i))
    chosen = sorted(ranked[:max_sentences])
    return [sentences[i] for i in chosen]


@dataclass(frozen=True, slots=True)
class SnippetEntry:
    """The snippet extracted from one document annotation."""

    annotation_id: int
    title: str
    sentences: tuple[str, ...]

    def preview(self) -> str:
        """Display string: the title, or the first extracted sentence."""
        if self.title:
            return self.title
        return self.sentences[0] if self.sentences else "(empty document)"


class SnippetSummary(SummaryObject):
    """Per-tuple snippet summary: one entry per document annotation."""

    type_name = TYPE_NAME

    def __init__(self, instance_name: str) -> None:
        super().__init__(instance_name)
        self.entries: list[SnippetEntry] = []

    # -- construction ------------------------------------------------

    def add_entry(self, entry: SnippetEntry) -> None:
        """Append ``entry`` unless its annotation is already summarized."""
        self._writable()
        if any(e.annotation_id == entry.annotation_id for e in self.entries):
            return
        self.entries.append(entry)

    # -- inspection ----------------------------------------------------

    def annotation_ids(self) -> frozenset[int]:
        return frozenset(entry.annotation_id for entry in self.entries)

    def previews(self) -> list[str]:
        """Display previews in entry order — the Figure 1 view."""
        return [entry.preview() for entry in self.entries]

    # -- query-time algebra -------------------------------------------

    def copy(self) -> "SnippetSummary":
        clone = SnippetSummary(self.instance_name)
        clone.entries = list(self.entries)  # entries are immutable
        return clone

    def remove_annotations(self, ids: Set[int]) -> None:
        self._writable()
        self.entries = [e for e in self.entries if e.annotation_id not in ids]

    def without(self, ids: Set[int]) -> "SnippetSummary":
        view = self.for_query()
        entries = [e for e in view.entries if e.annotation_id not in ids]
        return view if len(entries) == len(view.entries) else view._value(entries=entries)

    def merge(self, *others: SummaryObject) -> "SnippetSummary":
        entries = list(self.entries)  # entries are immutable
        seen = {entry.annotation_id for entry in entries}
        for other in others:
            if not isinstance(other, SnippetSummary):
                raise TypeError(f"cannot merge SnippetSummary with {type(other).__name__}")
            for entry in other.entries:
                if entry.annotation_id not in seen:
                    seen.add(entry.annotation_id)
                    entries.append(entry)
        return self._value(entries=entries)

    def for_query(self) -> "SnippetSummary":
        return self._shared_view()

    # -- zoom-in ---------------------------------------------------------

    def zoom_components(self) -> list[ZoomComponent]:
        return [
            ZoomComponent(
                index=position,
                label=entry.preview(),
                annotation_ids=(entry.annotation_id,),
                detail=" ".join(entry.sentences),
            )
            for position, entry in enumerate(self.entries, start=1)
        ]

    # -- bookkeeping -----------------------------------------------------

    def size_estimate(self) -> int:
        return 16 + sum(
            8 + len(entry.title) + sum(len(s) for s in entry.sentences)
            for entry in self.entries
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "instance": self.instance_name,
            "entries": [
                {
                    "annotation_id": entry.annotation_id,
                    "title": entry.title,
                    "sentences": list(entry.sentences),
                }
                for entry in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SnippetSummary":
        obj = cls(data["instance"])
        for entry in data.get("entries", []):
            obj.entries.append(
                SnippetEntry(
                    annotation_id=entry["annotation_id"],
                    title=entry.get("title", ""),
                    sentences=tuple(entry.get("sentences", ())),
                )
            )
        return obj

    def render(self) -> str:
        body = ", ".join(repr(preview) for preview in self.previews())
        return f"{self.instance_name} [{body}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SnippetSummary {len(self.entries)} entries>"


class SnippetInstance(SummaryInstance):
    """A configured snippet extractor."""

    type_name = TYPE_NAME

    #: Supported extraction methods.
    METHODS = ("frequency", "lexrank")

    def __init__(
        self,
        name: str,
        method: str = "frequency",
        max_sentences: int = 2,
        documents_only: bool = True,
        tokenizer: Tokenizer | None = None,
        properties: InstanceProperties | None = None,
    ) -> None:
        if method not in self.METHODS:
            raise ValueError(f"unknown snippet method {method!r}; expected one of {self.METHODS}")
        if max_sentences < 1:
            raise ValueError(f"max_sentences must be >= 1, got {max_sentences}")
        super().__init__(
            name,
            properties
            or InstanceProperties(annotation_invariant=True, data_invariant=True),
        )
        self.method = method
        self.max_sentences = max_sentences
        self.documents_only = documents_only
        self._tokenizer = tokenizer or Tokenizer()

    def new_object(self) -> SnippetSummary:
        return SnippetSummary(self.name)

    def analyze(self, annotation: Annotation) -> SnippetEntry | None:
        """Extract the snippet — the cacheable contribution.

        Returns None for annotations this instance does not summarize
        (plain comments when ``documents_only`` is set).
        """
        if self.documents_only and not annotation.is_document:
            return None
        if self.method == "lexrank":
            sentences = lexrank_snippet(
                annotation.text, self.max_sentences, self._tokenizer
            )
        else:
            sentences = frequency_snippet(
                annotation.text, self.max_sentences, self._tokenizer
            )
        return SnippetEntry(
            annotation_id=annotation.annotation_id,
            title=annotation.title,
            sentences=tuple(sentences),
        )

    def add_to(
        self,
        obj: SummaryObject,
        annotation: Annotation,
        contribution: SnippetEntry | None,
    ) -> None:
        if not isinstance(obj, SnippetSummary):
            raise TypeError(f"expected SnippetSummary, got {type(obj).__name__}")
        if contribution is not None:
            obj.add_entry(contribution)

    def config(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "max_sentences": self.max_sentences,
            "documents_only": self.documents_only,
            "annotation_invariant": self.properties.annotation_invariant,
            "data_invariant": self.properties.data_invariant,
        }


class SnippetType(SummaryType):
    """Level-1 registration of the Snippet technique family."""

    name = TYPE_NAME

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer

    def create_instance(
        self, instance_name: str, config: Mapping[str, Any]
    ) -> SnippetInstance:
        properties = InstanceProperties(
            annotation_invariant=config.get("annotation_invariant", True),
            data_invariant=config.get("data_invariant", True),
        )
        return SnippetInstance(
            instance_name,
            method=config.get("method", "frequency"),
            max_sentences=config.get("max_sentences", 2),
            documents_only=config.get("documents_only", True),
            tokenizer=self._tokenizer,
            properties=properties,
        )

    def object_from_json(self, data: Mapping[str, Any]) -> SnippetSummary:
        return SnippetSummary.from_json(data)
