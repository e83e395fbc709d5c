"""The Cluster summary type.

A cluster instance (``SimCluster`` in Figure 1) groups a tuple's annotations
by content similarity and reports one *representative* per group, so a
tuple with hundreds of near-duplicate observations renders as a handful of
exemplars.

Algorithm (after the stream text clustering the paper cites [23]): each
incoming annotation is embedded as a normalized term vector and assigned to
the existing group whose centroid is most similar, provided the cosine
similarity reaches the instance's ``threshold``; otherwise it seeds a new
group.  Clustering is therefore **not** annotation-invariant — assignment
depends on the groups already formed on the tuple — so only the vector
computation (``analyze``) is shared across the tuples an annotation
covers; the assignment runs per tuple.

Each group's state is split in two:

* **light state** — member ids, a best-first representative *ranking*, and
  short text previews for the top-ranked members.  This is all a query
  pipeline needs: projection drops ids and re-elects the representative
  from the ranking (Figure 2's A5-replaces-A2 step), and the join merge
  combines overlapping groups, all without the raw text.
* **heavy state** — per-member vectors and the centroid sum, used only by
  incremental maintenance.  :meth:`ClusterSummary.for_query` strips it
  before the object enters a pipeline.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence, Set
from typing import Any

from repro.errors import MaintenanceError
from repro.model.annotation import Annotation
from repro.summaries.base import (
    InstanceProperties,
    SummaryInstance,
    SummaryObject,
    SummaryType,
    ZoomComponent,
)
from repro.text.similarity import cosine_similarity, magnitude
from repro.text.tokenize import Tokenizer
from repro.text.vectorize import SparseVector, normalize, term_frequencies

TYPE_NAME = "Cluster"

#: How many words of an annotation are kept as its preview.
DEFAULT_PREVIEW_WORDS = 10
#: How many top-ranked previews survive into query pipelines.
DEFAULT_PREVIEW_LIMIT = 3


def make_preview(text: str, max_words: int = DEFAULT_PREVIEW_WORDS) -> str:
    """Short display preview: the first ``max_words`` words of ``text``."""
    words = text.split()
    if len(words) <= max_words:
        return " ".join(words)
    return " ".join(words[:max_words]) + " ..."


class ClusterGroup:
    """One group of similar annotations within a cluster summary."""

    def __init__(
        self,
        member_ids: Set[int] | None = None,
        ranking: Sequence[int] = (),
        previews: Mapping[int, str] | None = None,
        vectors: Mapping[int, SparseVector] | None = None,
    ) -> None:
        self.member_ids: set[int] = set(member_ids or ())
        self.ranking: list[int] = list(ranking)
        self.previews: dict[int, str] = dict(previews or {})
        # Heavy, maintenance-only state; None once stripped for querying.
        self.vectors: dict[int, SparseVector] | None = (
            dict(vectors) if vectors is not None else None
        )

    @property
    def size(self) -> int:
        """The groupSize field of the paper's cluster objects."""
        return len(self.member_ids)

    @property
    def representative(self) -> int | None:
        """Best-ranked surviving member, the group's exemplar."""
        for annotation_id in self.ranking:
            if annotation_id in self.member_ids:
                return annotation_id
        # Every ranked candidate was projected out; fall back to the
        # smallest surviving id so the group still has a representative.
        return min(self.member_ids) if self.member_ids else None

    def representative_preview(self) -> str | None:
        """Preview text of the representative, if still carried."""
        representative = self.representative
        if representative is None:
            return None
        return self.previews.get(representative)

    def centroid(self) -> SparseVector:
        """Mean vector of the group's members (heavy state required)."""
        if self.vectors is None:
            raise MaintenanceError(
                "cluster group has no vectors; centroid is maintenance-only state"
            )
        total: dict[str, float] = {}
        for vector in self.vectors.values():
            for token, weight in vector.items():
                total[token] = total.get(token, 0.0) + weight
        count = max(1, len(self.vectors))
        return {token: weight / count for token, weight in total.items()}

    def rerank(self, centroid: SparseVector | None = None) -> None:
        """Recompute the representative ranking from the heavy state.

        Members are ordered by similarity to the group centroid, best
        first, with annotation id as a deterministic tie-break.  A caller
        that already holds the current centroid (equal to
        :meth:`centroid`, key order included) may pass it in.
        """
        vectors = self.vectors
        if vectors is None:
            raise MaintenanceError("cannot rerank a cluster group without vectors")
        if centroid is None:
            centroid = self.centroid()
        norm = magnitude(centroid)
        self.ranking = sorted(
            self.member_ids,
            key=lambda annotation_id: (
                -cosine_similarity(
                    vectors.get(annotation_id, {}), centroid, right_norm=norm
                ),
                annotation_id,
            ),
        )

    def copy(self) -> "ClusterGroup":
        return ClusterGroup(
            member_ids=self.member_ids,
            ranking=self.ranking,
            previews=self.previews,
            vectors=self.vectors,
        )

    def stripped(self, limit: int) -> "ClusterGroup":
        """Light copy: no vectors, the top ``limit`` ranks and their previews."""
        ranking = self.ranking[:limit]
        return ClusterGroup(
            member_ids=self.member_ids,
            ranking=ranking,
            previews={i: self.previews[i] for i in ranking if i in self.previews},
        )

    def drop_members(self, ids: Set[int]) -> None:
        """Remove members by id in place, keeping ranking order for survivors."""
        gone = self.member_ids & ids
        self.member_ids -= gone
        self.ranking = [i for i in self.ranking if i not in gone]
        for annotation_id in gone:
            self.previews.pop(annotation_id, None)
            if self.vectors is not None:
                self.vectors.pop(annotation_id, None)

    def without(self, ids: Set[int]) -> "ClusterGroup":
        """New group of the members outside ``ids``; ``self`` is untouched.

        The survivor containers are built directly rather than through
        ``__init__``, which would copy each of them once more.
        """
        group = ClusterGroup.__new__(ClusterGroup)
        group.member_ids = self.member_ids - ids
        group.ranking = [i for i in self.ranking if i not in ids]
        group.previews = {
            i: preview for i, preview in self.previews.items() if i not in ids
        }
        group.vectors = (
            None
            if self.vectors is None
            else {i: vector for i, vector in self.vectors.items() if i not in ids}
        )
        return group


class ClusterSummary(SummaryObject):
    """Per-tuple cluster summary: an ordered list of groups."""

    type_name = TYPE_NAME

    def __init__(
        self,
        instance_name: str,
        preview_limit: int = DEFAULT_PREVIEW_LIMIT,
    ) -> None:
        super().__init__(instance_name)
        self.groups: list[ClusterGroup] = []
        self.preview_limit = preview_limit

    # -- inspection ----------------------------------------------------

    def annotation_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        for group in self.groups:
            ids |= group.member_ids
        return frozenset(ids)

    def group_sizes(self) -> list[int]:
        """Sizes of the groups in display order."""
        return [group.size for group in self.groups]

    def representatives(self) -> list[int]:
        """Representative annotation id of each non-empty group."""
        return [
            representative
            for group in self.groups
            if (representative := group.representative) is not None
        ]

    # -- batch maintenance -----------------------------------------------

    def fold_many(
        self,
        instance: SummaryInstance,
        items: Sequence[tuple[Annotation, Any]],
    ) -> int:
        """Batch fold that compares each annotation with candidate groups only.

        The sequential path (:meth:`ClusterInstance.add_to`) rebuilds every
        group centroid for every incoming annotation and re-ranks the
        receiving group after each insert.  Here each group keeps a
        batch-local token -> weight running sum, a token -> group-index
        map names the groups that share a token with an annotation, and a
        group's centroid and its norm are derived at most once per
        membership change.  Each touched group is re-ranked once, at the
        end of the batch, against its final centroid.

        The folded state is bit-identical to folding one at a time:

        * a running sum adds each token's weights in member insertion
          order starting from 0.0, which is the float (and the key order)
          that :meth:`ClusterGroup.centroid` builds;
        * a group that shares no token with the annotation scores exactly
          0.0, which never beats ``best_similarity`` under the strict ``>``
          from 0.0, so skipping it changes nothing; candidates are visited
          in ascending index, which keeps the lowest-index tie-break;
        * the norms handed to :func:`cosine_similarity` are the
          :func:`magnitude` floats it would compute itself;
        * the sequential path's *last* rerank of a group already sees that
          group's final batch membership.

        ``instance`` must be the owning :class:`ClusterInstance` (the
        threshold and preview width live there).
        """
        self._writable()
        threshold: float = instance.threshold  # type: ignore[attr-defined]
        preview_words: int = instance.preview_words  # type: ignore[attr-defined]
        seen = set(self.annotation_ids())
        fresh: list[tuple[Annotation, SparseVector]] = []
        for annotation, vector in items:
            if annotation.annotation_id in seen:
                continue  # idempotent replay, and in-batch duplicates
            seen.add(annotation.annotation_id)
            fresh.append((annotation, vector))
        if not fresh:
            return 0
        groups = self.groups
        sums: list[dict[str, float]] = []
        holders: dict[str, list[int]] = {}  # token -> indexes of groups holding it
        for index, group in enumerate(groups):
            if group.vectors is None:
                raise MaintenanceError(
                    "cannot add annotations to a query-stripped cluster summary"
                )
            total: dict[str, float] = {}
            for member_vector in group.vectors.values():
                _accumulate(total, member_vector, holders, index)
            sums.append(total)
        centroids: dict[int, tuple[SparseVector, float]] = {}

        def centroid_of(index: int) -> tuple[SparseVector, float]:
            cached = centroids.get(index)
            if cached is None:
                count = max(1, len(groups[index].vectors or ()))
                centroid = {token: weight / count for token, weight in sums[index].items()}
                cached = centroids[index] = (centroid, magnitude(centroid))
            return cached

        touched: set[int] = set()
        for annotation, vector in fresh:
            best_index: int | None = None
            best_similarity = 0.0
            candidates = {index for token in vector for index in holders.get(token, ())}
            if candidates:
                norm = magnitude(vector)
                for index in sorted(candidates):
                    centroid, centroid_norm = centroid_of(index)
                    similarity = cosine_similarity(
                        vector, centroid, left_norm=norm, right_norm=centroid_norm
                    )
                    if similarity > best_similarity:
                        best_similarity = similarity
                        best_index = index
            annotation_id = annotation.annotation_id
            preview = make_preview(annotation.text, preview_words)
            if best_index is not None and best_similarity >= threshold:
                group = groups[best_index]
                group.member_ids.add(annotation_id)
                group.previews[annotation_id] = preview
                assert group.vectors is not None
                group.vectors[annotation_id] = vector
                _accumulate(sums[best_index], vector, holders, best_index)
                centroids.pop(best_index, None)  # membership changed
                touched.add(best_index)
            else:
                total = {}
                _accumulate(total, vector, holders, len(groups))
                sums.append(total)
                groups.append(
                    ClusterGroup(
                        member_ids={annotation_id},
                        ranking=[annotation_id],
                        previews={annotation_id: preview},
                        vectors={annotation_id: vector},
                    )
                )
        for index in sorted(touched):
            groups[index].rerank(centroid_of(index)[0])
        return len(fresh)

    # -- query-time algebra -------------------------------------------

    def copy(self) -> "ClusterSummary":
        clone = ClusterSummary(self.instance_name, self.preview_limit)
        clone.groups = [group.copy() for group in self.groups]
        return clone

    def remove_annotations(self, ids: Set[int]) -> None:
        """Drop ``ids`` in place; emptied groups drop out, the rest keep order."""
        self._writable()
        for group in self.groups:
            if not group.member_ids.isdisjoint(ids):
                group.drop_members(ids)
        self.groups = [group for group in self.groups if group.member_ids]

    def without(self, ids: Set[int]) -> "ClusterSummary":
        """Projection that rebuilds only the groups ``ids`` hit.

        Every other group is shared with ``self``; emptied groups drop
        out, the order of the others is kept, and when no group is hit
        the result is ``self``.
        """
        if not self._frozen:
            return super().without(ids)  # type: ignore[return-value]
        groups: list[ClusterGroup] = []
        hit = False
        for group in self.groups:
            if group.member_ids.isdisjoint(ids):
                groups.append(group)
                continue
            hit = True
            group = group.without(ids)
            if group.member_ids:
                groups.append(group)
        return self._value(groups=groups) if hit else self

    def _detach_view(self) -> None:
        pass  # the stripped view owns its groups

    def rerank_groups(self) -> None:
        """Re-elect every group's representatives from the heavy state.

        Maintenance-only (groups without vectors are left as they are).
        """
        self._writable()
        for group in self.groups:
            if group.vectors is not None:
                group.rerank()

    def merge(self, *others: SummaryObject) -> "ClusterSummary":
        """Dedup-aware merge, Figure 2 semantics, in one pass over all inputs.

        Groups that share a member (the same annotation attached to two
        merged tuples) are transitively combined; disjoint groups propagate
        unchanged.  The result equals the left fold
        ``self.merge(a).merge(b)...``.

        The pass visits every input's groups in order and keeps an
        annotation id -> slot map.  A group that touches no slot takes a
        new one.  A group that touches slots is combined into the lowest of
        them, and every other touched slot is then combined into it in
        slot order and emptied.  Those are the combinations, in the same
        order, that a pairwise fold makes when it combines each group
        into the first overlapping one and re-coalesces, so group order,
        rankings, previews and reranks equal the fold's, while the cost
        follows the sizes of the groups rather than their number squared.

        A value's group reaches the result uncopied; a slot's group is
        copied once, the first time another group combines into it.  A
        maintenance object's groups are copied when they take a slot.
        """
        inputs = [self]
        for other in others:
            if not isinstance(other, ClusterSummary):
                raise TypeError(
                    f"cannot merge ClusterSummary with {type(other).__name__}"
                )
            inputs.append(other)
        slots: list[ClusterGroup | None] = []
        slot_of: dict[int, int] = {}
        placed = slot_of.keys()
        built: set[int] = set()  # slots holding a group this merge built
        for source in inputs:
            is_value = source._frozen
            for group in source.groups:
                if placed.isdisjoint(group.member_ids):
                    slot = len(slots)
                    if not is_value:
                        group = group.copy()
                        built.add(slot)
                    slot_of.update(dict.fromkeys(group.member_ids, slot))
                    slots.append(group)
                    continue
                touched = sorted({slot_of[i] for i in group.member_ids if i in slot_of})
                slot = touched[0]
                target = slots[slot]
                assert target is not None
                if slot not in built:
                    target = slots[slot] = target.copy()
                    built.add(slot)
                _combine_into(target, group)
                slot_of.update(dict.fromkeys(group.member_ids, slot))
                for other_slot in touched[1:]:
                    absorbed = slots[other_slot]
                    assert absorbed is not None
                    _combine_into(target, absorbed)
                    slot_of.update(dict.fromkeys(absorbed.member_ids, slot))
                    slots[other_slot] = None
        return self._value(
            preview_limit=max(source.preview_limit for source in inputs),
            groups=[group for group in slots if group is not None],
        )

    # -- zoom-in ---------------------------------------------------------

    def zoom_components(self) -> list[ZoomComponent]:
        components: list[ZoomComponent] = []
        for position, group in enumerate(self.groups, start=1):
            preview = group.representative_preview()
            label = preview if preview else f"group of {group.size}"
            components.append(
                ZoomComponent(
                    index=position,
                    label=label,
                    annotation_ids=tuple(sorted(group.member_ids)),
                    detail=f"size={group.size}",
                )
            )
        return components

    # -- bookkeeping -----------------------------------------------------

    def for_query(self) -> "ClusterSummary":
        """Light value: no vectors, ranking/previews cut to the top ranks.

        Keeping only ``preview_limit`` representative candidates bounds the
        per-group payload; if a projection later drops all of them, the
        group falls back to its smallest surviving member id (without a
        preview), which zoom-in can still expand.

        The value is built once, owning its containers, and cached until
        the next mutation drops it.
        """
        view = self._query_view
        if view is None:
            limit = self.preview_limit
            view = self._query_view = self._value(
                groups=[group.stripped(limit) for group in self.groups]
            )
        return view  # type: ignore[return-value]

    def size_estimate(self) -> int:
        total = 16
        for group in self.groups:
            total += 8 * len(group.member_ids) + 8 * len(group.ranking)
            total += sum(len(preview) for preview in group.previews.values())
            if group.vectors is not None:
                total += sum(
                    8 + sum(len(token) + 8 for token in vector)
                    for vector in group.vectors.values()
                )
        return total

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "instance": self.instance_name,
            "preview_limit": self.preview_limit,
            "groups": [
                {
                    "members": sorted(group.member_ids),
                    "ranking": list(group.ranking),
                    "previews": {str(k): v for k, v in group.previews.items()},
                    "vectors": (
                        {str(k): v for k, v in group.vectors.items()}
                        if group.vectors is not None
                        else None
                    ),
                }
                for group in self.groups
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ClusterSummary":
        obj = cls(
            data["instance"],
            preview_limit=data.get("preview_limit", DEFAULT_PREVIEW_LIMIT),
        )
        for entry in data.get("groups", []):
            vectors = entry.get("vectors")
            obj.groups.append(
                ClusterGroup(
                    member_ids=set(entry["members"]),
                    ranking=entry.get("ranking", []),
                    previews={int(k): v for k, v in entry.get("previews", {}).items()},
                    vectors=(
                        {int(k): dict(v) for k, v in vectors.items()}
                        if vectors is not None
                        else None
                    ),
                )
            )
        return obj

    def render(self) -> str:
        parts = []
        for group in self.groups:
            preview = group.representative_preview() or "(zoom in for details)"
            parts.append(f"[{group.size}] {preview!r}")
        return f"{self.instance_name} {{{'; '.join(parts)}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClusterSummary {len(self.groups)} groups>"


def _accumulate(
    total: dict[str, float],
    vector: SparseVector,
    holders: dict[str, list[int]],
    index: int,
) -> None:
    """Add ``vector`` into group ``index``'s running sum ``total``.

    Each token's sum grows as ``ClusterGroup.centroid``'s loop grows it,
    and a token new to the group registers the group in ``holders``.
    """
    for token, weight in vector.items():
        previous = total.get(token)
        if previous is None:
            holders.setdefault(token, []).append(index)
            previous = 0.0
        total[token] = previous + weight


def _combine_into(target: ClusterGroup, source: ClusterGroup) -> None:
    """Fold ``source`` into ``target`` (union members, merge rankings)."""
    target.member_ids |= source.member_ids
    seen = set(target.ranking)
    target.ranking.extend(i for i in source.ranking if i not in seen)
    for annotation_id, preview in source.previews.items():
        target.previews.setdefault(annotation_id, preview)
    if target.vectors is not None and source.vectors is not None:
        for annotation_id, vector in source.vectors.items():
            target.vectors.setdefault(annotation_id, vector)
        target.rerank()
    else:
        target.vectors = None


class ClusterInstance(SummaryInstance):
    """A configured clustering instance: threshold + vector space."""

    type_name = TYPE_NAME

    def __init__(
        self,
        name: str,
        threshold: float = 0.4,
        preview_words: int = DEFAULT_PREVIEW_WORDS,
        preview_limit: int = DEFAULT_PREVIEW_LIMIT,
        tokenizer: Tokenizer | None = None,
        properties: InstanceProperties | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        super().__init__(
            name,
            properties
            or InstanceProperties(annotation_invariant=False, data_invariant=True),
        )
        self.threshold = threshold
        self.preview_words = preview_words
        self.preview_limit = preview_limit
        self._tokenizer = tokenizer or Tokenizer()

    def new_object(self) -> ClusterSummary:
        return ClusterSummary(self.name, preview_limit=self.preview_limit)

    def analyze(self, annotation: Annotation) -> SparseVector:
        """Unit term-frequency vector — the reusable contribution."""
        return normalize(term_frequencies(self._tokenizer.tokens(annotation.text)))

    def add_to(
        self,
        obj: SummaryObject,
        annotation: Annotation,
        contribution: SparseVector,
    ) -> None:
        """Assign ``annotation`` to the nearest group or seed a new one."""
        if not isinstance(obj, ClusterSummary):
            raise TypeError(f"expected ClusterSummary, got {type(obj).__name__}")
        obj._writable()
        annotation_id = annotation.annotation_id
        if annotation_id in obj.annotation_ids():
            return  # idempotent replay
        best_group: ClusterGroup | None = None
        best_similarity = 0.0
        for group in obj.groups:
            if group.vectors is None:
                raise MaintenanceError(
                    "cannot add annotations to a query-stripped cluster summary"
                )
            similarity = cosine_similarity(contribution, group.centroid())
            if similarity > best_similarity:
                best_similarity = similarity
                best_group = group
        preview = make_preview(annotation.text, self.preview_words)
        if best_group is not None and best_similarity >= self.threshold:
            best_group.member_ids.add(annotation_id)
            best_group.previews[annotation_id] = preview
            assert best_group.vectors is not None
            best_group.vectors[annotation_id] = contribution
            best_group.rerank()
        else:
            obj.groups.append(
                ClusterGroup(
                    member_ids={annotation_id},
                    ranking=[annotation_id],
                    previews={annotation_id: preview},
                    vectors={annotation_id: contribution},
                )
            )

    def config(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "preview_words": self.preview_words,
            "preview_limit": self.preview_limit,
            "annotation_invariant": self.properties.annotation_invariant,
            "data_invariant": self.properties.data_invariant,
        }


class ClusterType(SummaryType):
    """Level-1 registration of the Cluster technique family."""

    name = TYPE_NAME

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer

    def create_instance(
        self, instance_name: str, config: Mapping[str, Any]
    ) -> ClusterInstance:
        properties = InstanceProperties(
            annotation_invariant=config.get("annotation_invariant", False),
            data_invariant=config.get("data_invariant", True),
        )
        return ClusterInstance(
            instance_name,
            threshold=config.get("threshold", 0.4),
            preview_words=config.get("preview_words", DEFAULT_PREVIEW_WORDS),
            preview_limit=config.get("preview_limit", DEFAULT_PREVIEW_LIMIT),
            tokenizer=self._tokenizer,
            properties=properties,
        )

    def object_from_json(self, data: Mapping[str, Any]) -> ClusterSummary:
        return ClusterSummary.from_json(data)
