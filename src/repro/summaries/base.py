"""Abstract contracts of the summarization hierarchy.

The engine integrates a summarization technique by implementing three
classes:

* :class:`SummaryType` (level 1) — the technique family; a factory for
  instances, registered once with the engine.
* :class:`SummaryInstance` (level 2) — a configured instantiation: the
  concrete algorithm, its parameters, labels, trained model, and its
  :class:`InstanceProperties` — declared, persisted and displayed
  metadata that nothing on the write or read path reads.
* :class:`SummaryObject` (level 3) — the per-tuple output that travels
  through query plans.

The query engine only ever calls the *object*-level operations —
``for_query``, ``without``, ``merge``, ``zoom_components`` — which must
work on the object's own state without fetching raw annotations, and
never change an object (see :class:`SummaryObject`).  The maintenance layer
additionally calls the *instance*-level ``analyze``/``add_to`` pair when new
annotations arrive.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.errors import MaintenanceError
from repro.model.annotation import Annotation


_Key = TypeVar("_Key")
_Self = TypeVar("_Self", bound="SummaryObject")


def sets_without(
    sets: dict[_Key, set[int]], ids: Set[int], keep_empty: bool
) -> dict[_Key, set[int]] | None:
    """``sets`` with ``ids`` removed, rebuilding only the sets they hit.

    Returns None when no set is hit.  Otherwise returns a new mapping, in
    the same key order, that shares every untouched set with ``sets`` and
    holds a new set for each hit one; emptied sets drop out unless
    ``keep_empty``.  The projection of the set-valued summary types.
    """
    hit = [key for key, members in sets.items() if not members.isdisjoint(ids)]
    if not hit:
        return None
    result = dict(sets)
    for key in hit:
        survivors = result[key] - ids
        if survivors or keep_empty:
            result[key] = survivors
        else:
            del result[key]
    return result


def sets_union(maps: Iterable[Mapping[_Key, set[int]]]) -> dict[_Key, set[int]]:
    """Key-wise union of set mappings, keys in first-appearance order.

    A set no other mapping adds to is shared with its mapping; a key that
    several mappings fill gets one new set, built when the second one
    joins.  The merge of the set-valued summary types, over values.
    """
    result: dict[_Key, set[int]] = {}
    built: set[_Key] = set()
    for sets in maps:
        for key, members in sets.items():
            current = result.get(key)
            if current is None:
                result[key] = members
            elif key in built:
                current |= members
            elif members:
                result[key] = current | members
                built.add(key)
    return result


@dataclass(frozen=True, slots=True)
class InstanceProperties:
    """Declared properties of a summary instance (metadata only).

    ``annotation_invariant``
        True when summarizing a new annotation *a* over tuple *t* does not
        depend on *t*'s current annotations.  Classification and snippet
        extraction are annotation-invariant; clustering is not (the
        assignment depends on the clusters already formed on *t*).
    ``data_invariant``
        True when the summarization does not depend on *t*'s attribute
        values.

    The properties are declared, persisted and displayed metadata
    (§2.3); maintenance does not read them.  Every instance's
    :meth:`SummaryInstance.analyze` depends on the annotation alone, so
    the write path analyzes an annotation once per instance per batch,
    however many tuples it is attached to, and ``add_to`` does the
    tuple-dependent part.
    """

    annotation_invariant: bool = True
    data_invariant: bool = True
    extra: Mapping[str, Any] = field(default_factory=dict)

    @property
    def summarize_once(self) -> bool:
        """Whether the paper's summarize-once condition holds (both flags)."""
        return self.annotation_invariant and self.data_invariant


@dataclass(frozen=True, slots=True)
class ZoomComponent:
    """One zoom-addressable component of a summary object.

    The ZOOMIN command addresses components by 1-based ``index`` within the
    object ("On NaiveBayesClass Index 1" selects the first class label).
    ``annotation_ids`` are the raw annotations the component expands into.
    """

    index: int
    label: str
    annotation_ids: tuple[int, ...]
    detail: str = ""

    @property
    def count(self) -> int:
        """Number of raw annotations behind this component."""
        return len(self.annotation_ids)


class SummaryObject(abc.ABC):
    """Per-tuple summary state (level 3 of the hierarchy).

    An object plays one of two roles.  A *maintenance object* is the
    stored state the maintenance layer folds annotations into and removes
    deleted ones from, in place.  A *value* is what a query pipeline
    holds: :meth:`for_query`, :meth:`without` and :meth:`merge` return
    values, and nothing ever changes one — the query-time algebra is the
    pure functions of Figure 2.  A value may therefore share any
    container with other values, and the built-in types' mutators raise
    on one.

    Subclasses hold all state needed to merge with counterpart objects and
    to remove the effect of individual annotations by id.  They may carry
    additional *heavy* state used only at maintenance time (e.g. cluster
    centroids); :meth:`for_query` strips it before the object enters a
    query pipeline.
    """

    #: Summary type name this object belongs to; set by subclasses.
    type_name: str = ""

    def __init__(self, instance_name: str) -> None:
        self.instance_name = instance_name
        # True on a value; the built-in mutators raise on one.
        self._frozen = False
        # The cached for_query() value of a maintenance object.
        self._query_view: SummaryObject | None = None

    # -- identity -----------------------------------------------------

    @abc.abstractmethod
    def annotation_ids(self) -> frozenset[int]:
        """Ids of all annotations whose effect this object contains."""

    def is_empty(self) -> bool:
        """True when no annotation contributes to this object."""
        return not self.annotation_ids()

    # -- query-time algebra -------------------------------------------

    @abc.abstractmethod
    def copy(self) -> "SummaryObject":
        """Independent mutable copy, sharing no container with ``self``."""

    @abc.abstractmethod
    def remove_annotations(self, ids: Set[int]) -> None:
        """Remove the effect of the given annotations, in place.

        The maintenance-side mutator (the delete path); queries project
        with :meth:`without`.  Must be the exact inverse of having added
        the annotations, up to internal bookkeeping the query layer cannot
        observe (e.g. stale centroids).  Unknown ids are ignored.
        """

    def without(self, ids: Set[int]) -> "SummaryObject":
        """Projection: a value without the effect of ``ids``.

        ``self`` is not changed.  On a value the built-in types return
        ``self`` when no annotation is hit, and otherwise a new value that
        shares every group or set ``ids`` do not hit and builds only the
        hit ones, so a projection costs what it drops.  The base copies,
        then removes in place.
        """
        projected = self.copy()
        projected.remove_annotations(ids)
        projected._frozen = True
        return projected

    @abc.abstractmethod
    def merge(self, *others: "SummaryObject") -> "SummaryObject":
        """Return the dedup-aware union of ``self`` and every one of ``others``.

        Annotations present in several inputs (the same annotation attached
        to two joined tuples, or to two members of one group) must be
        counted once — Figure 2's merge step.  The result must equal the
        left fold ``self.merge(a).merge(b)...``; the engine calls it once
        per instance per output row with every counterpart at once, so an
        implementation can merge in one pass instead of copying an
        accumulator per input.

        The result is a new value and no input changes.  The built-in
        types copy only what they combine: a group or set of a value that
        nothing combines with reaches the result uncopied.  A type with
        nothing to gain copies ``self`` once and folds every other into
        the copy.
        """

    # -- batch maintenance -----------------------------------------------

    def fold_many(
        self,
        instance: "SummaryInstance",
        items: Sequence[tuple[Annotation, Any]],
    ) -> int:
        """Fold a batch of analyzed annotations into this object.

        ``items`` are ``(annotation, contribution)`` pairs in arrival
        order; annotations whose effect is already present are skipped,
        matching the maintenance layer's idempotent-replay rule.  Returns
        how many annotations were actually folded.

        The default loops the instance's single-annotation ``add_to``, so
        every summary type works with the bulk ingestion pipeline out of
        the box; types with per-fold overhead worth amortizing (classifier
        membership scans, cluster centroid recomputation and reranking)
        override it with a vectorized implementation that must produce
        state identical to the sequential fold.
        """
        folded = 0
        for annotation, contribution in items:
            if annotation.annotation_id in self.annotation_ids():
                continue
            instance.add_to(self, annotation, contribution)
            folded += 1
        return folded

    # -- zoom-in ---------------------------------------------------------

    @abc.abstractmethod
    def zoom_components(self) -> list[ZoomComponent]:
        """Enumerate zoom-addressable components, 1-indexed, in order."""

    # -- values ----------------------------------------------------------

    def for_query(self) -> "SummaryObject":
        """The object as a value, stripped of maintenance-only heavy state.

        The base returns a copy, so extension types work unchanged; the
        built-in types build one value and cache it (:meth:`_writable`).
        """
        return self.copy()

    def _value(self: _Self, **payload: Any) -> _Self:
        """A value sharing every attribute of ``self`` but ``payload``."""
        value = object.__new__(type(self))
        value.__dict__.update(self.__dict__, _frozen=True, _query_view=None, **payload)
        return value

    def _shared_view(self: _Self) -> _Self:
        """:meth:`for_query` of a type whose view is the whole object.

        A cached value sharing every container; such a type projects and
        merges maintenance objects through it too.
        """
        if self._frozen:
            return self
        if self._query_view is None:
            self._query_view = self._value()
        return self._query_view  # type: ignore[return-value]

    def _writable(self) -> None:
        """The guard each built-in mutator runs before it changes state.

        Raises on a value.  On a maintenance object it drops the cached
        :meth:`for_query` value, first detaching it (:meth:`_detach_view`)
        so that the mutation cannot reach a container the value holds.
        """
        if self._frozen:
            raise MaintenanceError(
                f"{type(self).__name__} {self.instance_name!r} is a query-time "
                "value and never changes; project it with without(), combine "
                "it with merge(), or mutate a copy()"
            )
        if self._query_view is not None:
            self._detach_view()
            self._query_view = None

    def _detach_view(self) -> None:
        """Stop sharing containers with the cached :meth:`for_query` value.

        Takes the containers of a :meth:`copy`; a type whose view owns its
        containers overrides this with a no-op.
        """
        self.__dict__.update(self.copy().__dict__)

    # -- bookkeeping -----------------------------------------------------

    @abc.abstractmethod
    def size_estimate(self) -> int:
        """Approximate serialized size in bytes (for storage benchmarks)."""

    @abc.abstractmethod
    def to_json(self) -> dict[str, Any]:
        """JSON-serializable representation (inverse of ``from_json``)."""

    @classmethod
    @abc.abstractmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SummaryObject":
        """Rebuild an object serialized by :meth:`to_json`."""

    @abc.abstractmethod
    def render(self) -> str:
        """One-line human-readable rendering for the Gate front-end."""


class SummaryInstance(abc.ABC):
    """A configured summarization instance (level 2 of the hierarchy).

    Instances are created by their :class:`SummaryType`, persisted in the
    summary catalog, and linked to user relations.  The maintenance layer
    drives them through :meth:`analyze` / :meth:`add_to`:

    * ``analyze`` computes the annotation-dependent part of the
      summarization (a *contribution*: predicted label, term vector,
      extracted snippet).  A contribution lives for one batch: the write
      path analyzes each annotation once per instance per batch, whatever
      :attr:`properties` declare.
    * ``add_to`` folds a contribution into a tuple's summary object.
    """

    def __init__(self, name: str, properties: InstanceProperties) -> None:
        self.name = name
        self.properties = properties

    #: Summary type name; set by subclasses.
    type_name: str = ""

    @abc.abstractmethod
    def new_object(self) -> SummaryObject:
        """Create an empty summary object for one tuple."""

    @abc.abstractmethod
    def analyze(self, annotation: Annotation) -> Any:
        """Compute the reusable, annotation-only part of the summary.

        Must depend on ``annotation`` alone: maintenance analyzes it once
        per batch and folds the result into every tuple it covers.
        """

    @abc.abstractmethod
    def add_to(
        self,
        obj: SummaryObject,
        annotation: Annotation,
        contribution: Any,
    ) -> None:
        """Fold ``annotation`` (analyzed as ``contribution``) into ``obj``."""

    @abc.abstractmethod
    def config(self) -> dict[str, Any]:
        """Persistable configuration (inverse of the type's creation)."""

    def describe(self) -> str:
        """Human-readable one-line description for catalog listings."""
        flags = []
        if self.properties.annotation_invariant:
            flags.append("AnnotationInvariant")
        if self.properties.data_invariant:
            flags.append("DataInvariant")
        detail = ", ".join(flags) if flags else "no invariants"
        return f"{self.name} ({self.type_name}; {detail})"


class SummaryType(abc.ABC):
    """A summarization technique family (level 1 of the hierarchy)."""

    #: Unique type name used in catalogs and ZOOMIN commands.
    name: str = ""

    @abc.abstractmethod
    def create_instance(
        self, instance_name: str, config: Mapping[str, Any]
    ) -> SummaryInstance:
        """Build an instance from a persistable configuration mapping."""

    @abc.abstractmethod
    def object_from_json(self, data: Mapping[str, Any]) -> SummaryObject:
        """Deserialize a summary object of this type."""
