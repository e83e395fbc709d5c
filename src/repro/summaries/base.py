"""Abstract contracts of the summarization hierarchy.

The engine integrates a summarization technique by implementing three
classes:

* :class:`SummaryType` (level 1) — the technique family; a factory for
  instances, registered once with the engine.
* :class:`SummaryInstance` (level 2) — a configured instantiation: the
  concrete algorithm, its parameters, labels, trained model, and the
  :class:`InstanceProperties` the maintenance layer uses for optimization.
* :class:`SummaryObject` (level 3) — the per-tuple output that travels
  through query plans.

The query engine only ever calls the *object*-level operations — ``merge``,
``remove_annotations``, ``zoom_components`` — which must work on the
object's own state without fetching raw annotations.  The maintenance layer
additionally calls the *instance*-level ``analyze``/``add_to`` pair when new
annotations arrive.
"""

from __future__ import annotations

import abc
import copy as _copylib
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.model.annotation import Annotation


_Key = TypeVar("_Key")


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


@dataclass(frozen=True, slots=True)
class InstanceProperties:
    """Optimization-relevant properties of a summary instance.

    ``annotation_invariant``
        True when summarizing a new annotation *a* over tuple *t* does not
        depend on *t*'s current annotations.  Classification and snippet
        extraction are annotation-invariant; clustering is not (the
        assignment depends on the clusters already formed on *t*).
    ``data_invariant``
        True when the summarization does not depend on *t*'s attribute
        values.

    When both are true the system summarizes an annotation **once**, even
    when it is attached to many tuples (the summarize-once optimization of
    §2.3), and reuses the cached result everywhere.
    """

    annotation_invariant: bool = True
    data_invariant: bool = True
    extra: Mapping[str, Any] = field(default_factory=dict)

    @property
    def summarize_once(self) -> bool:
        """Whether analyze results may be cached per annotation id."""
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

    Subclasses hold all state needed to merge with counterpart objects and
    to remove the effect of individual annotations by id.  They may carry
    additional *heavy* state used only at maintenance time (e.g. cluster
    centroids); :meth:`for_query` strips it before the object enters a
    query pipeline.
    """

    #: Summary type name this object belongs to; set by subclasses.
    type_name: str = ""

    #: Opt-in flag for copy-on-write sharing.  In exchange for it,
    #: :meth:`for_query` becomes an O(1) alias instead of a deep copy, so
    #: unfiltered scans stop copying every summary.  A type that sets it
    #: True takes on one rule: never mutate a container another alias may
    #: still see.  A mutator either calls :meth:`_ensure_owned` first
    #: (which unshares the whole payload), or rebinds only the containers
    #: it changes to new ones it built and leaves the others shared — the
    #: projection path does this, so ``remove_annotations`` costs what it
    #: drops, not the object's size.  A mutator of the second kind keeps
    #: ``_shared`` set while any untouched container is still shared; the
    #: next whole-object mutator's :meth:`_ensure_owned` then still
    #: unshares.  The built-in types all opt in; third-party types keep
    #: the safe deep-copy default.
    copy_on_write: bool = False

    def __init__(self, instance_name: str) -> None:
        self.instance_name = instance_name
        self._shared = False

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
        """Independent copy safe to mutate in a query pipeline."""

    @abc.abstractmethod
    def remove_annotations(self, ids: Set[int]) -> None:
        """Remove the effect of the given annotations, in place.

        Must be the exact inverse of having added them, up to internal
        bookkeeping the query layer cannot observe (e.g. stale centroids).
        Unknown ids are ignored.
        """

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

        No input's content may change.  An input's copy-on-write ownership
        flags may: a copy-on-write result may hold containers of a shared
        input uncopied, provided it flags itself shared so that neither side
        mutates them in place afterwards.  A type with nothing to gain
        copies ``self`` once and folds every other into the copy.
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

    # -- copy-on-write ---------------------------------------------------

    def share(self) -> "SummaryObject":
        """O(1) alias of this object sharing its payload copy-on-write.

        Both the alias and the original are flagged shared, and each side
        gives up ownership of every container in the payload, including
        ones it built since it was last shared.  From then on a mutation
        on either side rebinds what it changes (a projection replaces only
        the groups or sets it hits) or unshares the whole payload through
        :meth:`_ensure_owned`, so the other side observes a stable
        snapshot.  Only meaningful for :attr:`copy_on_write` types — their
        mutators carry the guard.
        """
        clone = _copylib.copy(self)
        clone._shared = True
        self._shared = True
        return clone

    def _ensure_owned(self) -> None:
        """Unshare the whole payload before an in-place mutation.

        A no-op when not shared.  A partial projection leaves the object
        flagged shared (its untouched containers are still seen by other
        aliases), so this call still copies them before a mutator such as
        ``fold_many`` writes into any container.
        """
        if self._shared:
            self._materialize()
            self._shared = False

    def _materialize(self) -> None:
        """Replace shared payload containers with owned copies.

        The default deep-copies every attribute except identity and the
        sharing flag; copy-on-write subclasses override it with cheaper
        container copies.
        """
        owned = _copylib.deepcopy(
            {
                name: value
                for name, value in self.__dict__.items()
                if name not in ("instance_name", "_shared")
            }
        )
        self.__dict__.update(owned)

    # -- bookkeeping -----------------------------------------------------

    def for_query(self) -> "SummaryObject":
        """Copy stripped of maintenance-only heavy state.

        Copy-on-write types hand out an O(1) shared alias (the scan hot
        path); others fall back to a plain copy.  Subclasses with heavy
        state override this to strip it.
        """
        if self.copy_on_write:
            return self.share()
        return self.copy()

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
      extracted snippet).  When :attr:`properties` allow, the engine caches
      contributions per annotation id.
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
        """Compute the reusable, annotation-only part of the summary."""

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
