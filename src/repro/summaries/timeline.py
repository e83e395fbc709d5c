"""The Timeline summary type — annotation activity over time.

An extension type beyond the paper's built-in three: buckets each tuple's
annotations by creation time and reports the activity histogram.  In
curation workflows this answers "when was this record last discussed, and
how hard?" without reading a single annotation; zoom-in expands a bucket
into the annotations created in that window.

Bucketing uses only the annotation's own timestamp, so the type is
annotation- and data-invariant (summarize-once applies).
"""

from __future__ import annotations

import datetime
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

TYPE_NAME = "Timeline"

#: Default bucket width: one week.
DEFAULT_BUCKET_SECONDS = 7 * 24 * 3600


def bucket_label(bucket: int, bucket_seconds: int) -> str:
    """Human-readable UTC label for a bucket's start instant."""
    start = datetime.datetime.fromtimestamp(
        bucket * bucket_seconds, tz=datetime.timezone.utc
    )
    if bucket_seconds >= 24 * 3600:
        return start.strftime("%Y-%m-%d")
    return start.strftime("%Y-%m-%d %H:%M")


class TimelineSummary(SummaryObject):
    """Per-tuple activity histogram: bucket index -> annotation ids."""

    type_name = TYPE_NAME

    def __init__(
        self, instance_name: str, bucket_seconds: int = DEFAULT_BUCKET_SECONDS
    ) -> None:
        super().__init__(instance_name)
        self.bucket_seconds = bucket_seconds
        self._buckets: dict[int, set[int]] = {}

    # -- construction ------------------------------------------------

    def add(self, annotation_id: int, bucket: int) -> None:
        """Record ``annotation_id`` in time ``bucket``."""
        self._writable()
        self._buckets.setdefault(bucket, set()).add(annotation_id)

    # -- inspection ----------------------------------------------------

    def histogram(self) -> list[tuple[int, int]]:
        """``(bucket, count)`` pairs in chronological order."""
        return [
            (bucket, len(self._buckets[bucket]))
            for bucket in sorted(self._buckets)
        ]

    def busiest_bucket(self) -> int | None:
        """The bucket with the most annotations (earliest on ties)."""
        if not self._buckets:
            return None
        return min(
            self._buckets, key=lambda bucket: (-len(self._buckets[bucket]), bucket)
        )

    def annotation_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        for members in self._buckets.values():
            ids |= members
        return frozenset(ids)

    # -- query-time algebra -------------------------------------------

    def copy(self) -> "TimelineSummary":
        clone = TimelineSummary(self.instance_name, self.bucket_seconds)
        clone._buckets = {b: set(ids) for b, ids in self._buckets.items()}
        return clone

    def remove_annotations(self, ids: Set[int]) -> None:
        """Drop ``ids`` in place; emptied buckets drop out, the rest keep order."""
        self._writable()
        buckets = sets_without(self._buckets, ids, keep_empty=False)
        if buckets is not None:
            self._buckets = buckets

    def without(self, ids: Set[int]) -> "TimelineSummary":
        """Projection that rebuilds only the bucket sets ``ids`` hit."""
        view = self.for_query()
        buckets = sets_without(view._buckets, ids, keep_empty=False)
        return view if buckets is None else view._value(_buckets=buckets)

    def merge(self, *others: SummaryObject) -> "TimelineSummary":
        for other in others:
            if not isinstance(other, TimelineSummary):
                raise TypeError(
                    f"cannot merge TimelineSummary with {type(other).__name__}"
                )
            if other.bucket_seconds != self.bucket_seconds:
                raise ValueError(
                    "cannot merge timelines with different bucket widths: "
                    f"{self.bucket_seconds} vs {other.bucket_seconds}"
                )
        buckets = sets_union(
            obj.for_query()._buckets for obj in (self, *others)  # type: ignore[attr-defined]
        )
        return self._value(_buckets=buckets)

    def for_query(self) -> "TimelineSummary":
        return self._shared_view()

    # -- zoom-in ---------------------------------------------------------

    def zoom_components(self) -> list[ZoomComponent]:
        return [
            ZoomComponent(
                index=position,
                label=bucket_label(bucket, self.bucket_seconds),
                annotation_ids=tuple(sorted(self._buckets[bucket])),
            )
            for position, bucket in enumerate(sorted(self._buckets), start=1)
        ]

    # -- bookkeeping -----------------------------------------------------

    def size_estimate(self) -> int:
        return 16 + sum(8 + 8 * len(ids) for ids in self._buckets.values())

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.type_name,
            "instance": self.instance_name,
            "bucket_seconds": self.bucket_seconds,
            "buckets": {
                str(bucket): sorted(ids) for bucket, ids in self._buckets.items()
            },
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TimelineSummary":
        obj = cls(
            data["instance"],
            bucket_seconds=data.get("bucket_seconds", DEFAULT_BUCKET_SECONDS),
        )
        for bucket, ids in data.get("buckets", {}).items():
            obj._buckets[int(bucket)] = set(ids)
        return obj

    def render(self) -> str:
        body = ", ".join(
            f"({bucket_label(bucket, self.bucket_seconds)}, {count})"
            for bucket, count in self.histogram()
        )
        return f"{self.instance_name} [{body}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimelineSummary {len(self._buckets)} buckets>"


class TimelineInstance(SummaryInstance):
    """A configured Timeline instance: the bucket width."""

    type_name = TYPE_NAME

    def __init__(
        self,
        name: str,
        bucket_seconds: int = DEFAULT_BUCKET_SECONDS,
        properties: InstanceProperties | None = None,
    ) -> None:
        if bucket_seconds < 1:
            raise ValueError(f"bucket_seconds must be >= 1, got {bucket_seconds}")
        super().__init__(
            name,
            properties
            or InstanceProperties(annotation_invariant=True, data_invariant=True),
        )
        self.bucket_seconds = bucket_seconds

    def new_object(self) -> TimelineSummary:
        return TimelineSummary(self.name, bucket_seconds=self.bucket_seconds)

    def analyze(self, annotation: Annotation) -> int:
        """The annotation's time bucket — the cacheable contribution."""
        return int(annotation.created_at // self.bucket_seconds)

    def add_to(
        self,
        obj: SummaryObject,
        annotation: Annotation,
        contribution: int,
    ) -> None:
        if not isinstance(obj, TimelineSummary):
            raise TypeError(f"expected TimelineSummary, got {type(obj).__name__}")
        obj.add(annotation.annotation_id, contribution)

    def config(self) -> dict[str, Any]:
        return {
            "bucket_seconds": self.bucket_seconds,
            "annotation_invariant": self.properties.annotation_invariant,
            "data_invariant": self.properties.data_invariant,
        }


class TimelineType(SummaryType):
    """Level-1 registration of the Timeline technique family."""

    name = TYPE_NAME

    def create_instance(
        self, instance_name: str, config: Mapping[str, Any]
    ) -> TimelineInstance:
        properties = InstanceProperties(
            annotation_invariant=config.get("annotation_invariant", True),
            data_invariant=config.get("data_invariant", True),
        )
        return TimelineInstance(
            instance_name,
            bucket_seconds=config.get("bucket_seconds", DEFAULT_BUCKET_SECONDS),
            properties=properties,
        )

    def object_from_json(self, data: Mapping[str, Any]) -> TimelineSummary:
        return TimelineSummary.from_json(data)
