"""Zoom-in execution.

Resolves a :class:`~repro.zoomin.command.ZoomInCommand` against a cached
(or recomputed) query result, filters the result's tuples with the
command's predicate, locates the addressed summary component on each
matching tuple, and fetches the component's raw annotations from the
annotation store — the only point in the whole pipeline where raw
annotation text is read back.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.engine.results import QueryResult
from repro.errors import ZoomInError
from repro.model.annotation import Annotation
from repro.storage.annotations import AnnotationStore
from repro.summaries.base import ZoomComponent
from repro.zoomin.cache import ZoomInCache
from repro.zoomin.command import ZoomInCommand, parse_zoomin
from repro.zoomin.tiered import (
    SOURCE_COALESCED,
    SOURCE_MEMORY,
    SOURCE_RECOMPUTED,
    TieredZoomInCache,
)


@dataclass
class ZoomInMatch:
    """One result tuple's expansion."""

    values: tuple[Any, ...]
    component: ZoomComponent
    annotations: list[Annotation]

    def to_json(self) -> dict[str, Any]:
        """JSON-able form (annotation service wire format)."""
        return {
            "values": list(self.values),
            "component": {
                "index": self.component.index,
                "label": self.component.label,
                "detail": self.component.detail,
            },
            "annotations": [
                {
                    "annotation_id": annotation.annotation_id,
                    "text": annotation.text,
                    "author": annotation.author,
                    "created_at": annotation.created_at,
                    "kind": annotation.kind.value,
                    "title": annotation.title,
                }
                for annotation in self.annotations
            ],
        }


@dataclass
class ZoomInResult:
    """Outcome of one zoom-in command."""

    command: ZoomInCommand
    matches: list[ZoomInMatch]
    cache_hit: bool
    elapsed_seconds: float = 0.0
    #: Where the referenced result came from: ``memory`` / ``disk`` /
    #: ``recomputed`` / ``coalesced`` on the tiered cache; ``memory`` /
    #: ``recomputed`` on the single-tier prototype.
    source: str = ""

    def annotation_count(self) -> int:
        """Total raw annotations retrieved."""
        return sum(len(match.annotations) for match in self.matches)

    def to_json(self) -> dict[str, Any]:
        """JSON-able form of the full expansion, command included.

        The annotation service's wire format: everything a remote client
        needs to render the zoom-in, nothing engine-internal.
        """
        return {
            "command": self.command.render(),
            "cache_hit": self.cache_hit,
            "source": self.source,
            "elapsed_seconds": self.elapsed_seconds,
            "annotation_count": self.annotation_count(),
            "matches": [match.to_json() for match in self.matches],
        }


class ZoomInExecutor:
    """Executes zoom-in commands against the result cache.

    ``cache`` may be the single-tier prototype
    (:class:`~repro.zoomin.cache.ZoomInCache`) or the production
    :class:`~repro.zoomin.tiered.TieredZoomInCache`; the tiered cache's
    ``get_or_compute`` is used when available so concurrent zoom-ins
    referencing the same evicted qid coalesce into one re-execution.
    """

    def __init__(
        self,
        annotations: AnnotationStore,
        cache: ZoomInCache | TieredZoomInCache,
        recompute: Callable[[int], QueryResult],
    ) -> None:
        self._annotations = annotations
        self._cache = cache
        self._recompute = recompute

    def execute(self, command: ZoomInCommand | str) -> ZoomInResult:
        """Run ``command`` (text is parsed first) and expand annotations."""
        if isinstance(command, str):
            command = parse_zoomin(command)
        started = time.perf_counter()
        result, source = self._resolve(command.qid)
        matches = self._expand(command, result)
        elapsed = time.perf_counter() - started
        return ZoomInResult(
            command=command,
            matches=matches,
            cache_hit=source not in (SOURCE_RECOMPUTED, SOURCE_COALESCED),
            elapsed_seconds=elapsed,
            source=source,
        )

    def _resolve(self, qid: int) -> tuple[QueryResult, str]:
        if isinstance(self._cache, TieredZoomInCache):
            return self._cache.get_or_compute(
                qid, lambda: self._recompute(qid)
            )
        result = self._cache.get(qid)
        if result is not None:
            return result, SOURCE_MEMORY
        result = self._recompute(qid)
        self._cache.put(result)
        return result, SOURCE_RECOMPUTED

    def _expand(
        self, command: ZoomInCommand, result: QueryResult
    ) -> list[ZoomInMatch]:
        matches: list[ZoomInMatch] = []
        instance_seen = any(
            command.instance in row.summaries for row in result.tuples
        )
        for row in result.tuples:
            if command.predicate is not None and not command.predicate.evaluate(
                row, result.columns
            ):
                continue
            obj = row.summaries.get(command.instance)
            if obj is None:
                continue
            components = obj.zoom_components()
            if command.index is not None:
                if command.index > len(components):
                    raise ZoomInError(
                        f"summary {command.instance!r} has "
                        f"{len(components)} components; INDEX {command.index} "
                        f"is out of range"
                    )
                selected = [components[command.index - 1]]
            else:
                selected = components
            for component in selected:
                if command.detail == "count":
                    annotations: list[Annotation] = []
                else:
                    annotations = self._annotations.get_many(
                        component.annotation_ids
                    )
                matches.append(
                    ZoomInMatch(
                        values=row.values,
                        component=component,
                        annotations=annotations,
                    )
                )
        if not instance_seen and result.tuples:
            available = result.summary_instances()
            raise ZoomInError(
                f"no tuple in QID {command.qid} carries summary instance "
                f"{command.instance!r}; available: {available}"
            )
        return matches
