"""The named-lock registry — one factory for every engine lock.

Every ``threading.Lock`` / ``threading.RLock`` the engine creates goes
through :func:`make_lock` / :func:`make_rlock` with a **stable dotted
name** (``"pool.write"``, ``"zoomin.tiered"``).  The name is the shared
vocabulary of the two lock-discipline enforcement layers:

* **insightlint** (static) reads the ``make_lock("...")`` call sites to
  map lock attributes to names, so IN001/IN007/IN008 findings and the
  DESIGN.md §15 lock inventory all speak in the same identifiers;
* **insightsan** (runtime, ``INSIGHT_SANITIZE=1``) swaps the factory for
  instrumented wrappers that feed a per-thread held-lock stack and a
  global acquisition-order graph — its inversion and
  blocking-under-lock reports name the same locks the static findings
  do.

``guards_io=True`` marks the documented exceptions that exist precisely
to serialize blocking work (SQL transactions, writer checkout): the
single-writer lock, the annotation id sequence, the zoom-in store's
transaction mutex, and the summary manager's write-path re-entrant lock
(DESIGN.md §9/§11/§14).  Both enforcement layers skip
blocking-under-lock diagnostics for them; lock-order tracking still
applies.

The registry records every name ever constructed in this process
(:func:`lock_inventory`), which the tests pin against the documented
inventory so a new lock cannot appear without a name and a review of
its place in the acquisition order.

:class:`InvalidationStamps` keeps a cache fill from caching what a
write invalidated while the fill's fetch ran with the lock released.
"""

from __future__ import annotations

import os
import re
import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, Protocol

#: Lock names are dotted lowercase identifiers — stable across releases,
#: greppable, and legal JSON keys in sanitizer reports.
_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


class LockLike(Protocol):
    """What the engine requires of a lock: context manager + acquire."""

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(self, *exc_info: object) -> Any: ...


@dataclass(frozen=True)
class LockSpec:
    """One registered lock name."""

    name: str
    kind: str  # "lock" | "rlock"
    guards_io: bool


#: Every name constructed in this process, for inventory introspection.
_registry: dict[str, LockSpec] = {}
_registry_guard = threading.Lock()

#: Installed by the sanitizer; None means plain threading locks.
_factory: Callable[[LockSpec], LockLike] | None = None


def sanitize_requested() -> bool:
    """True when the ``INSIGHT_SANITIZE`` environment variable is set."""
    return os.environ.get("INSIGHT_SANITIZE", "").lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


def install_lock_factory(
    factory: Callable[[LockSpec], LockLike] | None,
) -> None:
    """Swap the lock construction hook (the sanitizer's entry point).

    ``None`` restores plain ``threading`` locks.  Locks already handed
    out keep whatever behaviour they were built with — enable the
    sanitizer before constructing the sessions under test.
    """
    global _factory
    _factory = factory


def _register(name: str, kind: str, guards_io: bool) -> LockSpec:
    if not _NAME_PATTERN.match(name):
        raise ValueError(
            f"lock name {name!r} must be a dotted lowercase identifier "
            "(e.g. 'pool.write')"
        )
    spec = LockSpec(name=name, kind=kind, guards_io=guards_io)
    with _registry_guard:
        known = _registry.get(name)
        if known is not None and known != spec:
            raise ValueError(
                f"lock name {name!r} re-registered with a different "
                f"shape: {known} vs {spec}"
            )
        _registry[name] = spec
    return spec


def _build(spec: LockSpec) -> LockLike:
    factory = _factory
    if factory is None and sanitize_requested():
        # Lazily wire the sanitizer up on first construction, so
        # INSIGHT_SANITIZE=1 works without anyone importing it first.
        from repro.analysis.sanitizer import enable

        enable()
        factory = _factory
    if factory is not None:
        return factory(spec)
    if spec.kind == "rlock":
        return threading.RLock()
    return threading.Lock()


def make_lock(name: str, *, guards_io: bool = False) -> LockLike:
    """A named, non-reentrant mutex.

    ``guards_io=True`` documents (and exempts from blocking-under-lock
    diagnostics) a lock whose very purpose is to serialize blocking
    work — see the module docstring for the sanctioned list.
    """
    return _build(_register(name, "lock", guards_io))


def make_rlock(name: str, *, guards_io: bool = False) -> LockLike:
    """A named re-entrant mutex (same contract as :func:`make_lock`)."""
    return _build(_register(name, "rlock", guards_io))


def lock_inventory() -> dict[str, LockSpec]:
    """Every lock name constructed so far, keyed by name."""
    with _registry_guard:
        return dict(_registry)


def held_locks() -> tuple[str, ...]:
    """Names of instrumented locks the calling thread holds (sanitizer
    active), or ``()`` — a debugging/assertion hook for tests."""
    if _factory is None:
        return ()
    from repro.analysis.sanitizer.runtime import current_state

    return current_state().held_names()


class InvalidationStamps:
    """Per-key invalidation stamps for a probe → fetch → fill cache.

    A reader takes :meth:`snapshot` while probing under the cache's lock
    and, after fetching with the lock released, fills only keys that are
    :meth:`fillable`.  Every invalidation ticks a clock and stamps its
    key; when ``capacity`` stamps are held they are forgotten wholesale
    and every older snapshot is refused.  Call it under the cache's lock.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._clock = 0
        self._floor = 0
        self.stamps: dict[Any, int] = {}

    def snapshot(self) -> int:
        """The clock a reader presents to :meth:`fillable` after its fetch."""
        return self._clock

    def invalidate(self, key: Any) -> None:
        """Stamp ``key``: fills of it from older snapshots are refused."""
        if len(self.stamps) >= self.capacity:
            self.invalidate_all()
        else:
            self._clock += 1
        self.stamps[key] = self._clock

    def invalidate_all(self) -> None:
        """Refuse every fill whose snapshot predates this call."""
        self._clock += 1
        self.stamps.clear()
        self._floor = self._clock

    def fillable(self, key: Any, snapshot: int) -> bool:
        """True when no invalidation of ``key`` postdates ``snapshot``."""
        return snapshot >= self._floor and self.stamps.get(key, 0) <= snapshot


__all__ = [
    "InvalidationStamps",
    "LockLike",
    "LockSpec",
    "held_locks",
    "install_lock_factory",
    "lock_inventory",
    "make_lock",
    "make_rlock",
    "sanitize_requested",
]
