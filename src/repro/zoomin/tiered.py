"""The zoom-in result cache.

Query results are materialized into a limited cache where they "compete
with each other" (§2.2) to serve future zoom-in operations, ranked by
the paper's RCO policy (:mod:`repro.zoomin.rco`).  All timing is a
logical clock (one tick per lookup or admission) so replacement is
deterministic and testable.

* **One or two exclusive tiers.**  A hot in-memory tier holds live
  :class:`~repro.engine.results.QueryResult` objects.  With
  ``disk_bytes > 0`` a disk tier
  (:class:`~repro.zoomin.stores.SQLiteResultStore`) holds serialized
  payloads — the paper's disk-based materialization.  Each tier has its
  own byte budget, charged in its own currency (object-size estimate vs
  encoded payload bytes — see :mod:`repro.zoomin.stores`).  Memory
  eviction *demotes* the victim to disk; a disk hit *promotes* the
  result back to memory.  An entry is resident in exactly one tier at a
  time.  With ``disk_bytes=0`` there is no disk tier: no store is
  opened, nothing is ever serialized, and a memory victim is dropped.

* **One admission rule.**  Every result that fits is admitted, as in
  the paper, and RCO decides what stays.  A result too large for the
  memory tier is admitted straight to disk when it fits there (and
  stays there after a hit); one too large for every tier is rejected.
  The entry being admitted or promoted is never its own victim.

* **RCO ranks by structural complexity.**  Every entry's ``cost`` is the
  query's ``plan_cost`` — RCO's "Complexity" factor.

* **Single-flight recompute.**  Concurrent zoom-ins referencing the
  same evicted qid coalesce onto one re-execution via per-qid in-flight
  markers sharded over striped locks, so a miss stampede costs one
  query, and misses on unrelated qids never contend on the same stripe.

Lock inventory (acquisition order is top to bottom; no path acquires
upward):

========================  ===================================================
``_FlightStripe.lock``    guards that stripe's in-flight table only; held
                          for dict probes — never across SQL or recompute
``TieredZoomInCache._lock``  guards tier metadata, the logical clock, byte
                          accounting, counters; **never held across SQL** —
                          store reads/writes happen outside, with victims
                          collected under the lock and flushed after release
``TraceStore._lock``      internal to the trace ring (plain dict ops)
========================  ===================================================
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.concurrency import LockLike, make_lock
from repro.engine.results import QueryResult
from repro.zoomin.policies import CacheEntry, ReplacementPolicy
from repro.zoomin.rco import RCOPolicy
from repro.zoomin.stores import SQLiteResultStore
from repro.zoomin.tracing import CacheEvent, TraceStore

#: ``get_or_compute`` outcome labels.
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_RECOMPUTED = "recomputed"
SOURCE_COALESCED = "coalesced"
_SOURCE_MISS = "miss"


@dataclass
class TierCounters:
    """Every counter the cache exports."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejected_oversize: int = 0
    promotions: int = 0
    demotions: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    recomputes: int = 0
    coalesced: int = 0
    invalidations: int = 0
    warm_loaded: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from either tier."""
        hits = self.memory_hits + self.disk_hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "insertions": self.insertions,
            "rejected_oversize": self.rejected_oversize,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "memory_evictions": self.memory_evictions,
            "disk_evictions": self.disk_evictions,
            "recomputes": self.recomputes,
            "coalesced": self.coalesced,
            "invalidations": self.invalidations,
            "warm_loaded": self.warm_loaded,
        }


def _new_entry(result: QueryResult, size: int, now: int) -> CacheEntry:
    """Replacement metadata of a freshly admitted ``result``."""
    return CacheEntry(
        qid=result.qid,
        size_bytes=size,
        cost=result.plan_cost,
        inserted_at=now,
        last_access=now,
        access_count=0,
    )


class _Flight:
    """One in-flight recompute; followers park on the event."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: QueryResult | None = None
        self.error: BaseException | None = None


@dataclass
class _FlightStripe:
    """One shard of the in-flight table."""

    lock: LockLike = field(
        default_factory=lambda: make_lock("zoomin.flight_stripe")
    )
    flights: dict[int, _Flight] = field(default_factory=dict)


class TieredZoomInCache:
    """RCO result cache with a disk tier and single-flight recompute.

    Parameters
    ----------
    memory_bytes:
        Budget of the hot tier, charged against ``size_estimate()``.
    disk_bytes:
        Budget of the disk tier, charged against encoded payload bytes;
        ``0`` runs without a disk tier.
    policy:
        Replacement ranking for both tiers; defaults to the paper's RCO.
    disk_store:
        Backing store of the disk tier (default: a private in-memory
        SQLite store).  When the store already holds entries (a cache
        file from a previous process) their metadata is warm-loaded so
        the disk tier starts populated.
    trace_store:
        Optional sink for per-qid cache events.
    n_stripes:
        Shards of the single-flight table.
    """

    def __init__(
        self,
        memory_bytes: int = 4 * 1024 * 1024,
        disk_bytes: int = 16 * 1024 * 1024,
        policy: ReplacementPolicy | None = None,
        disk_store: SQLiteResultStore | None = None,
        trace_store: TraceStore | None = None,
        n_stripes: int = 8,
    ) -> None:
        if memory_bytes < 1:
            raise ValueError(f"memory_bytes must be >= 1, got {memory_bytes}")
        if disk_bytes < 0:
            raise ValueError(f"disk_bytes must be >= 0, got {disk_bytes}")
        if disk_store is not None and not disk_bytes:
            raise ValueError("a disk_store needs disk_bytes > 0")
        if n_stripes < 1:
            raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")
        self.memory_bytes = memory_bytes
        self.disk_bytes = disk_bytes
        self.policy = policy or RCOPolicy()
        self.counters = TierCounters()
        self._disk_store = (
            (disk_store or SQLiteResultStore()) if disk_bytes else None
        )
        self._trace_store = trace_store
        self._stripes = [_FlightStripe() for _ in range(n_stripes)]
        # Tier metadata, payloads of the hot tier, and accounting — all
        # guarded by _lock; the disk store itself is only touched with
        # the lock released.
        self._lock = make_lock("zoomin.tiered")
        self._entries_memory: dict[int, CacheEntry] = {}
        self._entries_disk: dict[int, CacheEntry] = {}
        self._memory: dict[int, QueryResult] = {}
        self._memory_bytes_used = 0
        self._disk_bytes_used = 0
        self._clock = 0
        self._warm_start()

    # -- construction helpers ------------------------------------------

    @property
    def _store(self) -> SQLiteResultStore:
        """The disk tier's store; only reached for disk-resident qids,
        which exist only when there is a disk tier."""
        assert self._disk_store is not None
        return self._disk_store

    def _warm_start(self) -> None:
        """Rebuild the disk tier's metadata from a pre-existing store."""
        if self._disk_store is None:
            return
        for meta in self._disk_store.load_metadata():
            self._entries_disk[meta.qid] = CacheEntry(
                qid=meta.qid,
                size_bytes=meta.size_bytes,
                cost=meta.cost,
                inserted_at=0,
                last_access=meta.last_access,
                access_count=meta.access_count,
            )
            self._disk_bytes_used += meta.size_bytes
            self.counters.warm_loaded += 1
        # A previous process may have run with a larger budget.
        self._shed_disk_overflow()

    # -- introspection -------------------------------------------------

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    @property
    def memory_bytes_used(self) -> int:
        with self._lock:
            return self._memory_bytes_used

    @property
    def disk_bytes_used(self) -> int:
        with self._lock:
            return self._disk_bytes_used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries_memory) + len(self._entries_disk)

    def __contains__(self, qid: int) -> bool:
        return self._resident(qid)

    def resident_qids(self) -> list[int]:
        """QIDs resident in either tier, sorted."""
        with self._lock:
            return sorted(set(self._entries_memory) | set(self._entries_disk))

    def tier_of(self, qid: int) -> str | None:
        """``"memory"``, ``"disk"``, or None."""
        with self._lock:
            if qid in self._entries_memory:
                return SOURCE_MEMORY
            if qid in self._entries_disk:
                return SOURCE_DISK
            return None

    def stats_json(self) -> dict[str, Any]:
        """Counters plus per-tier occupancy, as one JSON-able payload."""
        with self._lock:
            return {
                **self.counters.to_json(),
                "tiers": {
                    "memory": {
                        "capacity_bytes": self.memory_bytes,
                        "bytes_used": self._memory_bytes_used,
                        "entries": len(self._entries_memory),
                    },
                    "disk": {
                        "capacity_bytes": self.disk_bytes,
                        "bytes_used": self._disk_bytes_used,
                        "entries": len(self._entries_disk),
                    },
                },
                "policy": self.policy.name,
            }

    # -- tracing -------------------------------------------------------

    def _emit(self, qid: int, events: list[CacheEvent]) -> None:
        if self._trace_store is not None:
            for event in events:
                self._trace_store.record_event(qid, event)

    # -- lookups -------------------------------------------------------

    def get(self, qid: int) -> QueryResult | None:
        """Look up a result in either tier, promoting on a disk hit."""
        result, _ = self._lookup(qid)
        return result

    def _resident(self, qid: int) -> bool:
        """Metadata-only probe (no store I/O) — the single-flight
        double-check, safe to call under a stripe lock."""
        with self._lock:
            return qid in self._entries_memory or qid in self._entries_disk

    def _lookup(self, qid: int) -> tuple[QueryResult | None, str]:
        with self._lock:
            now = self._tick()
            entry = self._entries_memory.get(qid)
            if entry is not None:
                entry.last_access = now
                entry.access_count += 1
                self.counters.memory_hits += 1
                result = self._memory[qid]
                self._emit(qid, [CacheEvent("hit-memory", tier="memory")])
                return result, SOURCE_MEMORY
            if qid not in self._entries_disk:
                self.counters.misses += 1
                self._emit(qid, [CacheEvent("miss")])
                return None, _SOURCE_MISS
        # Disk-resident: read the payload with the lock released, then
        # re-take it to promote.  A concurrent invalidate can win the
        # race; both outcomes below handle the entry having vanished.
        result = self._store.get(qid)
        if result is None:
            with self._lock:
                stale = self._entries_disk.pop(qid, None)
                if stale is not None:
                    self._disk_bytes_used -= stale.size_bytes
                self.counters.misses += 1
            self._emit(qid, [CacheEvent("miss", detail="stale-metadata")])
            return None, _SOURCE_MISS
        return self._promote(qid, result, now)

    def _promote(
        self, qid: int, result: QueryResult, now: int
    ) -> tuple[QueryResult | None, str]:
        """Serve a disk hit read at tick ``now``, promoting the entry
        into the memory tier unless it is too large for that tier."""
        events: list[CacheEvent] = [CacheEvent("hit-disk", tier="disk")]
        victims: list[tuple[QueryResult, CacheEntry]] = []
        refresh: tuple[int, int] | None = None
        promoted = False
        with self._lock:
            self.counters.disk_hits += 1
            disk_entry = self._entries_disk.get(qid)
            if disk_entry is None:
                # Invalidated between the probe and here; serve the
                # payload we already read but do not re-admit it.
                return result, SOURCE_DISK
            disk_entry.last_access = now
            disk_entry.access_count += 1
            mem_size = result.size_estimate()
            if mem_size > self.memory_bytes:
                # Too large for the hot tier: stays disk-resident; its
                # refreshed reference counts are persisted below.
                refresh = (disk_entry.access_count, disk_entry.last_access)
            else:
                del self._entries_disk[qid]
                self._disk_bytes_used -= disk_entry.size_bytes
                disk_entry.size_bytes = mem_size
                disk_entry.inserted_at = now
                self._entries_memory[qid] = disk_entry
                self._memory[qid] = result
                self._memory_bytes_used += mem_size
                self.counters.promotions += 1
                events.append(CacheEvent("promote", tier="memory"))
                victims = self._collect_memory_overflow(now, keep=qid)
                promoted = True
        if refresh is not None:
            self._store.update_access(qid, *refresh)
        if promoted:
            # Exclusive tiers: the promoted payload leaves the disk file.
            self._store.delete(qid)
            self._flush_victims(victims)
        self._emit(qid, events)
        return result, SOURCE_DISK

    # -- admission -----------------------------------------------------

    def put(self, result: QueryResult) -> bool:
        """Offer ``result`` for residency; True when it is resident.

        A result that fits the memory tier is admitted there; a larger
        one goes to the disk tier when there is one and it fits.  The
        entry RCO ranks carries the structural ``plan_cost``.
        """
        size = result.size_estimate()
        qid = result.qid
        victims: list[tuple[QueryResult, CacheEntry]] = []
        with self._lock:
            now = self._tick()
            # (Re-)admission refreshes: drop any prior residency.
            dropped = self._drop_locked(qid)
            fits = size <= self.memory_bytes
            if fits:
                self._entries_memory[qid] = _new_entry(result, size, now)
                self._memory[qid] = result
                self._memory_bytes_used += size
                self.counters.insertions += 1
                victims = self._collect_memory_overflow(now, keep=qid)
        if not fits:
            # A disk write upserts over any stale payload of this qid.
            return self._admit_to_disk(result, now)
        if dropped == SOURCE_DISK:
            self._store.delete(qid)
        self._flush_victims(victims)
        self._emit(qid, [CacheEvent("admit", tier="memory", detail="admitted")])
        return True

    def _admit_to_disk(self, result: QueryResult, now: int) -> bool:
        """Oversized-for-memory results go to the disk tier if it has room."""
        qid = result.qid
        if self._disk_store is not None:
            size = self._disk_store.put(
                result, cost=result.plan_cost, access_count=0, last_access=now
            )
            if size <= self.disk_bytes:
                with self._lock:
                    self._entries_disk[qid] = _new_entry(result, size, now)
                    self._disk_bytes_used += size
                    self.counters.insertions += 1
                self._emit(
                    qid,
                    [CacheEvent("admit", tier="disk", detail="oversize-for-memory")],
                )
                self._shed_disk_overflow(keep=qid)
                return True
            self._disk_store.delete(qid)
        with self._lock:
            self.counters.rejected_oversize += 1
        self._emit(qid, [CacheEvent("reject", detail="rejected-oversize")])
        return False

    # -- eviction / demotion -------------------------------------------

    def _collect_memory_overflow(
        self, now: int, keep: int
    ) -> list[tuple[QueryResult, CacheEntry]]:
        """Pop memory victims until under budget, never ``keep`` (the
        entry being admitted or promoted, which fits the tier on its own
        — so a victim always exists).  Caller holds _lock; the returned
        (payload, entry) victims must go to :meth:`_flush_victims` after
        releasing it."""
        victims: list[tuple[QueryResult, CacheEntry]] = []
        while self._memory_bytes_used > self.memory_bytes:
            candidates = [
                entry
                for entry in self._entries_memory.values()
                if entry.qid != keep
            ]
            victim = self.policy.victim(candidates, now)
            del self._entries_memory[victim.qid]
            self._memory_bytes_used -= victim.size_bytes
            victims.append((self._memory.pop(victim.qid), victim))
            self.counters.memory_evictions += 1
            if self._disk_store is not None:
                self.counters.demotions += 1
        return victims

    def _flush_victims(
        self, victims: list[tuple[QueryResult, CacheEntry]]
    ) -> None:
        """Demote memory victims into the disk tier (no lock held across
        the writes), then shed disk overflow; without a disk tier the
        victims are simply gone."""
        if self._disk_store is None:
            for _, entry in victims:
                self._emit(
                    entry.qid,
                    [CacheEvent("evict", tier="memory", detail="capacity")],
                )
            return
        if not victims:
            return
        for payload, entry in victims:
            entry.size_bytes = self._disk_store.put(
                payload,
                cost=entry.cost,
                access_count=entry.access_count,
                last_access=entry.last_access,
            )
            with self._lock:
                self._entries_disk[entry.qid] = entry
                self._disk_bytes_used += entry.size_bytes
            self._emit(
                entry.qid,
                [CacheEvent("demote", tier="disk", detail="memory-pressure")],
            )
        self._shed_disk_overflow()

    def _shed_disk_overflow(self, keep: int | None = None) -> None:
        """Evict disk entries until under budget, never ``keep`` (the
        entry just admitted to disk); SQL deletes happen after the
        metadata lock is released."""
        doomed: list[int] = []
        with self._lock:
            now = self._clock
            while self._disk_bytes_used > self.disk_bytes:
                candidates = [
                    entry
                    for entry in self._entries_disk.values()
                    if entry.qid != keep
                ]
                if not candidates:
                    break
                victim = self.policy.victim(candidates, now)
                del self._entries_disk[victim.qid]
                self._disk_bytes_used -= victim.size_bytes
                self.counters.disk_evictions += 1
                doomed.append(victim.qid)
        for qid in doomed:
            self._store.delete(qid)
            self._emit(
                qid, [CacheEvent("evict", tier="disk", detail="capacity")]
            )

    def _drop_locked(self, qid: int) -> str | None:
        """Remove ``qid``'s residency metadata.  Caller holds _lock.
        Returns the tier it was dropped from; a ``"disk"`` return means
        the caller must issue the store delete after releasing."""
        entry = self._entries_memory.pop(qid, None)
        if entry is not None:
            self._memory_bytes_used -= entry.size_bytes
            self._memory.pop(qid, None)
            return SOURCE_MEMORY
        disk_entry = self._entries_disk.pop(qid, None)
        if disk_entry is not None:
            self._disk_bytes_used -= disk_entry.size_bytes
            return SOURCE_DISK
        return None

    def invalidate(self, qid: int) -> None:
        """Drop one result from whichever tier holds it."""
        with self._lock:
            dropped = self._drop_locked(qid)
            if dropped is not None:
                self.counters.invalidations += 1
        if dropped == SOURCE_DISK:
            self._store.delete(qid)
        if dropped is not None:
            self._emit(qid, [CacheEvent("evict", detail="invalidated")])

    def clear(self) -> None:
        """Drop everything, keeping counters."""
        with self._lock:
            self._entries_memory.clear()
            self._entries_disk.clear()
            self._memory.clear()
            self._memory_bytes_used = 0
            self._disk_bytes_used = 0
        if self._disk_store is not None:
            self._disk_store.clear()

    def close(self) -> None:
        """Close the disk tier's store, if there is one."""
        if self._disk_store is not None:
            self._disk_store.close()

    # -- single-flight -------------------------------------------------

    def get_or_compute(
        self, qid: int, compute: Callable[[], QueryResult]
    ) -> tuple[QueryResult, str]:
        """Serve ``qid`` from cache or compute it exactly once.

        Concurrent callers missing on the same qid coalesce: one leader
        runs ``compute`` (and offers the result to :meth:`put`), the rest
        park on its flight and share the result.  Returns ``(result,
        source)`` with source one of ``memory`` / ``disk`` /
        ``recomputed`` / ``coalesced``.  A leader's exception propagates
        to every waiter.
        """
        result, source = self._lookup(qid)
        if result is not None:
            return result, source
        stripe = self._stripes[qid % len(self._stripes)]
        while True:
            leader = False
            resident = False
            with stripe.lock:
                flight = stripe.flights.get(qid)
                if flight is None:
                    # Double-check residency before leading: a previous
                    # leader may have landed the result between our miss
                    # and taking the stripe.  Metadata probe only — no
                    # store I/O under the stripe lock.
                    if self._resident(qid):
                        resident = True
                    else:
                        flight = _Flight()
                        stripe.flights[qid] = flight
                        leader = True
            if resident:
                result, source = self._lookup(qid)
                if result is not None:
                    return result, source
                continue  # lost a race with invalidate; retry
            if leader:
                assert flight is not None
                try:
                    result = compute()
                    self.put(result)
                    flight.result = result
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    with stripe.lock:
                        stripe.flights.pop(qid, None)
                    flight.event.set()
                with self._lock:
                    self.counters.recomputes += 1
                self._emit(qid, [CacheEvent("recompute")])
                return result, SOURCE_RECOMPUTED
            assert flight is not None
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.result is not None
            with self._lock:
                self.counters.coalesced += 1
            self._emit(qid, [CacheEvent("coalesced")])
            return flight.result, SOURCE_COALESCED
