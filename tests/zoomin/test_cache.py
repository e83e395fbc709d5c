"""Tests for the zoom-in cache without a disk tier (the session default)."""

import pytest

from repro import InsightNotes
from repro.engine.results import QueryResult
from repro.model.tuple import AnnotatedTuple
from repro.zoomin.admission import AdmitAll
from repro.zoomin.policies import FIFOPolicy, LRUPolicy, SizePolicy
from repro.zoomin.rco import RCOPolicy
from repro.zoomin.tiered import TieredZoomInCache


def make_result(
    qid: int, rows: int = 1, cost: int = 1, estimate: float = 0.0
) -> QueryResult:
    tuples = [
        AnnotatedTuple(values=(i, "x" * 100)) for i in range(rows)
    ]
    return QueryResult(
        qid=qid,
        columns=("t.a", "t.b"),
        tuples=tuples,
        plan_cost=cost,
        cost_estimate=estimate,
    )


def make_cache(capacity_bytes: int = 4 * 1024 * 1024, policy=None):
    return TieredZoomInCache(
        memory_bytes=capacity_bytes,
        disk_bytes=0,
        policy=policy or LRUPolicy(),
        admission=AdmitAll(),
    )


class TestBasicOperations:
    def test_put_then_get(self):
        cache = make_cache(10_000)
        result = make_result(1)
        assert cache.put(result).admitted
        assert cache.get(1) is result
        assert cache.counters.memory_hits == 1

    def test_miss_recorded(self):
        cache = make_cache()
        assert cache.get(42) is None
        assert cache.counters.misses == 1

    def test_contains_and_len(self):
        cache = make_cache()
        cache.put(make_result(1))
        assert 1 in cache
        assert len(cache) == 1

    def test_oversized_result_rejected(self):
        cache = make_cache(64)
        assert not cache.put(make_result(1, rows=10)).admitted
        assert cache.counters.rejected_oversize == 1
        assert len(cache) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="memory_bytes"):
            make_cache(0)
        with pytest.raises(ValueError, match="disk_bytes"):
            TieredZoomInCache(disk_bytes=-1)

    def test_invalidate(self):
        cache = make_cache()
        cache.put(make_result(1))
        cache.invalidate(1)
        assert 1 not in cache
        assert cache.memory_bytes_used == 0

    def test_clear_keeps_stats(self):
        cache = make_cache()
        cache.put(make_result(1))
        cache.get(1)
        cache.clear()
        assert len(cache) == 0
        assert cache.counters.memory_hits == 1


class TestEviction:
    def _small_cache(self, policy=None):
        # Capacity fits roughly two one-row results.
        single = make_result(1).size_estimate()
        return make_cache(int(single * 2.5), policy)

    def test_eviction_frees_space(self):
        cache = self._small_cache(LRUPolicy())
        for qid in (1, 2, 3):
            cache.put(make_result(qid))
        assert len(cache) == 2
        assert cache.counters.memory_evictions >= 1
        assert cache.counters.demotions == 0  # no disk tier to demote to
        assert cache.memory_bytes_used <= cache.memory_bytes

    def test_lru_evicts_stale_entry(self):
        cache = self._small_cache(LRUPolicy())
        cache.put(make_result(1))
        cache.put(make_result(2))
        cache.get(1)  # refresh 1 -> 2 is now the LRU victim
        cache.put(make_result(3))
        assert 1 in cache
        assert 2 not in cache

    def test_fifo_ignores_access(self):
        cache = self._small_cache(FIFOPolicy())
        cache.put(make_result(1))
        cache.put(make_result(2))
        cache.get(1)
        cache.put(make_result(3))
        assert 1 not in cache  # inserted first, evicted first

    def test_reput_refreshes_entry(self):
        cache = self._small_cache(LRUPolicy())
        cache.put(make_result(1))
        cache.put(make_result(2))
        cache.put(make_result(1))  # refresh, no growth
        assert len(cache) == 2

    def test_bytes_used_tracks_entries(self):
        cache = make_cache(10**6)
        first = make_result(1)
        second = make_result(2, rows=3)
        cache.put(first)
        cache.put(second)
        expected = first.size_estimate() + second.size_estimate()
        assert cache.memory_bytes_used == expected

    def test_resident_qids_sorted(self):
        cache = make_cache(10**6)
        for qid in (5, 2, 9):
            cache.put(make_result(qid))
        assert cache.resident_qids() == [2, 5, 9]

    def test_hit_ratio(self):
        cache = make_cache()
        cache.put(make_result(1))
        cache.get(1)
        cache.get(2)
        assert cache.counters.hit_ratio == pytest.approx(0.5)


class TestRetention:
    def test_admitted_entry_is_never_its_own_victim(self):
        """Room is made for the entry being admitted, even when the
        policy ranks it lowest (SIZE evicts the largest first)."""
        small, big = make_result(1), make_result(2, rows=3)
        cache = make_cache(
            small.size_estimate() + big.size_estimate() - 1, SizePolicy()
        )
        cache.put(small)
        assert cache.put(big).admitted
        assert cache.tier_of(2) == "memory"
        assert 1 not in cache
        assert cache.counters.memory_evictions == 1

    def test_rco_ranks_by_plan_cost_not_cost_estimate(self):
        """RCO's complexity factor is the structural plan cost: the
        entry with the cheap plan goes first, whatever the cost model
        estimated for it."""
        single = make_result(1).size_estimate()
        cache = make_cache(int(single * 2.5), RCOPolicy())
        cache.put(make_result(1, cost=1, estimate=1e6))
        cache.put(make_result(2, cost=50, estimate=1.0))
        cache.put(make_result(3, cost=50, estimate=1.0))
        assert cache.resident_qids() == [2, 3]

    def test_disk_less_cache_never_serializes(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a disk-less cache serialized a result")

        monkeypatch.setattr(QueryResult, "to_json", refuse)
        single = make_result(1).size_estimate()
        cache = make_cache(int(single * 2.5))
        for qid in (1, 2, 3):  # the third put evicts
            assert cache.put(make_result(qid)).admitted
        assert cache.counters.memory_evictions == 1
        assert not cache.put(make_result(4, rows=10)).admitted  # oversize
        assert cache.counters.rejected_oversize == 1
        assert cache.stats_json()["tiers"]["disk"]["entries"] == 0

    def test_default_session_opens_no_result_store(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the default session opened a result store")

        monkeypatch.setattr(
            "repro.zoomin.stores.SQLiteResultStore.__init__", refuse
        )
        notes = InsightNotes()
        try:
            notes.create_table("t", ["v"])
            notes.insert("t", ("x",))
            result = notes.query("SELECT v FROM t")
            assert result.qid in notes.cache
            assert notes.statistics()["zoomin"]["tiers"]["disk"] == {
                "capacity_bytes": 0,
                "bytes_used": 0,
                "entries": 0,
            }
        finally:
            notes.close()
