"""Tests for the zoom-in cache with a disk tier: tiers, admission,
warm restart, single-flight and trace events."""

from __future__ import annotations

import threading
import time

import pytest

from repro import InsightNotes
from repro.engine.results import QueryResult
from repro.model.tuple import AnnotatedTuple
from repro.zoomin.admission import AdmitAll, CostAwareAdmission
from repro.zoomin.executor import ZoomInExecutor
from repro.zoomin.policies import SizePolicy
from repro.zoomin.stores import SQLiteResultStore
from repro.zoomin.tiered import TieredZoomInCache
from repro.zoomin.tracing import TraceStore


def make_result(qid: int, rows: int = 4, pad: int = 32, cost: float = 100.0):
    """A summary-free result of a controllable size and recompute cost."""
    tuples = [
        AnnotatedTuple(values=(f"row{qid}-{i}", "x" * pad)) for i in range(rows)
    ]
    return QueryResult(
        qid=qid,
        columns=("a", "b"),
        tuples=tuples,
        sql=f"SELECT {qid}",
        plan_text=f"Scan(t{qid})",
        plan_cost=3,
        cost_estimate=cost,
    )


def make_cache(memory=64 * 1024, disk=256 * 1024, **kwargs):
    kwargs.setdefault("admission", AdmitAll())
    return TieredZoomInCache(memory_bytes=memory, disk_bytes=disk, **kwargs)


class TestTierMechanics:
    def test_memory_hit_round_trip(self):
        cache = make_cache()
        result = make_result(101)
        verdict = cache.put(result)
        assert verdict.admitted
        assert cache.tier_of(101) == "memory"
        assert cache.get(101) is result
        assert cache.counters.memory_hits == 1

    def test_miss_counts(self):
        cache = make_cache()
        assert cache.get(999) is None
        assert cache.counters.misses == 1

    def test_memory_pressure_demotes_to_disk(self):
        one = make_result(101).size_estimate()
        cache = make_cache(memory=int(one * 2.5))
        for qid in (101, 102, 103):
            cache.put(make_result(qid))
        assert cache.counters.demotions == 1
        assert cache.tier_of(101) == "disk"  # oldest untouched entry
        assert cache.tier_of(102) == "memory"
        assert cache.tier_of(103) == "memory"
        assert sorted(cache.resident_qids()) == [101, 102, 103]

    def test_disk_hit_promotes_back_and_demotes_a_victim(self):
        one = make_result(101).size_estimate()
        cache = make_cache(memory=int(one * 2.5))
        for qid in (101, 102, 103):
            cache.put(make_result(qid))
        assert cache.tier_of(101) == "disk"
        revived = cache.get(101)
        assert revived is not None
        assert revived.rows() == make_result(101).rows()
        assert cache.tier_of(101) == "memory"
        assert cache.counters.disk_hits == 1
        assert cache.counters.promotions == 1
        # Promotion displaced something; both tiers stay within budget.
        assert cache.memory_bytes_used <= cache.memory_bytes
        assert len(cache.resident_qids()) == 3

    def test_promoted_entry_is_never_its_own_victim(self):
        big = make_result(101, rows=8)
        cache = make_cache(
            memory=int(big.size_estimate() * 1.2), policy=SizePolicy()
        )
        cache.put(big)
        cache.put(make_result(102))  # SIZE demotes the big entry
        assert cache.tier_of(101) == "disk"
        assert cache.get(101) is not None
        assert cache.tier_of(101) == "memory"
        assert cache.tier_of(102) == "disk"

    def test_disk_tier_records_the_plan_cost(self):
        store = SQLiteResultStore()
        cache = make_cache(memory=1, disk_store=store)
        cache.put(make_result(101, cost=500.0))
        (meta,) = store.load_metadata()
        assert meta.cost == 3  # plan_cost, not the price admission saw

    def test_disk_tier_evicts_past_its_budget(self):
        one = make_result(101).size_estimate()
        store = SQLiteResultStore()
        # Memory fits ~1 entry; disk fits ~2 serialized entries.
        import json

        disk_one = len(
            json.dumps(make_result(101).to_json()).encode("utf-8")
        )
        cache = make_cache(
            memory=int(one * 1.5), disk=int(disk_one * 2.5), disk_store=store
        )
        for qid in (101, 102, 103, 104):
            cache.put(make_result(qid))
        assert cache.counters.disk_evictions >= 1
        assert cache.disk_bytes_used <= cache.disk_bytes
        # Evicted payloads really left the file.
        gone = [
            qid
            for qid in (101, 102, 103, 104)
            if cache.tier_of(qid) is None
        ]
        assert gone
        for qid in gone:
            assert store.get(qid) is None

    def test_invalidate_each_tier(self):
        one = make_result(101).size_estimate()
        cache = make_cache(memory=int(one * 1.5))
        cache.put(make_result(101))
        cache.put(make_result(102))  # demotes 101
        assert cache.tier_of(101) == "disk"
        cache.invalidate(101)
        cache.invalidate(102)
        assert cache.resident_qids() == []
        assert cache.counters.invalidations == 2
        assert cache.get(101) is None

    def test_clear_keeps_counters(self):
        cache = make_cache()
        cache.put(make_result(101))
        cache.get(101)
        cache.clear()
        assert cache.resident_qids() == []
        assert cache.memory_bytes_used == 0
        assert cache.counters.memory_hits == 1

    def test_stats_json_shape(self):
        cache = make_cache()
        cache.put(make_result(101))
        cache.get(101)
        payload = cache.stats_json()
        assert payload["memory_hits"] == 1
        assert payload["hit_ratio"] == 1.0
        assert payload["tiers"]["memory"]["entries"] == 1
        assert payload["tiers"]["disk"]["entries"] == 0
        assert payload["policy"] == "RCO"


class TestCostAwareAdmissionIntegration:
    def admission(self):
        return CostAwareAdmission(
            min_recompute_cost=10.0, pin_cost=1000.0, max_entry_fraction=0.5
        )

    def test_cheap_result_is_not_cached(self):
        cache = make_cache(admission=self.admission())
        verdict = cache.put(make_result(101, cost=5.0))
        assert not verdict.admitted
        assert cache.tier_of(101) is None
        assert cache.counters.rejected_cheap == 1

    def test_pinned_entry_survives_pressure(self):
        one = make_result(101).size_estimate()
        cache = make_cache(
            memory=int(one * 2.5), admission=self.admission()
        )
        cache.put(make_result(101, cost=5000.0))  # pinned
        assert cache.pinned_qids() == [101]
        for qid in range(102, 108):
            cache.put(make_result(qid, cost=50.0))
        assert cache.tier_of(101) == "memory"
        assert cache.counters.pinned_insertions == 1

    def test_oversize_for_memory_lands_on_disk(self):
        small = make_result(101).size_estimate()
        big = make_result(102, rows=64, pad=256)
        cache = make_cache(
            memory=int(small * 3), admission=self.admission()
        )
        assert big.size_estimate() > 0.5 * cache.memory_bytes  # premise
        verdict = cache.put(big, cost=500.0)
        assert verdict.admitted and not verdict.pinned
        assert cache.tier_of(102) == "disk"
        got = cache.get(102)
        assert got is not None and got.rows() == big.rows()

    def test_disk_hit_keeps_an_oversize_for_memory_entry_on_disk(self):
        result = make_result(101, cost=500.0)
        store = SQLiteResultStore()
        cache = make_cache(
            memory=int(result.size_estimate() * 1.5),
            admission=self.admission(),
            disk_store=store,
        )
        cache.put(result)
        assert cache.tier_of(101) == "disk"  # premise: over max_entry_fraction
        got = cache.get(101)
        assert got is not None and got.rows() == result.rows()
        assert cache.counters.disk_hits == 1
        assert cache.counters.promotions == 0
        assert cache.tier_of(101) == "disk"
        (meta,) = store.load_metadata()
        assert meta.access_count == 1  # the hit was still recorded

    def test_oversize_for_both_tiers_rejected(self):
        cache = make_cache(memory=256, disk=512, admission=self.admission())
        verdict = cache.put(make_result(101, rows=64, pad=256, cost=500.0))
        assert not verdict.admitted or cache.tier_of(101) is None
        assert cache.counters.rejected_oversize == 1

    def test_default_admission_is_cost_aware(self):
        cache = TieredZoomInCache()
        assert isinstance(cache.admission, CostAwareAdmission)


class TestWarmRestart:
    def test_disk_tier_repopulates_from_store(self, tmp_path):
        path = str(tmp_path / "cache.db")
        store = SQLiteResultStore(path)
        # memory_bytes=1 forces every entry through the disk tier.
        cache = make_cache(memory=1, disk=10**6, disk_store=store)
        for qid in (101, 102):
            cache.put(make_result(qid))
        assert cache.tier_of(101) == "disk"
        store.close()

        reopened = SQLiteResultStore(path)
        warm = make_cache(memory=64 * 1024, disk=10**6, disk_store=reopened)
        assert warm.counters.warm_loaded == 2
        assert sorted(warm.resident_qids()) == [101, 102]
        got = warm.get(101)
        assert got is not None
        assert got.rows() == make_result(101).rows()
        assert warm.counters.disk_hits == 1
        reopened.close()

    def test_warm_start_sheds_overflow_of_a_shrunk_budget(self, tmp_path):
        path = str(tmp_path / "cache.db")
        store = SQLiteResultStore(path)
        cache = make_cache(memory=1, disk=10**6, disk_store=store)
        sizes = {}
        for qid in (101, 102, 103):
            cache.put(make_result(qid))
        for meta in store.load_metadata():
            sizes[meta.qid] = meta.size_bytes
        store.close()

        reopened = SQLiteResultStore(path)
        budget = int(sum(sizes.values()) - min(sizes.values()) / 2)
        warm = make_cache(memory=1, disk=budget, disk_store=reopened)
        assert warm.counters.disk_evictions >= 1
        assert warm.disk_bytes_used <= budget
        reopened.close()


def assert_stampede_computes_once(cache, bind, make) -> None:
    """Eight threads miss one cold qid at once; the query runs once.

    ``bind(compute)`` returns a lookup that runs ``compute`` on a miss
    and returns the cache source it was served from; ``make()`` builds
    the recomputed result.
    """
    gate = threading.Barrier(8)
    calls: list[int] = []
    call_lock = threading.Lock()

    def compute():
        with call_lock:
            calls.append(1)
        # Hold the flight open long enough for the other threads,
        # already past the barrier, to pile onto it.
        time.sleep(0.2)
        return make()

    lookup = bind(compute)
    outcomes: list[str] = []
    out_lock = threading.Lock()

    def worker():
        gate.wait(timeout=30)
        source = lookup()
        with out_lock:
            outcomes.append(source)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    # The hard guarantee: the query ran exactly once.
    assert len(calls) == 1
    assert outcomes.count("recomputed") == 1
    assert cache.counters.recomputes == 1
    # The rest coalesced onto the flight (or, if the scheduler was
    # very unfair, hit the already-landed result — never recomputed).
    assert outcomes.count("coalesced") >= 1
    assert set(outcomes) <= {"recomputed", "coalesced", "memory"}


class TestSingleFlight:
    def test_stampede_computes_exactly_once(self):
        cache = make_cache()
        assert_stampede_computes_once(
            cache,
            lambda compute: lambda: cache.get_or_compute(404, compute)[1],
            lambda: make_result(404),
        )

    def test_executor_stampede_computes_exactly_once(self):
        """The same stampede as ZOOMIN commands through the executor."""
        notes = InsightNotes()
        notes.create_table("T", ["C1"])
        notes.insert("T", ("x",))
        notes.define_classifier("NB", ["refute", "approve"], [
            ("value is wrong", "refute"),
            ("looks correct", "approve"),
        ])
        notes.link("NB", "T")
        notes.add_annotation("value is wrong", table="T", row_id=1)
        cache = make_cache()

        def bind(compute):
            executor = ZoomInExecutor(
                notes.annotations, cache, lambda qid: compute()
            )
            return lambda: executor.execute(
                "ZOOMIN REFERENCE QID = 404 ON NB"
            ).source

        def make():
            fresh = notes.query("SELECT C1 FROM T")
            fresh.qid = 404
            return fresh

        try:
            assert_stampede_computes_once(cache, bind, make)
        finally:
            notes.close()

    def test_leader_failure_propagates_to_followers(self):
        cache = make_cache()
        gate = threading.Barrier(4)
        errors: list[BaseException] = []
        err_lock = threading.Lock()

        def compute():
            raise RuntimeError("source table vanished")

        def worker():
            gate.wait()
            try:
                cache.get_or_compute(404, compute)
            except RuntimeError as exc:
                with err_lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 4
        # A failed flight leaves nothing behind; the next call retries.
        result, source = cache.get_or_compute(404, lambda: make_result(404))
        assert source == "recomputed"
        assert result.qid == 404

    def test_hit_skips_the_flight_machinery(self):
        cache = make_cache()
        cache.put(make_result(101))
        result, source = cache.get_or_compute(
            101, lambda: pytest.fail("must not recompute")
        )
        assert source == "memory"
        assert result.qid == 101

    def test_unrelated_qids_use_different_stripes(self):
        cache = make_cache(n_stripes=4)
        for qid in range(200, 208):
            _, source = cache.get_or_compute(
                qid, lambda qid=qid: make_result(qid)
            )
            assert source == "recomputed"
        assert cache.counters.recomputes == 8


class TestTraceEvents:
    def test_cache_events_land_on_the_trace(self):
        traces = TraceStore()
        one = make_result(101).size_estimate()
        cache = make_cache(memory=int(one * 1.5), trace_store=traces)
        first = make_result(101)
        traces.record_query(first)
        cache.put(first)
        second = make_result(102)
        traces.record_query(second)
        cache.put(second)  # demotes 101
        cache.get(101)  # disk hit + promote (demotes 102)
        kinds_101 = [e.kind for e in traces.get(101).cache_events]
        assert "admit" in kinds_101
        assert "demote" in kinds_101
        assert "hit-disk" in kinds_101
        assert "promote" in kinds_101
