"""Tests for the structured query-tracing layer."""

from __future__ import annotations

from repro import InsightNotes
from repro.zoomin.tracing import (
    CacheEvent,
    TraceStore,
    plan_fingerprint,
)
from tests.conftest import TRAINING


class TestPlanFingerprint:
    def test_whitespace_insensitive(self):
        assert plan_fingerprint("Scan(t)\n  Hydrate(t)") == plan_fingerprint(
            "Scan(t)   Hydrate(t)"
        )

    def test_different_plans_differ(self):
        assert plan_fingerprint("Scan(a)") != plan_fingerprint("Scan(b)")

    def test_short_stable_hex(self):
        fingerprint = plan_fingerprint("Scan(t)")
        assert len(fingerprint) == 12
        assert fingerprint == plan_fingerprint("Scan(t)")
        int(fingerprint, 16)  # hex, no raise


class TestTraceStore:
    def _result(self, qid):
        from repro.engine.results import QueryResult

        return QueryResult(
            qid=qid, columns=("a",), tuples=[], plan_text=f"Scan(t{qid})"
        )

    def test_bounded_oldest_first(self):
        store = TraceStore(capacity=2)
        for qid in (1, 2, 3):
            store.record_query(self._result(qid))
        assert store.qids() == [2, 3]
        assert store.get(1) is None

    def test_events_on_aged_out_trace_are_dropped(self):
        store = TraceStore(capacity=1)
        store.record_query(self._result(1))
        store.record_query(self._result(2))
        store.record_event(1, CacheEvent("evict"))  # no raise, no effect
        assert store.get(1) is None
        store.record_event(2, CacheEvent("admit", tier="memory"))
        assert [e.kind for e in store.get(2).cache_events] == ["admit"]

    def test_to_json_round_trip(self):
        import json

        store = TraceStore()
        store.record_query(self._result(7))
        store.record_event(7, CacheEvent("admit", tier="memory", detail="x"))
        payload = store.to_json(7)
        json.dumps(payload)  # no raise
        assert payload["qid"] == 7
        assert payload["fingerprint"] == plan_fingerprint("Scan(t7)")
        assert payload["cache_events"] == [
            {"kind": "admit", "tier": "memory", "detail": "x"}
        ]
        assert store.to_json(404) is None


class TestSessionTracing:
    def _populated(self, **kwargs):
        notes = InsightNotes(**kwargs)
        notes.create_table("birds", ["name", "weight"])
        notes.insert_many("birds", [(f"b{i}", float(i)) for i in range(8)])
        notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
        notes.link("C", "birds")
        notes.add_annotation(
            "observed feeding on stonewort", table="birds", row_id=1
        )
        return notes

    def test_trace_covers_plan_execution_and_cache(self):
        notes = self._populated(cache_disk_bytes=1024 * 1024)
        result = notes.query("SELECT name FROM birds", trace=True)
        notes.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON C INDEX 1")
        trace = notes.trace(result.qid)
        assert trace is not None
        assert trace["qid"] == result.qid
        assert trace["sql"] == "SELECT name FROM birds"
        assert trace["fingerprint"] == plan_fingerprint(result.plan_text)
        assert trace["cost_estimate"] > 0
        assert trace["execution"]["rows_scanned"] == 8
        # trace=True recorded inclusive per-operator timings.
        operators = {t["operator"] for t in trace["operator_timings"]}
        assert any("Scan" in op for op in operators)
        assert all(t["seconds"] >= 0 for t in trace["operator_timings"])
        # The cache's view of the result's life so far.
        kinds = [e["kind"] for e in trace["cache_events"]]
        assert kinds[0] == "admit"
        assert "hit-memory" in kinds
        notes.close()

    def test_untraced_query_has_no_operator_timings(self):
        notes = self._populated(cache_disk_bytes=1024 * 1024)
        result = notes.query("SELECT name FROM birds")
        trace = notes.trace(result.qid)
        assert trace["operator_timings"] == []
        assert trace["fingerprint"]
        notes.close()

    def test_single_tier_session_traces_too(self):
        notes = self._populated()  # default cache, no disk tier
        result = notes.query("SELECT name FROM birds")
        trace = notes.trace(result.qid)
        assert trace is not None and trace["qid"] == result.qid
        assert [e["kind"] for e in trace["cache_events"]] == ["admit"]
        assert notes.trace(424242) is None
        notes.close()

    def test_disk_less_eviction_lands_on_the_victims_trace(self):
        probe = self._populated()
        one = probe.query("SELECT name FROM birds").size_estimate()
        probe.close()
        notes = self._populated(cache_bytes=int(one * 1.5))
        first = notes.query("SELECT name FROM birds")
        notes.query("SELECT name FROM birds")  # evicts the first result
        assert notes.trace(first.qid)["cache_events"] == [
            {"kind": "admit", "tier": "memory", "detail": "admitted"},
            {"kind": "evict", "tier": "memory", "detail": "capacity"},
        ]
        notes.close()

    def test_trace_history_is_bounded(self):
        notes = self._populated()
        results = [notes.query("SELECT name FROM birds") for _ in range(3)]
        store = TraceStore(capacity=2)
        for result in results:
            store.record_query(result)
        assert store.to_json(results[0].qid) is None
        assert store.to_json(results[2].qid) is not None
        notes.close()

    def test_statistics_expose_unified_zoomin_counters(self):
        notes = self._populated(cache_disk_bytes=1024 * 1024)
        result = notes.query("SELECT name FROM birds")
        notes.zoomin(f"ZOOMIN REFERENCE QID = {result.qid} ON C INDEX 1")
        stats = notes.statistics()
        zoomin = stats["zoomin"]
        assert zoomin["memory_hits"] == 1
        assert zoomin["insertions"] >= 1
        assert {
            "misses", "demotions", "promotions", "rejected_oversize"
        } <= set(zoomin)
        assert zoomin["tiers"]["disk"]["capacity_bytes"] == 1024 * 1024
        assert stats["traces_retained"] >= 1
        notes.close()
