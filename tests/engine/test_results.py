"""Tests for repro.engine.results."""

import pytest

from repro import InsightNotes
from repro.engine import plan as lp
from repro.engine.results import PlanRecord, QueryResult, ResultRegistry
from repro.errors import UnknownQueryIdError
from repro.model.tuple import AnnotatedTuple
from repro.summaries.classifier import ClassifierSummary
from repro.zoomin.tiered import TieredZoomInCache

_PLAN = lp.Scan("t", "t")


def make_result(qid: int, rows: int = 2) -> QueryResult:
    tuples = []
    for i in range(rows):
        summary = ClassifierSummary("C", ["a"])
        summary.add(i + 1, "a")
        tuples.append(
            AnnotatedTuple(values=(i, f"text{i}"), summaries={"C": summary})
        )
    return QueryResult(qid=qid, columns=("t.n", "t.s"), tuples=tuples)


class TestQueryResult:
    def test_len_and_rows(self):
        result = make_result(1, rows=3)
        assert len(result) == 3
        assert result.rows()[0] == (0, "text0")

    def test_column_index(self):
        result = make_result(1)
        assert result.column_index("s") == 1
        assert result.column_index("t.n") == 0

    def test_size_estimate_grows_with_rows(self):
        assert make_result(1, rows=10).size_estimate() > make_result(
            1, rows=1
        ).size_estimate()

    def test_summary_instances(self):
        assert make_result(1).summary_instances() == ["C"]


def memory_cache(memory_bytes: int) -> TieredZoomInCache:
    """The session's cache shape: memory tier only, admit what fits."""
    return TieredZoomInCache(memory_bytes=memory_bytes, disk_bytes=0)


class TestResultRegistry:
    """The registry allocates qids and records plans; results live only
    in the zoom-in cache, whose memory tier is the one byte budget."""

    def test_qids_start_at_101(self):
        registry = ResultRegistry()
        assert registry.next_qid() == 101
        assert registry.next_qid() == 102

    def test_register_and_get(self):
        registry = ResultRegistry()
        qid = registry.next_qid()
        registry.register(qid, _PLAN, "SELECT n FROM t")
        assert registry.plan(qid) == PlanRecord(_PLAN, "SELECT n FROM t")
        assert qid in registry
        assert not any(
            isinstance(value, QueryResult) for value in vars(registry).values()
        )

    def test_get_unknown_raises(self):
        registry = ResultRegistry()
        with pytest.raises(UnknownQueryIdError):
            registry.plan(999)

    def test_capacity_evicts_oldest(self):
        registry = ResultRegistry(capacity=2)
        qids = [registry.next_qid() for _ in range(3)]
        for qid in qids:
            registry.register(qid, _PLAN)
        assert len(registry) == 2
        assert qids[0] not in registry
        assert qids[2] in registry
        with pytest.raises(UnknownQueryIdError):
            registry.plan(qids[0])

    def test_latest(self):
        # The newest record always survives the bound.
        registry = ResultRegistry(capacity=1)
        first, second = registry.next_qid(), registry.next_qid()
        registry.register(first, _PLAN)
        registry.register(second, _PLAN, "newest")
        assert first not in registry
        assert registry.plan(second).sql == "newest"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultRegistry(capacity=0)

    def test_invalid_capacity_bytes(self):
        with pytest.raises(ValueError, match="memory_bytes"):
            memory_cache(0)

    def test_byte_budget_evicts_oldest(self):
        # A byte budget that holds ~3 of the 10-row results: the memory
        # tier must respect it, dropping the oldest (equal cost and size,
        # so RCO falls back to recency).
        size = make_result(1, rows=10).size_estimate()
        cache = memory_cache(3 * size)
        results = [make_result(qid, rows=10) for qid in range(101, 107)]
        for result in results:
            cache.put(result)
        assert len(cache) == 3
        assert cache.memory_bytes_used <= 3 * size
        for stale in results[:3]:
            assert stale.qid not in cache
        for kept in results[3:]:
            assert kept.qid in cache

    def test_huge_newest_result_is_retained(self):
        # A result alone over the budget is not cached, yet its qid stays
        # addressable: the session re-executes the recorded plan.
        with InsightNotes(cache_bytes=64) as notes:
            notes.create_table("t", ["n", "s"])
            notes.insert_many("t", [(i, f"text{i}") for i in range(50)])
            big = notes.query("SELECT n, s FROM t")
            assert big.size_estimate() > 64
            assert big.qid not in notes.cache
            again = notes.result(big.qid)
            assert again is not big
            assert again.qid == big.qid
            assert again.rows() == big.rows()

    def test_byte_accounting_tracks_evictions(self):
        size = make_result(1, rows=4).size_estimate()
        cache = memory_cache(2 * size)
        for qid in range(101, 106):
            cache.put(make_result(qid, rows=4))
        assert len(cache) == 2
        assert cache.memory_bytes_used == 2 * size

    def test_reregistering_same_qid_does_not_double_count(self):
        cache = memory_cache(1 << 20)
        result = make_result(101, rows=4)
        cache.put(result)
        once = cache.memory_bytes_used
        cache.put(result)
        assert cache.memory_bytes_used == once
        assert len(cache) == 1
        registry = ResultRegistry()
        registry.register(101, _PLAN)
        registry.register(101, _PLAN)
        assert len(registry) == 1
