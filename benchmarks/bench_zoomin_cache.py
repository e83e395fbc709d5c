"""EXP-Z1 — Zoom-in performance under the RCO cache policy.

Replays a Zipf-skewed zoom-in reference stream (interactive users keep
drilling into a few hot results) over a constrained result cache, for RCO
against LRU / LFU / FIFO / SIZE and a no-cache lower bound, sweeping the
cache size.  A miss re-executes the referenced query — exactly the cost
the materialization cache exists to avoid (§2.2).

Shape expected: every policy beats no-cache; RCO matches or beats the
classical policies on hit ratio and total latency at constrained sizes,
because it also weighs recomputation cost and result size; all policies
converge once the cache is large enough to hold everything.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import time_call, write_report
from repro.workloads import QueryWorkload, WorkloadConfig, build_workload
from repro.workloads.zoomin_workload import ZoomInWorkload
from repro.zoomin.executor import ZoomInExecutor
from repro.zoomin.policies import FIFOPolicy, LFUPolicy, LRUPolicy, SizePolicy
from repro.zoomin.rco import RCOPolicy
from repro.zoomin.stores import SQLiteResultStore
from repro.zoomin.tiered import TieredZoomInCache

POLICIES = {
    "RCO": RCOPolicy,
    "LRU": LRUPolicy,
    "LFU": LFUPolicy,
    "FIFO": FIFOPolicy,
    "SIZE": SizePolicy,
}

STREAM_LENGTH = 150
QUERY_COUNT = 14

_STATE: dict[str, object] = {}


def _setup():
    """Workload + query log + zoom-in stream, built once."""
    if _STATE:
        return _STATE
    workload = build_workload(
        WorkloadConfig(
            num_birds=8,
            num_sightings=16,
            annotations_per_row=20,
            seed=61,
        )
    )
    session = workload.session
    queries = QueryWorkload(seed=5)
    sqls: dict[int, str] = {}
    results: dict[int, object] = {}
    for query in queries.mixed(QUERY_COUNT):
        result = session.query(query.sql)
        sqls[result.qid] = query.sql
        results[result.qid] = result
    stream = ZoomInWorkload(
        qids=sorted(sqls),
        instances=["ClassBird1", "ClassBird2", "SimCluster"],
        exponent=1.2,
        max_index=3,
        seed=19,
    ).stream(STREAM_LENGTH)
    _STATE.update(session=session, sqls=sqls, results=results, stream=stream)
    return _STATE


def _replay(policy_factory, capacity_fraction: float):
    """Replay the stream against a fresh cache; returns (cache, misses)."""
    state = _setup()
    session = state["session"]
    sqls = state["sqls"]

    total_bytes = sum(
        result.size_estimate() for result in state["results"].values()
    )
    capacity = max(1024, int(total_bytes * capacity_fraction))
    cache = TieredZoomInCache(
        memory_bytes=capacity,
        disk_bytes=0,
        policy=policy_factory(),
    )

    def recompute(qid: int):
        # A miss re-runs the query (the result registry plays the role of
        # the database here; re-parsing and re-executing is the honest
        # recompute cost).
        fresh = session.query(sqls[qid])
        fresh.qid = qid  # keep the stream's identity
        return fresh

    executor = ZoomInExecutor(session.annotations, cache, recompute)
    for reference in state["stream"]:
        executor.execute(reference.command_text())
    return cache


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_replay_policy(benchmark, policy_name):
    _setup()
    benchmark.extra_info["policy"] = policy_name
    benchmark.pedantic(
        lambda: _replay(POLICIES[policy_name], capacity_fraction=0.3),
        rounds=3,
        iterations=1,
    )


def test_report_series(benchmark):
    rows = []
    hit_ratios: dict[tuple[str, float], float] = {}
    times: dict[tuple[str, float], float] = {}
    for fraction in (0.15, 0.3, 0.6, 1.0):
        for name in POLICIES:
            seconds = time_call(
                lambda: _replay(POLICIES[name], fraction), repeats=1
            )
            counters = _replay(POLICIES[name], fraction).counters
            hit_ratios[(name, fraction)] = counters.hit_ratio
            times[(name, fraction)] = seconds
            rows.append(
                (f"{fraction:.2f}", name, counters.hit_ratio,
                 counters.memory_evictions, seconds * 1000)
            )
        # no-cache lower bound: every reference recomputes
        no_cache = time_call(
            lambda: _replay(lambda: LRUPolicy(), 1e-9), repeats=1
        )
        rows.append((f"{fraction:.2f}", "none", 0.0, 0, no_cache * 1000))
    write_report(
        "exp_z1_zoomin_cache",
        "EXP-Z1: zoom-in stream replay (hit ratio / evictions / total ms)",
        ["capacity", "policy", "hit ratio", "evictions", "total ms"],
        rows,
    )
    # Shape: at the constrained sizes RCO is at least as good as the
    # classical baselines on hit ratio.
    for fraction in (0.15, 0.3):
        rco = hit_ratios[("RCO", fraction)]
        for name in ("LRU", "LFU", "FIFO", "SIZE"):
            assert rco >= hit_ratios[(name, fraction)] - 0.02
    # At full capacity everything converges.
    full = {hit_ratios[(name, 1.0)] for name in POLICIES}
    assert max(full) - min(full) < 0.05
    benchmark(lambda: None)


def test_disk_store_variant(benchmark):
    """The paper's disk-based materialization: RCO over a SQLite store.

    The disk variant gets a one-byte memory tier, so every result goes
    straight to SQLite.  Hit ratios must match the memory-only cache
    closely (replacement logic is storage-agnostic); latency differs by
    the serialization cost.
    """
    state = _setup()
    session = state["session"]
    sqls = state["sqls"]
    total_bytes = sum(r.size_estimate() for r in state["results"].values())

    def replay_with_store(store=None):
        capacity = max(1024, int(total_bytes * 0.5))
        on_disk = store is not None
        cache = TieredZoomInCache(
            memory_bytes=1 if on_disk else capacity,
            disk_bytes=capacity if on_disk else 0,
            policy=RCOPolicy(),
            disk_store=store,
        )

        def recompute(qid: int):
            fresh = session.query(sqls[qid])
            fresh.qid = qid
            return fresh

        executor = ZoomInExecutor(session.annotations, cache, recompute)
        for reference in state["stream"]:
            executor.execute(reference.command_text())
        return cache

    memory_seconds = time_call(lambda: replay_with_store(None), repeats=1)
    disk_seconds = time_call(
        lambda: replay_with_store(
            SQLiteResultStore(registry=session.catalog.registry)
        ),
        repeats=1,
    )
    memory_cache = replay_with_store(None)
    disk_cache = replay_with_store(
        SQLiteResultStore(registry=session.catalog.registry)
    )
    write_report(
        "exp_z1_disk_store",
        "EXP-Z1 variant: in-memory vs disk-based (SQLite) result store",
        ["store", "hit ratio", "total ms"],
        [
            ("memory", memory_cache.counters.hit_ratio, memory_seconds * 1000),
            ("sqlite", disk_cache.counters.hit_ratio, disk_seconds * 1000),
        ],
    )
    # Replacement behaviour is storage-agnostic; note the charged sizes
    # differ (object estimate vs serialized bytes), so allow slack.
    assert abs(
        memory_cache.counters.hit_ratio - disk_cache.counters.hit_ratio
    ) < 0.15
    benchmark(lambda: None)


def test_rco_weight_ablation(benchmark):
    """DESIGN.md ablation: sweep RCO's factor weights."""
    from repro.zoomin.rco import RCOWeights

    variants = {
        "balanced": RCOWeights(),
        "recency-only": RCOWeights(frequency=0.0, complexity=0.0, overhead=0.0),
        "no-size-discount": RCOWeights(overhead=0.0),
        "cost-heavy": RCOWeights(complexity=3.0),
    }
    rows = []
    for name, weights in variants.items():
        counters = _replay(
            lambda w=weights: RCOPolicy(w), capacity_fraction=0.3
        ).counters
        rows.append((name, counters.hit_ratio, counters.memory_evictions))
    write_report(
        "exp_z1_rco_ablation",
        "EXP-Z1 ablation: RCO weight variants at 0.3x capacity",
        ["weights", "hit ratio", "evictions"],
        rows,
    )
    benchmark(lambda: None)
