"""RCO beats a classical policy at equal bytes (EXP-Z2, PAPER.md §1 item 4).

Replays the full-size EXP-Z2 zoom-in stream — 8 birds, 16 sightings and
20 annotations per row (seed 61), 14 mixed queries from
``QueryWorkload(seed=5)``, 150 Zipf(1.2) zoom-ins (seed 19) — through a
:class:`ZoomInExecutor` over the two-tier cache the session runs, once
with RCO replacement and once with LRU, both under the cache's one
admission rule (every result that fits is admitted), at two memory/disk
budgets cut from the working set's footprint.  RCO must match LRU's hit
ratio to within 0.02 and clear 0.35 at both.

The replay is single-threaded, so the hit ratios are deterministic:
RCO reads 0.680 against LRU's 0.493 at the tight budget and 0.773
against 0.633 at the mid one.  The gate keeps the full size, though a
quick replay agrees: at 4 birds, 8 sightings, 10 annotations per row,
8 queries and 60 zoom-ins RCO reads 0.633 against LRU's 0.533 at both
budgets (DESIGN.md §14).
"""

from __future__ import annotations

import pytest

from repro.workloads import QueryWorkload, WorkloadConfig, build_workload
from repro.workloads.zoomin_workload import ZoomInWorkload
from repro.zoomin.executor import ZoomInExecutor
from repro.zoomin.policies import LRUPolicy
from repro.zoomin.rco import RCOPolicy
from repro.zoomin.tiered import TieredZoomInCache

#: (memory, disk) budgets as fractions of the results' in-memory bytes:
#: ``tight`` holds the head of the Zipf distribution only, ``mid`` the
#: hot set but not the tail.
BUDGETS = {"tight": (0.15, 0.3), "mid": (0.2, 0.4)}


@pytest.fixture(scope="module")
def replay_state():
    session = build_workload(
        WorkloadConfig(
            num_birds=8, num_sightings=16, annotations_per_row=20, seed=61
        )
    ).session
    sqls: dict[int, str] = {}
    total_bytes = 0
    for query in QueryWorkload(seed=5).mixed(14):
        result = session.query(query.sql)
        sqls[result.qid] = query.sql
        total_bytes += result.size_estimate()
    commands = [
        reference.command_text()
        for reference in ZoomInWorkload(
            qids=sorted(sqls),
            instances=["ClassBird1", "ClassBird2", "SimCluster"],
            exponent=1.2,
            max_index=3,
            seed=19,
        ).stream(150)
    ]
    yield session, sqls, total_bytes, commands
    session.close()


def replay(replay_state, policy, fractions) -> float:
    """Hit ratio of one single-threaded replay against a fresh cache."""
    session, sqls, total_bytes, commands = replay_state
    memory_fraction, disk_fraction = fractions
    cache = TieredZoomInCache(
        memory_bytes=max(4096, int(total_bytes * memory_fraction)),
        disk_bytes=max(8192, int(total_bytes * disk_fraction)),
        policy=policy,
    )

    def recompute(qid: int):
        fresh = session.query(sqls[qid])
        fresh.qid = qid  # keep the stream's identity
        return fresh

    executor = ZoomInExecutor(session.annotations, cache, recompute)
    for command in commands:
        executor.execute(command)
    cache.close()
    return cache.counters.hit_ratio


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_rco_matches_lru_at_equal_bytes(replay_state, budget):
    rco = replay(replay_state, RCOPolicy(), BUDGETS[budget])
    lru = replay(replay_state, LRUPolicy(), BUDGETS[budget])
    assert rco >= lru - 0.02, f"{budget}: RCO {rco:.3f} below LRU {lru:.3f}"
    assert rco >= 0.35, f"{budget}: RCO {rco:.3f} below the 0.35 floor"
