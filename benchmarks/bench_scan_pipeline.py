"""EXP-SP1 — Scan pipeline: block prefetch vs. per-row loading.

The block-oriented scan loads each block's summary objects and attachment
maps in bulk (chunked IN-list queries) and serves repeats from the
summary manager's object cache.  The "before" configuration —
``planner.scan_block_size = 1`` with the caches emptied before every
query — reproduces the per-row path the scan used previously.

Shape expected: the blocked pipeline issues at least 5x fewer SQLite
statements on a full-table scan and wins wall-clock on the SPJ workload;
the gap grows with the annotations-per-tuple ratio because every
annotation inflates the summary payloads deserialized per row.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import time_call, write_report
from repro.engine.session import InsightNotes
from repro.workloads import WorkloadConfig, build_workload

SCAN_SQL = "SELECT name, species, region, weight FROM birds"
SPJ_SQL = (
    "SELECT b.name, b.species, s.observer FROM birds b, sightings s "
    "WHERE b.species = s.species"
)
GROUP_SQL = "SELECT species, count(*) FROM birds GROUP BY species"

BENCH_RATIOS = (30, 120)

_WORKLOADS: dict[tuple[int, str], object] = {}


def _workload(ratio: int, mode: str):
    """A generated workload in ``blocked`` or ``per_row`` configuration."""
    key = (ratio, mode)
    if key not in _WORKLOADS:
        session = InsightNotes()
        if mode == "per_row":
            session.planner.scan_block_size = 1
        _WORKLOADS[key] = build_workload(
            WorkloadConfig(
                num_birds=16,
                num_sightings=32,
                annotations_per_row=ratio,
                document_fraction=0.02,
                seed=29,
            ),
            session=session,
        )
    return _WORKLOADS[key]


def _query(workload, sql: str):
    """Run ``sql``; the per-row configuration reads storage every time."""
    session = workload.session
    if session.planner.scan_block_size == 1:
        session.manager.drop_caches()
    return session.query(sql)


@pytest.mark.parametrize("ratio", BENCH_RATIOS)
@pytest.mark.parametrize("mode", ("blocked", "per_row"))
def test_scan(benchmark, ratio, mode):
    workload = _workload(ratio, mode)
    benchmark.extra_info.update(ratio=ratio, mode=mode)
    benchmark(lambda: _query(workload, SCAN_SQL))


@pytest.mark.parametrize("ratio", BENCH_RATIOS)
@pytest.mark.parametrize("mode", ("blocked", "per_row"))
def test_spj(benchmark, ratio, mode):
    workload = _workload(ratio, mode)
    benchmark.extra_info.update(ratio=ratio, mode=mode)
    benchmark(lambda: _query(workload, SPJ_SQL))


def test_report_series(benchmark):
    """Regenerates the roundtrip/time series and checks its shape."""
    rows = []
    for ratio in BENCH_RATIOS:
        blocked = _workload(ratio, "blocked")
        per_row = _workload(ratio, "per_row")
        blocked.session.manager.drop_caches()
        with blocked.session.db.track_queries() as fast:
            blocked.session.query(SCAN_SQL)
        with per_row.session.db.track_queries() as slow:
            _query(per_row, SCAN_SQL)
        blocked_spj = time_call(lambda: blocked.session.query(SPJ_SQL))
        per_row_spj = time_call(lambda: _query(per_row, SPJ_SQL))
        rows.append(
            (
                f"{ratio}x",
                fast.count,
                slow.count,
                slow.count / max(1, fast.count),
                blocked_spj * 1000,
                per_row_spj * 1000,
                per_row_spj / blocked_spj,
            )
        )
        # The tentpole targets: >=5x fewer roundtrips on the full scan
        # and a wall-clock win on SPJ propagation.
        assert slow.count >= 5 * fast.count
        assert blocked_spj < per_row_spj
    write_report(
        "exp_sp1_scan_pipeline",
        "EXP-SP1: block-prefetch scan vs per-row loading",
        ["ratio", "blocked stmts", "per-row stmts", "stmt ratio",
         "blocked SPJ ms", "per-row SPJ ms", "speedup"],
        rows,
    )
    benchmark(lambda: None)  # register with --benchmark-only runs
