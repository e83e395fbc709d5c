"""Zoom-in query processing.

After a query returns tuples with attached summary objects, users drill
back into the raw annotations behind a specific summary component — a
classifier label, a cluster group, or a snippet — with the ZOOMIN command
(§2.2, Figure 3):

    ZOOMIN REFERENCE QID = 101 WHERE C1 = 'x' ON NaiveBayesClass INDEX 1

Execution is served by one limited cache, :class:`TieredZoomInCache`, in
which query results compete for space under the **RCO** replacement
policy (Recency, Complexity, Overhead + zoom-in reference frequency): a
memory tier, optionally over a SQLite disk tier, that admits every
result that fits, with single-flight recompute.  LRU / LFU / FIFO /
size-based baselines are provided for the EXP-Z1 benchmark.
"""

from repro.zoomin.command import ZoomInCommand, parse_zoomin
from repro.zoomin.executor import ZoomInExecutor, ZoomInMatch, ZoomInResult
from repro.zoomin.policies import (
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    ReplacementPolicy,
    SizePolicy,
)
from repro.zoomin.rco import RCOPolicy, RCOWeights
from repro.zoomin.stores import SQLiteResultStore, StoredEntryMeta
from repro.zoomin.tiered import TieredZoomInCache, TierCounters
from repro.zoomin.tracing import (
    CacheEvent,
    QueryTrace,
    TraceStore,
    plan_fingerprint,
)

__all__ = [
    "CacheEvent",
    "FIFOPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "QueryTrace",
    "RCOPolicy",
    "RCOWeights",
    "ReplacementPolicy",
    "SQLiteResultStore",
    "SizePolicy",
    "StoredEntryMeta",
    "TieredZoomInCache",
    "TierCounters",
    "TraceStore",
    "ZoomInCommand",
    "ZoomInExecutor",
    "ZoomInMatch",
    "ZoomInResult",
    "parse_zoomin",
    "plan_fingerprint",
]
