"""Property test: cached zoom-ins are byte-identical to recomputed ones.

The tiered cache's contract is that it is *purely* a performance
optimization: a zoom-in served from the memory tier, served from the
disk tier (through JSON serialization and back), or recomputed after an
invalidation — a real re-execution of the recorded plan, merges
included — must produce exactly the same expansion over unchanged data:
same matches, same components, same raw annotation text, down to the
serialized byte.  Hypothesis drives the comparison across all five
summary types and over a selection, a GROUP BY and a self-join, against
two identically-populated sessions, one whose results live in the
memory tier and one whose memory budget of a single byte forces every
result through the disk tier.

The annotation corpus deliberately includes non-ASCII text so the
disk tier's UTF-8 round trip is part of what byte-identity covers.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import InsightNotes
from repro.summaries.registry import extended_registry
from tests.conftest import TRAINING

_TYPES = [
    ("Classifier", {"labels": ["Behavior", "Disease"]}),
    ("Cluster", {"threshold": 0.3}),
    ("Snippet", {"max_sentences": 2}),
    ("Terms", {"top_k": 5}),
    ("Timeline", {"bucket_seconds": 60}),
]

_INSTANCES = [f"{name}Id" for name, _ in _TYPES]

_TEXTS = [
    "observed feeding stonewort near the shore",
    "symptoms of avian pox in the flock",
    "Anser cygnoïdes — 鸿雁 — banded during molt",
    "diving for insects at dawn in the reeds",
]


def _build(memory_bytes: int) -> InsightNotes:
    notes = InsightNotes(
        registry=extended_registry(),
        cache_bytes=memory_bytes,
        cache_disk_bytes=1 << 24,
    )
    notes.create_table("birds", ["name", "species", "weight"])
    row_ids = notes.insert_many(
        "birds",
        [(f"b{i}", f"sp{i % 4}", (i * 7) % 10) for i in range(16)],
    )
    for type_name, config in _TYPES:
        name = f"{type_name}Id"
        instance = notes.catalog.define_instance(
            type_name, name, dict(config)
        )
        if type_name == "Classifier":
            instance.train(list(TRAINING))
            notes.catalog.save_instance_config(name)
        notes.link(name, "birds")
    # Every row carries a plain comment; every other row also carries a
    # document annotation so the Snippet type (documents_only) has
    # something to extract from.
    specs = [
        {
            "text": _TEXTS[i % len(_TEXTS)],
            "table": "birds",
            "row_id": row_id,
            "created_at": float(45 * i),
        }
        for i, row_id in enumerate(row_ids)
    ]
    specs.extend(
        {
            "text": (
                "Field report for the flock. "
                + " ".join(_TEXTS[: 1 + i % len(_TEXTS)])
                + "."
            ),
            "table": "birds",
            "row_id": row_id,
            "document": True,
            "title": f"report-{i}",
            "created_at": float(100 + 45 * i),
        }
        for i, row_id in enumerate(row_ids[::2])
    )
    notes.add_annotations(specs)
    notes.analyze()
    return notes


def canonical(zoom) -> bytes:
    """The zoom-in's wire payload minus the fields that *name* where it
    came from (source, cache_hit) and how long it took — everything a
    client renders must be byte-for-byte stable across tiers."""
    payload = zoom.to_json()
    payload.pop("source")
    payload.pop("cache_hit")
    payload["elapsed_seconds"] = 0.0
    return json.dumps(
        payload, sort_keys=True, ensure_ascii=False
    ).encode("utf-8")


#: A selection, a GROUP BY and a self-join: the last two merge summaries,
#: so the recomputed leg re-runs the merges and must reproduce them.
_QUERIES = [
    "SELECT name, weight FROM birds WHERE weight > {threshold}",
    "SELECT species, COUNT(*) FROM birds WHERE weight > {threshold} "
    "GROUP BY species",
    "SELECT a.name, b.name FROM birds a JOIN birds b "
    "ON a.species = b.species WHERE a.weight > {threshold}",
]

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCacheByteIdentity:
    @pytest.fixture(scope="class")
    def pair(self):
        # Both sessions execute the identical statement stream, so
        # their qid sequences stay in lockstep and zoom-in commands
        # (which embed the qid) render identically.
        mem = _build(memory_bytes=1 << 22)
        disk = _build(memory_bytes=1)
        yield mem, disk
        mem.close()
        disk.close()

    @given(
        instance=st.sampled_from(_INSTANCES),
        template=st.sampled_from(_QUERIES),
        threshold=st.integers(min_value=0, max_value=8),
    )
    @_SETTINGS
    def test_tiers_and_recompute_agree_to_the_byte(
        self, pair, instance, template, threshold
    ):
        mem, disk = pair
        sql = template.format(threshold=threshold)
        payloads = []
        for notes, tier in ((mem, "memory"), (disk, "disk")):
            qid = notes.query(sql).qid
            command = f"ZOOMIN REFERENCE QID = {qid} ON {instance}"
            cached = notes.zoomin(command)
            assert cached.source == tier
            assert cached.cache_hit
            notes.cache.invalidate(qid)
            recomputed = notes.zoomin(command)
            assert recomputed.source == "recomputed"
            assert not recomputed.cache_hit
            payloads.append(canonical(cached))
            payloads.append(canonical(recomputed))
        assert len(set(payloads)) == 1  # all four byte-identical

    def test_every_type_zooms_identically_once(self, pair):
        """Deterministic sweep: one zoom-in per summary type carrying
        raw annotations, memory tier vs disk tier vs recompute."""
        mem, disk = pair
        for instance in _INSTANCES:
            qid_mem = mem.query("SELECT name FROM birds").qid
            qid_disk = disk.query("SELECT name FROM birds").qid
            assert qid_mem == qid_disk
            command = f"ZOOMIN REFERENCE QID = {qid_mem} ON {instance}"
            zm, zd = mem.zoomin(command), disk.zoomin(command)
            assert (zm.source, zd.source) == ("memory", "disk")
            assert zm.annotation_count() == zd.annotation_count() > 0
            assert canonical(zm) == canonical(zd)
