"""Deterministic data and op-script generation.

Everything a run feeds the program is produced here, from ``--seed``,
before any timing starts: the base rows, the bulk annotation load and a
fixed list of operations.  The *skeleton* of a workload's script — the
order of op classes, the statement parameters, which earlier result a
zoom-in names — is the same for every seed; the seed decides the data:
which row holds which bird, every annotation text, and the rows each
annotation lands on.  What precedes what (and so which caches are warm,
which objects were just invalidated) therefore does not move with the
seed, and per-class medians repeat across seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.workloads import AnnotationFactory

from benchmarks.e2e.spec import (
    CLASSBIRD1_LABELS,
    CLASSIFIERS,
    CLUSTER,
    READ_CLASSES,
    ZOOM_WINDOW,
    ZOOM_ZIPF,
    Workload,
)

_BIRD_NAMES = (
    "Swan Goose", "Mute Swan", "Snow Goose", "Tundra Swan", "Canada Goose",
    "Trumpeter Swan", "Brant", "Barnacle Goose", "Ross Goose", "Whooper Swan",
)
_SPECIES = (
    "Anser cygnoides", "Cygnus olor", "Anser caerulescens",
    "Cygnus columbianus", "Branta canadensis", "Cygnus buccinator",
    "Branta bernicla", "Branta leucopsis", "Anser rossii", "Cygnus cygnus",
)
_REGIONS = (
    "northeast", "southeast", "midwest", "mountain", "pacific", "gulf",
    "plains", "lakes", "desert", "coastal", "boreal", "tundra",
)
_OBSERVERS = ("aria", "ben", "carla", "dmitri", "elena", "farid")
BIRD_COLUMNS = ("name", "species", "region", "weight")
SIGHTING_COLUMNS = ("species", "region", "observer", "count")

_WEIGHT_LO, _WEIGHT_SPAN = 1.2, 12.8
#: How many keep-fractions the ``select`` threshold grid has.  The grids
#: are small because the gate replays every distinct statement once, and
#: the run's time cap pays for that replay.
_SELECT_GRID = 3
#: Share of a region's rows (heaviest first) that curate's writes target.
_HOT_SHARE = 0.5
#: Document share of the bulk load and of ingest batches; single-column
#: share of the single-row comments.
_BULK_DOCS, _OP_DOCS, _COLUMN_SHARE = 0.02, 0.05, 0.3

#: Zoom-in instances that cannot fail: a classifier object always has its
#: four components (INDEX cycles 1-4); the cluster is expanded whole because
#: a projection may have emptied it (``INDEX 1`` on an empty object is an
#: error, and the contract asks for scripts on which no op fails).
_ZOOM_INSTANCES = (*CLASSIFIERS, CLUSTER)
_ZOOM_DETAILS = ("FULL", "FULL", "COUNT")
#: Spec kinds are dealt from a fixed pattern of this many slots.
_PATTERN = 100


@dataclass
class Script:
    """One workload's generated inputs."""

    workload: str
    seed: int
    birds: list[tuple[Any, ...]]
    sightings: list[tuple[Any, ...]]
    bulk: list[dict[str, Any]]
    ops: list[dict[str, Any]]

    def to_bytes(self) -> bytes:
        """Canonical serialisation: same seed => byte-identical."""
        lines = [
            json.dumps({"workload": self.workload, "seed": self.seed}),
            json.dumps({"birds": self.birds, "sightings": self.sightings}),
            *(json.dumps(spec, sort_keys=True) for spec in self.bulk),
            *(json.dumps(op, sort_keys=True) for op in self.ops),
        ]
        return ("\n".join(lines) + "\n").encode()


def _cycle(plan: random.Random, grid: list[Any], count: int) -> list[Any]:
    """``count`` values that cover ``grid`` evenly, in a shuffled order."""
    fixed = list(grid)
    plan.shuffle(fixed)
    out = [fixed[k % len(fixed)] for k in range(count)]
    plan.shuffle(out)
    return out


def _tables(w: Workload, rng: random.Random) -> tuple[list, list, dict[str, list[int]]]:
    """Balanced ``birds`` and ``sightings`` rows, and region -> bird row ids by
    falling weight (a row id is the insert position + 1)."""
    species = [
        _SPECIES[k] if k < len(_SPECIES) else f"{_SPECIES[k % len(_SPECIES)]} ssp. {k // len(_SPECIES)}"
        for k in range(w.species)
    ]
    regions = _REGIONS[: w.regions]
    cells = w.species * w.regions
    if w.birds % cells or w.sightings % cells:
        raise ValueError(f"{w.name}: table sizes must be multiples of {cells}")
    per_region = w.birds // w.regions
    birds = []
    for region_index, region in enumerate(regions):
        weights = [
            round(_WEIGHT_LO + _WEIGHT_SPAN * (j + 0.5) / per_region, 3)
            for j in range(per_region)
        ]
        rng.shuffle(weights)
        for j, weight in enumerate(weights):
            serial = region_index * per_region + j
            birds.append((
                f"{_BIRD_NAMES[j % len(_BIRD_NAMES)]} {serial + 1}",
                species[j % w.species], region, weight,
            ))
    rng.shuffle(birds)
    sightings = [
        (species[i % w.species], regions[(i // w.species) % w.regions],
         rng.choice(_OBSERVERS), rng.randint(1, 120))
        for i in range(w.sightings)
    ]
    rng.shuffle(sightings)
    region_rows: dict[str, list[int]] = {region: [] for region in regions}
    for row_id, bird in sorted(enumerate(birds, start=1), key=lambda e: -e[1][3]):
        region_rows[bird[2]].append(row_id)
    return birds, sightings, region_rows


class _SpecFactory:
    """Deals annotation specs in the JSON form the wire protocol accepts.

    Kinds (document, multi-row, single-column, whole-row), fan-outs and
    columns come from fixed patterns, not from the seed: the seed picks the
    texts and which rows they land on.  Multi-row specs carry ``cells`` as
    ``[table, row_id, column]`` triples; the in-process driver turns them
    into ``CellRef`` before timing.
    """

    def __init__(self, w: Workload, seed: int, doc_share: float,
                 table: str = "birds") -> None:
        self._table = table
        docs = round(doc_share * _PATTERN)
        multi = round(w.multi_row * _PATTERN)
        column = round((_PATTERN - docs - multi) * _COLUMN_SHARE)
        kinds = (["doc"] * docs + ["multi"] * multi + ["column"] * column
                 + ["row"] * (_PATTERN - docs - multi - column))
        random.Random(_PATTERN).shuffle(kinds)
        self._kinds = itertools.cycle(kinds)
        self._fanout = itertools.cycle(range(1, 8))
        self._columns = itertools.cycle(
            BIRD_COLUMNS if table == "birds" else SIGHTING_COLUMNS
        )
        self._rng = random.Random(seed * 7919 + 17)
        self._texts = AnnotationFactory(seed=seed)

    def deal(self, rows: Iterator[int]) -> dict[str, Any]:
        """The next spec, on the next row(s) of ``rows``."""
        kind, row_id = next(self._kinds), next(rows)
        author = self._rng.choice(_OBSERVERS)
        if kind == "doc":
            title, body = self._texts.draw_document()
            return {"text": body, "table": self._table, "row_id": row_id,
                    "document": True, "title": title, "author": author}
        text, _category = self._texts.draw()
        if kind == "multi":
            column = next(self._columns)
            cells = [row_id]
            for other in itertools.islice(rows, next(self._fanout)):
                if other not in cells:
                    cells.append(other)
            return {"text": text, "author": author,
                    "cells": [[self._table, r, column] for r in cells]}
        spec: dict[str, Any] = {"text": text, "table": self._table,
                                "row_id": row_id, "author": author}
        if kind == "column":
            spec["columns"] = [next(self._columns)]
        return spec


def _rows(rng: random.Random, pool: list[int]) -> Iterator[int]:
    """``pool`` over and over, reshuffled each pass: every row is hit equally."""
    while True:
        block = list(pool)
        rng.shuffle(block)
        yield from block


def _zipf_pick(plan: random.Random, recent: list[int]) -> int:
    """One of ``recent`` (oldest first), Zipf over recency rank."""
    window = recent[-ZOOM_WINDOW:][::-1]
    weights = [1.0 / (rank ** ZOOM_ZIPF) for rank in range(1, len(window) + 1)]
    return plan.choices(window, weights=weights)[0]


def build_script(w: Workload, seed: int) -> Script:
    """Generate ``w``'s tables, bulk load and op script from ``seed``."""
    rng = random.Random(seed)
    plan = random.Random(f"skeleton of {w.name}")  # the same for every seed
    birds, sightings, region_rows = _tables(w, rng)
    regions = list(region_rows)
    all_rows = list(range(1, w.birds + 1))

    # Both relations carry annotations, as in the paper's Figure 2.  A
    # multi-row spec takes its extra rows from the same stream, so each
    # stream is recycled to keep the bulk load at rows x ratio specs.
    bulk: list[dict[str, Any]] = []
    for table, rows, ratio in (
        ("birds", w.birds, w.ratio), ("sightings", w.sightings, w.sightings_ratio),
    ):
        specs = _SpecFactory(w, seed + 2 * (table == "sightings"), _BULK_DOCS, table)
        targets = [row_id for row_id in range(1, rows + 1) for _ in range(ratio)]
        rng.shuffle(targets)
        stream = itertools.cycle(targets)
        bulk.extend(specs.deal(stream) for _ in targets)
    rng.shuffle(bulk)

    classes = [cls for cls, count in w.mix.items() for _ in range(count)]
    plan.shuffle(classes)
    for parity in (0, 1):  # each parity starts with a read its zoom-ins can name
        first = next(
            i for i in range(parity, len(classes), 2) if classes[i] in READ_CLASSES
        )
        classes[parity], classes[first] = classes[first], classes[parity]

    keep_lo = w.select_min_keep
    keep_hi = 1.0 if not w.follow_writes else _HOT_SHARE / 2
    thresholds = [
        round(_WEIGHT_LO + _WEIGHT_SPAN * (1.0 - keep), 3)
        for keep in (
            keep_lo + (keep_hi - keep_lo) * i / (_SELECT_GRID - 1)
            for i in range(_SELECT_GRID)
        )
    ]
    select_grid = (
        thresholds if w.follow_writes
        else [(region, t) for region in regions for t in thresholds]
    )
    params = {
        "select": iter(_cycle(plan, select_grid, w.mix["select"])),
        "summary": iter(_cycle(
            plan, [(label, t) for label in CLASSBIRD1_LABELS for t in (0, 2)],
            w.mix["summary"],
        )),
        "join": iter(_cycle(
            plan, list(zip(regions, regions[1:] + regions[:1])), w.mix["join"]
        )),
        "groupby": iter(_cycle(plan, regions, w.mix["groupby"])),
        "zoomin": iter(_cycle(
            plan,
            [(instance, detail) for instance in _ZOOM_INSTANCES for detail in _ZOOM_DETAILS],
            w.mix["zoomin"],
        )),
        "ingest_batch": iter(_cycle(plan, regions, w.mix["ingest_batch"])),
    }
    zoom_index = itertools.cycle((1, 2, 3, 4))
    op_specs = _SpecFactory(w, seed + 1, _OP_DOCS)
    pools = {
        region: _rows(rng, ranked[: max(2, int(len(ranked) * _HOT_SHARE))])
        for region, ranked in region_rows.items()
    } if w.follow_writes else dict.fromkeys(regions, _rows(rng, all_rows))

    ops: list[dict[str, Any]] = []
    #: Read positions so far, by script parity: a zoom-in names a read of its
    #: own parity, so each of `served`'s two connections knows the QID.
    reads: tuple[list[int], list[int]] = ([], [])
    cursor = regions[0]
    for i, cls in enumerate(classes):
        op: dict[str, Any] = {"i": i, "op": cls}
        param = next(params[cls])
        if cls == "select":
            region, threshold = (cursor, param) if w.follow_writes else param
            op["sql"] = (
                "SELECT name, species, weight FROM birds "
                f"WHERE region = '{region}' AND weight > {threshold}"
            )
        elif cls == "summary":
            label, threshold = op["params"] = list(param)
            op["sql"] = (
                "SELECT name, species FROM birds "
                f"WHERE SUMMARY_COUNT('ClassBird1', '{label}') > {threshold} "
                f"ORDER BY SUMMARY_COUNT('ClassBird1', '{label}') DESC LIMIT 10"
            )
        elif cls == "join":
            op["sql"] = (
                "SELECT b.name, b.species, s.observer, s.count "
                "FROM birds b, sightings s WHERE b.species = s.species "
                f"AND b.region = '{param[0]}' AND s.region = '{param[1]}'"
            )
        elif cls == "groupby":
            op["sql"] = (
                "SELECT species, count(*) FROM birds "
                f"WHERE region = '{param}' GROUP BY species"
            )
        elif cls == "zoomin":
            instance, detail = param
            index = next(zoom_index) if instance in CLASSIFIERS else None
            op["ref"] = _zipf_pick(plan, reads[i % 2])
            op["params"] = [instance, index, detail]
            command = f"ZOOMIN REFERENCE QID = {{qid}} ON {instance}"
            if index is not None:
                command += f" INDEX {index}"
            op["command"] = f"{command} DETAIL {detail}"
        else:
            cursor = param
            op["specs"] = [op_specs.deal(pools[cursor]) for _ in range(w.batch)]
        if cls in READ_CLASSES:
            reads[i % 2].append(i)
        ops.append(op)
    return Script(w.name, seed, birds, sightings, bulk, ops)
