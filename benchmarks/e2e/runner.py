"""One benchmark run: set-up, warm-up, measured rounds, gate, metrics.

A run plays a fixed op script in whole rounds.  The first round is a
discarded warm-up (caches fill, lazy planner statistics seed); then a
fixed number of measured rounds follows (``Workload.rounds_for`` turns
``--seconds`` into it), so a run is bounded by op count, never by the
clock.  Latency percentiles pool the samples of all kept rounds.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import os
import platform
import shutil
import sqlite3
import tempfile
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import InsightNotes, InsightNotesError

from benchmarks.e2e.check import Gate
from benchmarks.e2e.drivers import (
    InProcessDriver,
    InProcessServer,
    ServerProcess,
    WireDriver,
    build_database,
    directory_bytes,
    peak_rss_mb,
)
from benchmarks.e2e.script import Script, build_script
from benchmarks.e2e.spec import (
    END_TO_END,
    LAYERS,
    OP_CLASSES,
    PER_LAYER,
    READ_CLASSES,
    SERVE_CONNECTIONS,
    Workload,
)
from benchmarks.e2e.stats import median, supported_tail
from benchmarks.e2e.trace import Breakdown, Tracer

#: Everything a run leaves behind lives here, inside the checkout.
WORK_ROOT = Path(".bench_e2e")
#: A round whose two bracketing calibrations are both this much slower
#: than the run's fastest is discarded and played again (at most
#: ``MAX_RETRIES`` times).  The issue proposed 1.10; on the reference box
#: the calibration loop itself drifts by 27 % for seconds at a time, so 1.10
#: fired in every run, and replaying a round of a script that grows the
#: database shifts what the kept rounds measure.  1.5 leaves the guard for
#: a real noisy-neighbour burst.
NOISE_LIMIT = 1.5
MAX_RETRIES = 2
#: Iterations of the calibration loop that brackets every round.
_CALIB_LOOP = 150_000
#: What a refused or broken op may raise; anything else is a harness bug.
OP_ERRORS = (InsightNotesError, OSError, RuntimeError, LookupError, ValueError, sqlite3.Error)


def environment() -> dict[str, Any]:
    """What the numbers were measured on; printed with every report."""
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def calibrate() -> float:
    """Milliseconds of a fixed allocation-free pure-Python loop, best of three."""
    best = 1 << 62
    for _ in range(3):
        started = time.perf_counter_ns()
        x = 1
        for _ in itertools.repeat(None, _CALIB_LOOP):
            x = (x * 5 + 1) & 255
        best = min(best, time.perf_counter_ns() - started)
    return best / 1e6


@dataclass
class Round:
    """One play of the script."""

    latencies: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: The busiest caller's summed latencies: closed-loop callers do nothing
    #: but wait for replies, and the probes they take in between are not load.
    seconds: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops_s(self) -> float:
        return (self.attempted - len(self.errors)) / self.seconds


class Player:
    """Plays script rounds through one or more closed-loop callers."""

    def __init__(self, drivers: list[Any], script: Script,
                 acknowledged: list[int] | None = None) -> None:
        self.drivers = drivers
        self._lanes = [script.ops[k :: len(drivers)] for k in range(len(drivers))]
        #: Every annotation id the program acknowledged, whatever the round.
        self.acknowledged: list[int] = [] if acknowledged is None else acknowledged
        self.op_class: dict[int, str] = {}
        self._next_uid = 0

    def _play(self, driver: Any, ops: list[dict[str, Any]], uid: int, out: Round,
              tracer: Tracer | None) -> None:
        clock = time.perf_counter_ns
        busy = 0.0
        for op in ops:
            cls = op["op"]
            uid += 1
            driver.request_id = uid
            started = clock()
            try:
                if tracer is None:
                    output = driver.run(op)
                else:
                    self.op_class[uid] = cls
                    with tracer.op(uid):
                        output = driver.run(op)
            except OP_ERRORS as exc:
                # An op the program refused or broke on is a failed op, not
                # a crashed benchmark: count it and keep the loop closed.
                out.errors.append(f"op {op['i']} {cls}: {exc!r}")
                continue
            elapsed = (clock() - started) / 1e6
            out.latencies[cls].append(elapsed)
            busy += elapsed
            if cls == "ingest_batch":
                self.acknowledged.extend(driver.acknowledged(output))
        out.seconds = busy / 1e3

    def round(self, tracer: Tracer | None = None) -> Round:
        bases = []
        for lane in self._lanes:
            bases.append(self._next_uid)
            self._next_uid += len(lane)
        parts = [Round(attempted=len(lane)) for lane in self._lanes]
        if len(parts) == 1:
            self._play(self.drivers[0], self._lanes[0], bases[0], parts[0], tracer)
            return parts[0]
        gate = threading.Barrier(len(parts))

        def caller(k: int) -> None:
            gate.wait()
            self._play(self.drivers[k], self._lanes[k], bases[k], parts[k], tracer)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(parts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out = Round(attempted=sum(part.attempted for part in parts),
                    seconds=max(part.seconds for part in parts))
        for part in parts:
            out.errors.extend(part.errors)
            for cls in part.latencies:
                out.latencies[cls].extend(part.latencies[cls])
        return out


@dataclass
class Measured:
    rounds: list[Round]
    retried: int
    calib_ms: float
    errors: list[str]
    attempted: int

    def pooled(self, cls: str) -> list[float]:
        return [ms for r in self.rounds for ms in r.latencies.get(cls, ())]

    @property
    def throughput(self) -> float:
        done = sum(r.attempted - len(r.errors) for r in self.rounds)
        return done / sum(r.seconds for r in self.rounds)


def measure(play: Callable[[], Round], count: int) -> Measured:
    """``count`` kept rounds; a round played under machine noise is replayed."""
    fastest = calibrate()
    rounds: list[Round] = []
    errors: list[str] = []
    attempted = retried = 0
    while len(rounds) < count:
        before = calibrate()
        played = play()
        after = calibrate()
        fastest = min(fastest, before, after)
        attempted += played.attempted
        errors.extend(played.errors)
        if min(before, after) > NOISE_LIMIT * fastest and retried < MAX_RETRIES:
            retried += 1
            continue
        rounds.append(played)
    return Measured(rounds, retried, fastest, errors, attempted)


class Stage:
    """An opened database ready to be driven, and how to shut it down."""

    def __init__(self, w: Workload, script: Script, db_path: str, hosted: bool) -> None:
        self.db_path = db_path
        self.server: Any = None
        self._hosted = hosted
        self._closed = False
        #: None while a server in another process owns the file: see :meth:`oracle`.
        self.session: InsightNotes | None = None
        if w.wire:
            self.player = Player(self._serve(), script)
        else:
            self.session = InsightNotes(db_path)
            self.player = Player([InProcessDriver(self.session, script)], script)

    def _serve(self) -> list[Any]:
        """Start the server on the file and connect the closed-loop callers."""
        self.server = (InProcessServer if self._hosted else ServerProcess)(self.db_path)
        if self._hosted:
            self.session = self.server.server.session
        return [WireDriver(self.server.address) for _ in range(SERVE_CONNECTIONS)]

    def _stop_server(self) -> None:
        for driver in self.player.drivers:
            driver.close()
        self.server.stop()
        if self._hosted:
            self.session = None  # the server closed it
        elif self.session is not None:
            self.session.close()
            self.session = None

    def restart_server(self) -> None:
        """The same file behind a new server: every in-memory cache starts empty."""
        self._stop_server()
        self.player.drivers = self._serve()

    def oracle(self) -> InsightNotes:
        """A session on the served file for the gate to read through."""
        if self.session is None:
            self.session = InsightNotes(self.db_path)
        return self.session

    def engine_peak_rss_mb(self) -> float:
        if isinstance(self.server, ServerProcess):
            return self.server.peak_rss_mb()
        return peak_rss_mb()

    def close(self) -> None:
        """Stop the server (waiting for its process) and close the session; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.server is not None:
            self._stop_server()
        elif self.session is not None:
            self.session.close()


def verify(stage: Stage, script: Script, gate: Gate) -> None:
    """The correctness pass: each distinct read and zoom-in, once, untimed."""
    ops = script.ops
    driver = stage.player.drivers[0]
    wire = isinstance(driver, WireDriver)
    zooms: dict[str, dict[str, dict[str, Any]]] = defaultdict(dict)
    for op in ops:
        if op["op"] == "zoomin":
            zooms[ops[op["ref"]]["sql"]].setdefault(op["command"], op)
    seen: set[str] = set()
    for op in ops:
        if op["op"] not in READ_CLASSES or op["sql"] in seen:
            continue
        seen.add(op["sql"])
        try:
            output = driver.run(op)
            result = gate.revive(output) if wire else output
            gate.check_read(op, result)
            for zoom_op in zooms[op["sql"]].values():
                zoom = driver.run({**zoom_op, "ref": op["i"]})
                gate.check_zoomin(zoom_op, result, zoom if wire else zoom.to_json())
        except OP_ERRORS as exc:
            gate.checked += 1
            gate.mismatches.append(f"op {op['i']} {op['op']}: gate raised {exc!r}")


def run_gate(stage: Stage, script: Script) -> tuple[Gate, int]:
    """The gate's verdict, and how many reads only a server restart put right.

    The callers of ``served`` are not fenced, so a read may overlap a write
    of the same row, and ``SummaryManager.attachments_for_rows`` (fetches
    outside its lock, caches afterwards) can then keep the pre-write
    attachment map until the row is written again.  The file is right and
    the server's memory is stale.  The contract wants workloads on which no
    op fails, so a mismatch found on the live server is checked again on a
    fresh server over the same file: what is still wrong fails the run,
    what is not is counted and printed as a stale read.
    """
    gate = Gate(stage.oracle())
    verify(stage, script, gate)
    if stage.server is None or not gate.mismatches:
        return gate, 0
    live = len(gate.mismatches)
    stage.restart_server()
    gate = Gate(stage.oracle())
    verify(stage, script, gate)
    return gate, max(0, live - len(gate.mismatches))


def _fresh_dir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def _finish(stage: Stage, gate: Gate, initial: int) -> tuple[int, int]:
    """Close, then reopen: ``(bytes on disk, annotation text bytes)``."""
    stage.close()
    stored = directory_bytes(Path(stage.db_path).parent)
    with InsightNotes(stage.db_path) as fresh:
        gate.check_durable(fresh, initial, stage.player.acknowledged)
        text_bytes = fresh.annotations.total_text_bytes()
    return stored, text_bytes


def _result(gate: Gate, attempted: int, errors: list[str],
            metrics: dict[str, tuple[float, str]], lines: list[str]) -> dict[str, Any]:
    failed = len(errors) + len(gate.mismatches)
    for message in (errors + gate.mismatches)[:10]:
        lines.append(f"# FAILED {message}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted + gate.checked,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        },
    }


def _timings(setup_s: float, bulk_rate: float, measured: Measured) -> dict[str, float]:
    """Every ``spec.TIMINGS`` value of one set-up and its measured rounds."""
    return {
        "setup_s": setup_s,
        "bulk_ingest_ann_s": bulk_rate,
        "throughput_ops_s": measured.throughput,
        **{f"{cls}_p50_ms": median(measured.pooled(cls)) for cls in OP_CLASSES},
    }


def run_untraced(w: Workload, seed: int, rounds: int) -> dict[str, Any]:
    """Every end-to-end metric of one workload."""
    script = build_script(w, seed)
    work = _fresh_dir()
    stage: Stage | None = None
    try:
        db_path = str(work / "notes.db")
        started = time.perf_counter()
        bulk_rate = build_database(db_path, script)
        stage = Stage(w, script, db_path, hosted=False)
        setup_s = time.perf_counter() - started
        gc.collect()
        gc.freeze()

        played_started = time.perf_counter()
        warmup = stage.player.round()
        measured = measure(stage.player.round, rounds)
        played_seconds = time.perf_counter() - played_started
        rss = stage.engine_peak_rss_mb()

        gate_started = time.perf_counter()
        gate, stale = run_gate(stage, script)
        stored, text_bytes = _finish(stage, gate, len(script.bulk))
        gate_seconds = time.perf_counter() - gate_started

        values = {
            **_timings(setup_s, bulk_rate, measured),
            "peak_rss_mb": rss,
            "store_bytes_per_ann_byte": stored / text_bytes,
        }
        metrics = {m.name: (values[m.name], m.unit) for m in END_TO_END}
        lines = [
            f"# workload={w.name} seed={seed} rounds={len(measured.rounds)} "
            f"ops/round={w.ops_per_round} measured_s="
            f"{sum(r.seconds for r in measured.rounds):.2f} "
            f"rounds_retried={measured.retried} calib_ms={measured.calib_ms:.3f}",
            f"# env={environment()}",
            "# samples, p50 ms: " + " ".join(
                f"{cls}={len(measured.pooled(cls))},{median(measured.pooled(cls)):.2f}"
                for cls in OP_CLASSES
            ),
            "# round ops/s: " + " ".join(f"{r.ops_s:.1f}" for r in measured.rounds),
            f"# wall-clock: setup={setup_s:.1f}s warmup+measured="
            f"{played_seconds:.1f}s gate={gate_seconds:.1f}s ({gate.checked} checks)",
        ]
        if stale:
            lines.append(f"# known issue: {stale} reads were stale on the live server "
                         "and right after a restart (see README, baseline observations)")
        return _result(gate, warmup.attempted + measured.attempted,
                       warmup.errors + measured.errors, metrics, lines)
    finally:
        if stage is not None:
            stage.close()
        shutil.rmtree(work, ignore_errors=True)


def _delta(after: dict[str, Any], before: dict[str, Any], *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before  # type: ignore[operator]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _shard_probe(
    session: InsightNotes, script: Script, acknowledged: list[int]
) -> tuple[float, float]:
    """Seconds for a fixed read probe and a fixed ingest probe on ``session``."""
    reads = [op for op in script.ops if op["op"] in ("select", "summary")][:20]
    writes = [op for op in script.ops if op["op"] == "ingest_batch"][:10]
    driver = InProcessDriver(session, script)
    scan, write = (
        Player([driver], dataclasses.replace(script, ops=ops), acknowledged).round().seconds
        for ops in (reads, writes)
    )
    return scan, write


def run_traced(w: Workload, seed: int, rounds: int) -> dict[str, Any]:
    """Every per-layer metric of one workload (one traced round)."""
    script = build_script(w, seed)
    work = _fresh_dir()
    stage: Stage | None = None
    try:
        db_dir = work / "db"
        db_dir.mkdir()
        started = time.perf_counter()
        bulk_rate = build_database(str(db_dir / "notes.db"), script)
        stage = Stage(w, script, str(db_dir / "notes.db"), hosted=True)
        setup_s = time.perf_counter() - started
        session, player = stage.session, stage.player
        values: dict[str, float] = {m.name: 0.0 for m in PER_LAYER}

        if w.shard_probe:  # keeps ROADMAP's sharding anomaly measurable
            single = _shard_probe(session, script, player.acknowledged)
            (work / "shard4").mkdir()
            build_database(str(work / "shard4" / "notes.db"), script, shards=4)
            with InsightNotes(str(work / "shard4" / "notes.db"), shards=4) as sharded:
                four = _shard_probe(sharded, script, [])
            values["storage.shard4_scan_ratio"] = four[0] / single[0]
            values["storage.shard4_write_ratio"] = four[1] / single[1]

        gc.collect()
        gc.freeze()
        warmup = player.round()
        direct: Round | None = None
        if w.wire:  # the same script on the same session, without the wire
            direct = Player(
                [InProcessDriver(session, script)], script, player.acknowledged
            ).round()
        # File growth is taken over the whole measured section: within one
        # round the WAL is mostly reused and the files do not move.
        grown_from = directory_bytes(db_dir), session.annotations.total_text_bytes()
        untraced = measure(player.round, max(1, rounds // 2))

        tracer = Tracer()
        before = session.statistics()
        tracer.install(type(session.cache))
        try:
            with session.db.track_queries() as statements:
                tracer.statements = statements
                traced = player.round(tracer)
        finally:
            tracer.uninstall()
        session.flush()
        after = session.statistics()
        grown_to = directory_bytes(db_dir), after["annotation_bytes"]
        lanes = stage.server.statistics()["server"]["lanes"] if w.wire else {}

        spans = tracer.spans()
        trace_path = WORK_ROOT / "trace.jsonl"
        tracer.write_jsonl(str(trace_path), spans)
        view = Breakdown(tracer, spans, player.op_class)
        ops_of = defaultdict(int)
        for cls in player.op_class.values():
            ops_of[cls] += 1
        reads = sum(ops_of[cls] for cls in READ_CLASSES)
        batches = ops_of["ingest_batch"]
        ingested = batches * w.batch
        # A statement belongs to the op during which it ran.  On `served` two
        # reads may overlap, and each then also counts the other's statements.
        selects = writes = 0
        for op, (first, last) in tracer.statement_ranges.items():
            heads = [sql.lstrip()[:6].upper() for sql in statements.statements[first:last]]
            if player.op_class[op] in READ_CLASSES:
                selects += heads.count("SELECT")
            elif player.op_class[op] == "ingest_batch":
                writes += len(heads) - heads.count("SELECT")

        def p50(layer: str, *prefixes: str, classes: tuple[str, ...] = ()) -> float:
            return median(view.self_ms(layer, *prefixes, classes=classes))

        values.update({
            "serve.decode_ms": p50("serve", "decode"),
            "serve.encode_ms": p50("serve", "encode", "handle"),
            "serve.dispatch_ms": p50("serve", "dispatch"),
            "serve.response_bytes_per_op": _ratio(
                sum(tracer.response_bytes), len(tracer.response_bytes)),
            "engine.parse_ms": p50("engine", "parse"),
            "engine.plan_ms": p50("engine", "build_logical", "prepare", "physical"),
            "engine.execute_self_ms": p50("engine", "execute_plan"),
            "engine.register_ms": p50(
                "engine", "observe", "estimate", "register", "record_query"),
            "engine.rows_scanned_per_result_row": _ratio(
                sum(r[0] for r in tracer.rows), sum(r[2] for r in tracer.rows)),
            "engine.rows_hydrated_per_result_row": _ratio(
                sum(r[1] for r in tracer.rows), sum(r[2] for r in tracer.rows)),
            "storage.scan_ms": p50("storage", "scan"),
            "storage.hydrate_ms": p50(
                "storage", "load_objects", "attachments", classes=READ_CLASSES),
            "storage.write_ms": p50("storage", "add_many", "save_objects"),
            "storage.read_statements_per_query": _ratio(selects, reads),
            "storage.write_statements_per_batch": _ratio(writes, batches),
            "storage.object_cache_hit_ratio": _ratio(
                _delta(after, before, "object_cache", "hits"),
                _delta(after, before, "object_cache", "hits")
                + _delta(after, before, "object_cache", "misses")),
            "storage.bytes_written_per_ann_byte": _ratio(
                grown_to[0] - grown_from[0], grown_to[1] - grown_from[1]),
            "storage.write_wait_ms": _ratio(
                sum(pool["write_wait_ms"] for pool in after["shard_pools"].values())
                - sum(pool["write_wait_ms"] for pool in before["shard_pools"].values()),
                batches),
            "maintenance.add_self_ms": p50("maintenance", "add_annotations"),
            "maintenance.flush_ms": p50("maintenance", "flush"),
            "maintenance.summarize_once_hit_ratio": _ratio(
                _delta(after, before, "summarize_once", "hits"),
                _delta(after, before, "summarize_once", "hits")
                + _delta(after, before, "summarize_once", "misses")),
            "maintenance.folds_saved_per_batch": _ratio(
                _delta(after, before, "maintenance", "folds_saved"), batches),
            "maintenance.objects_updated_per_ann": _ratio(
                _delta(after, before, "maintenance", "objects_updated"), ingested),
            "summaries.merge_ms": p50("summaries", "merge:"),
            "summaries.merge_cluster_ms": p50("summaries", "merge:cluster"),
            "summaries.merge_classifier_ms": p50("summaries", "merge:classifier"),
            "summaries.merge_snippet_ms": p50("summaries", "merge:snippet"),
            "summaries.merges_per_op": _ratio(view.call_count("summaries", "merge:"), reads),
            "summaries.project_ms": p50("summaries", "remove_annotations:"),
            "summaries.fold_ms": p50("summaries", "fold_many:", "analyze"),
            "summaries.copy_ms": p50("summaries", "for_query:", "copy:"),
            "summaries.bytes_per_result_row": _ratio(
                sum(size for size, _rows in tracer.result_bytes.values()),
                sum(rows for _size, rows in tracer.result_bytes.values())),
            "zoomin.execute_self_ms": p50("zoomin", "execute"),
            "zoomin.cache_get_ms": p50("zoomin", "cache_get"),
            "zoomin.cache_put_ms": p50("zoomin", "cache_put"),
            "zoomin.fetch_ms": p50("storage", "get_many", classes=("zoomin",)),
            "zoomin.hit_ratio": _ratio(
                _delta(after, before, "zoomin", "memory_hits")
                + _delta(after, before, "zoomin", "disk_hits"),
                _delta(after, before, "zoomin", "memory_hits")
                + _delta(after, before, "zoomin", "disk_hits")
                + _delta(after, before, "zoomin", "misses")),
            "zoomin.recompute_ratio": _ratio(
                sum(source in ("recomputed", "coalesced") for _n, source in tracer.zooms),
                len(tracer.zooms)),
            "zoomin.evictions_per_put": _ratio(
                _delta(after, before, "zoomin", "memory_evictions")
                + _delta(after, before, "zoomin", "disk_evictions"),
                _delta(after, before, "zoomin", "insertions")),
            "zoomin.annotations_per_zoomin": _ratio(
                sum(count for count, _source in tracer.zooms), len(tracer.zooms)),
            "text.tokenize_ms": p50("text", "tokenize"),
            "text.vectorize_ms": p50("text", "vectorize"),
            "text.similarity_calls_per_op": _ratio(
                view.call_count("text", "cosine"), len(player.op_class)),
            "client.round_drift_ratio": untraced.rounds[-1].ops_s / untraced.rounds[0].ops_s,
            "client.calib_ms": untraced.calib_ms,
            "client.trace_overhead_ratio": traced.ops_s / untraced.throughput,
            **{f"share.{layer}": view.share(layer) for layer in LAYERS},
        })
        tails = {}
        for cls in OP_CLASSES:
            tails[cls], values[f"client.{cls}_p95_ms"] = supported_tail(untraced.pooled(cls))
        for name, value in _timings(setup_s, bulk_rate, untraced).items():
            values[f"client.{name}"] = value  # listed only if not end-to-end
        if w.wire:
            assert direct is not None
            for lane in ("read", "write"):
                values[f"serve.{lane}_lane_p50_ms"] = lanes[lane]["latency_ms"]["p50"]
            offered = sum(
                lane["admitted"] + lane["rejected_overload"] + lane["rejected_closed"]
                for lane in lanes.values())
            values["serve.rejected_ratio"] = _ratio(
                sum(lane["rejected_overload"] + lane["rejected_closed"]
                    for lane in lanes.values()), offered)
            for cls in ("select", "zoomin"):
                values[f"serve.{cls}_overhead_ms"] = (
                    median(untraced.pooled(cls)) - median(direct.latencies[cls]))

        gate, values["serve.stale_reads"] = run_gate(stage, script)
        _finish(stage, gate, len(script.bulk))

        layer_sum = sum(values[f"share.{layer}"] for layer in LAYERS)
        write_path = (
            view.share("maintenance") + view.share("text")
            + view.share("summaries", "fold_many:", "analyze")
            + view.share("storage", "add_many", "save_objects")
        )
        lines = [
            f"# workload={w.name} seed={seed} traced round: {traced.attempted} ops in "
            f"{traced.seconds:.2f}s, {len(spans)} spans -> {trace_path}",
            f"# untraced rounds={len(untraced.rounds)} "
            f"rounds_retried={untraced.retried} env={environment()}",
            "# tail percentile used: " + " ".join(f"{c}=p{tails[c]:g}" for c in OP_CLASSES),
            f"# layer self times sum to {layer_sum:.3f} of traced op wall-clock",
            "# largest spans (share of wall-clock): " + " ".join(
                f"{name}={share:.3f}" for name, share in view.top(10)),
            f"# merge share={view.share('summaries', 'merge:'):.3f}  write-path share "
            f"(maintenance + text + fold/analyze + add_many/save_objects)={write_path:.3f}",
        ]
        if tracer.missing:
            lines.append(f"# entry points not found (metrics read 0): {tracer.missing}")
        played = [warmup, traced] + ([direct] if direct else [])
        return _result(
            gate,
            untraced.attempted + sum(r.attempted for r in played),
            untraced.errors + [e for r in played for e in r.errors],
            {m.name: (values[m.name], m.unit) for m in PER_LAYER},
            lines,
        )
    finally:
        if stage is not None:
            stage.close()
        shutil.rmtree(work, ignore_errors=True)
