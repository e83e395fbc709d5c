"""The harness checks itself: determinism, names, percentiles, span arithmetic, --quick."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from benchmarks.e2e.aa import report
from benchmarks.e2e.script import build_script
from benchmarks.e2e.spec import END_TO_END, OP_CLASSES, PER_LAYER, ROOT, WORKLOADS
from benchmarks.e2e.stats import relative_iqr, supported_tail
from benchmarks.e2e.trace import Span, Tracer, adopt_orphans, self_times

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_script_other_seed_other_script(name):
    workload = WORKLOADS[name].quick()
    first = build_script(workload, 11).to_bytes()
    assert build_script(workload, 11).to_bytes() == first
    assert build_script(workload, 12).to_bytes() != first


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_script_holds_every_class_and_safe_zoom_references(name):
    script = build_script(WORKLOADS[name].quick(), 5)
    assert {op["op"] for op in script.ops} == set(OP_CLASSES)
    for op in script.ops:
        if op["op"] == "zoomin":
            target = script.ops[op["ref"]]
            assert "sql" in target and target["i"] < op["i"]
            assert target["i"] % 2 == op["i"] % 2  # same connection in `served`


def test_seed_moves_the_data_not_the_skeleton():
    workload = WORKLOADS["curate"].quick()
    one, two = (build_script(workload, seed) for seed in (1, 2))
    skeleton = [
        [(op["op"], op.get("sql"), op.get("command"), op.get("ref")) for op in s.ops]
        for s in (one, two)
    ]
    assert skeleton[0] == skeleton[1]
    assert sorted(one.birds) != sorted(two.birds)
    assert [op["specs"] for op in one.ops if "specs" in op] != [
        op["specs"] for op in two.ops if "specs" in op
    ]
    for cls, count in workload.mix.items():
        assert sum(op["op"] == cls for op in one.ops) == count


def test_manifest_lists_exactly_the_metrics_the_harness_emits():
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for section, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m for m in MANIFEST[section]}
        assert list(listed) == [m.name for m in metrics]
        for metric in metrics:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric.name)
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit)
            assert listed[metric.name]["unit"] == metric.unit
            assert listed[metric.name]["better"] == metric.better
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())  # the contract's ceiling
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize(
    ("count", "pct"),
    [(39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_needs_ten_samples_beyond_it(count, pct):
    values = [float(v) for v in range(1, count + 1)]
    picked, value = supported_tail(values)
    assert picked == pct
    assert sum(v > value for v in values) >= (10 if pct > 50 else 0)


def test_relative_iqr_matches_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert relative_iqr(values) == pytest.approx((17.25 - 11.75) / 14.5)


def test_aa_report_flags_what_breaks_the_noise_rule():
    bound = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "throughput_ops_s")
    steady = [100.0, 100.5, 101.0, 101.5, 102.0]

    def table(a, b):
        return report({"lookup": {"A": {"throughput_ops_s": a}, "B": {"throughput_ops_s": b}}})

    assert "<--" not in table(steady, steady)
    assert "<-- gap" in table(steady, [v * (1 - 1.5 * bound) for v in steady])  # B is slower
    wide = [100.0 * (1 + 0.12 * bound * k) for k in range(5)]  # bound / 3 < relative IQR < 10 %
    assert "<-- 3iqr" in table(wide, wide)
    assert "spread iqr 3iqr" in table([60.0, 80.0, 100.0, 120.0, 140.0], steady)
    assert "demoted to client.gone_p50_ms" in report(
        {"lookup": {"A": {"gone_p50_ms": steady}, "B": {"gone_p50_ms": steady}}}
    )


def test_self_time_is_busy_minus_direct_children():
    #   root(100) -> a(60) -> c(25)
    #             -> b(30)           ; orphan(10) belongs to op 1 as well
    spans = [
        Span(0, -1, 1, 0, 0, 100, 100),
        Span(1, 0, 1, 1, 5, 65, 60),
        Span(2, 1, 1, 2, 10, 35, 25),
        Span(3, 0, 1, 3, 65, 95, 30),
        Span(4, -1, 1, 4, 95, 105, 10),
    ]
    adopted = adopt_orphans(spans, root_name=0)
    assert adopted[4].parent == 0
    own = self_times(adopted)
    assert own == {0: 0, 1: 35, 2: 25, 3: 30, 4: 10}
    assert sum(own.values()) == 100  # self times add up to the op's wall-clock


def test_iterator_span_charges_only_time_inside_next():
    tracer = Tracer()

    def slow_rows():
        for i in range(3):
            time.sleep(0.01)
            yield i

    wrapped = tracer._wrap_iterator(slow_rows, tracer.name_id("storage", "scan"))
    with tracer.op(7):
        for _row in wrapped():
            time.sleep(0.02)  # the consumer's own work
    scan, root = sorted(tracer.spans(), key=lambda s: s.busy_ns)
    assert scan.parent == root.span and scan.op == 7
    assert 0.03e9 <= scan.busy_ns < 0.06e9 <= root.busy_ns
    assert scan.end_ns - scan.start_ns > scan.busy_ns


def test_quick_mode_runs_everything_and_emits_every_metric():
    started = time.perf_counter()
    for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(ROOT / "benchmarks/e2e/__main__.py"),
                 "--workload", name, "--quick", "--trace", str(trace), "--seed", "3"],
                stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT, timeout=60,
            )
            result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m.name for m in metrics]
            for metric in metrics:
                assert result["metrics"][metric.name]["unit"] == metric.unit
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (ROOT / ".bench_e2e" / "trace.jsonl").stat().st_size > 0
    assert time.perf_counter() - started < 30
