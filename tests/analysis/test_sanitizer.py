"""Tests for insightsan, the runtime lock-order sanitizer.

Every test builds a *private* :class:`SanitizerState` and swaps it in
with :func:`swap_state`, so manufactured violations never leak into the
ambient report when the suite itself runs under ``INSIGHT_SANITIZE=1``.
Locks are constructed directly as instrumented wrappers — the factory
plumbing is exercised separately via ``repro.concurrency``.
"""

import importlib.util
import json
import os
import queue
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

from repro.analysis import sanitizer
from repro.analysis.sanitizer import check as sanitizer_check
from repro.analysis.sanitizer.runtime import (
    InstrumentedLock,
    InstrumentedRLock,
    SanitizerState,
    blocking_patches,
    swap_state,
)
from repro.concurrency import LockSpec

REPO_ROOT = Path(__file__).resolve().parents[2]


def spec(name: str, kind: str = "lock", guards_io: bool = False) -> LockSpec:
    return LockSpec(name=name, kind=kind, guards_io=guards_io)


class TestLockOrderInversion:
    def test_two_lock_inversion_across_threads_is_reported(self):
        state = SanitizerState()
        alpha = InstrumentedLock(spec("test.alpha"), state)
        beta = InstrumentedLock(spec("test.beta"), state)
        forward_done = threading.Event()

        def forward():
            with alpha:
                with beta:
                    pass
            forward_done.set()

        def backward():
            forward_done.wait(timeout=5.0)
            with beta:
                with alpha:
                    pass

        with swap_state(state):
            first = threading.Thread(target=forward, name="san-fwd")
            second = threading.Thread(target=backward, name="san-bwd")
            first.start()
            second.start()
            first.join(timeout=5.0)
            second.join(timeout=5.0)

        (violation,) = state.violations
        assert violation.kind == "lock-order-inversion"
        assert violation.locks == ("test.alpha", "test.beta")
        assert "test.alpha" in violation.detail
        assert "test.beta" in violation.detail
        assert violation.witnesses  # each cycle edge carries a witness

    def test_consistent_order_produces_no_violation(self):
        state = SanitizerState()
        alpha = InstrumentedLock(spec("test.alpha"), state)
        beta = InstrumentedLock(spec("test.beta"), state)
        with swap_state(state):
            for _ in range(3):
                with alpha:
                    with beta:
                        pass
        assert state.violations == []
        assert list(state.order["test.alpha"]) == ["test.beta"]

    def test_same_role_nesting_is_a_tally_not_a_violation(self):
        # Two stripes of one striped lock share a name; nesting them is
        # interchangeable-stripe behavior, not an order inversion.
        state = SanitizerState()
        stripe_a = InstrumentedLock(spec("test.stripe"), state)
        stripe_b = InstrumentedLock(spec("test.stripe"), state)
        with swap_state(state):
            with stripe_a:
                with stripe_b:
                    pass
        assert state.violations == []
        assert state.same_role_nestings == {"test.stripe": 1}
        assert "test.stripe" not in state.order

    def test_rlock_reentry_is_invisible(self):
        state = SanitizerState()
        lock = InstrumentedRLock(spec("test.rlock", kind="rlock"), state)
        with swap_state(state):
            with lock:
                with lock:
                    pass
        assert state.acquisitions == 1
        assert state.violations == []


class TestBlockingUnderLock:
    def test_queue_get_under_lock_is_reported_with_lock_name(self):
        state = SanitizerState()
        lock = InstrumentedLock(spec("test.state"), state)
        inbox: "queue.Queue[int]" = queue.Queue()
        inbox.put(1)
        with swap_state(state), blocking_patches():
            with lock:
                assert inbox.get() == 1
        (violation,) = state.violations
        assert violation.kind == "blocking-under-lock"
        assert violation.locks == ("test.state",)
        assert "queue.Queue.get" in violation.detail

    def test_future_result_on_pending_future_is_reported(self):
        state = SanitizerState()
        lock = InstrumentedLock(spec("test.state"), state)
        future: "Future[int]" = Future()
        future.set_running_or_notify_cancel()
        timer = threading.Timer(0.05, future.set_result, args=(7,))
        timer.start()
        try:
            with swap_state(state), blocking_patches():
                with lock:
                    assert future.result() == 7
        finally:
            timer.join()
        (violation,) = state.violations
        assert violation.kind == "blocking-under-lock"
        assert "Future.result" in violation.detail

    def test_completed_future_result_is_not_blocking(self):
        state = SanitizerState()
        lock = InstrumentedLock(spec("test.state"), state)
        future: "Future[int]" = Future()
        future.set_result(1)
        with swap_state(state), blocking_patches():
            with lock:
                assert future.result() == 1
        assert state.violations == []

    def test_guards_io_lock_is_exempt(self):
        state = SanitizerState()
        lock = InstrumentedLock(
            spec("test.writer", guards_io=True), state
        )
        inbox: "queue.Queue[int]" = queue.Queue()
        inbox.put(1)
        with swap_state(state), blocking_patches():
            with lock:
                assert inbox.get() == 1
        assert state.violations == []

    def test_blocking_without_any_lock_is_fine(self):
        state = SanitizerState()
        inbox: "queue.Queue[int]" = queue.Queue()
        inbox.put(1)
        with swap_state(state), blocking_patches():
            assert inbox.get() == 1
        assert state.violations == []


class TestReportAndReset:
    def test_report_shape(self):
        state = SanitizerState()
        alpha = InstrumentedLock(spec("test.alpha"), state)
        beta = InstrumentedLock(spec("test.beta"), state)
        with swap_state(state):
            with alpha:
                with beta:
                    pass
        report = state.report()
        assert report["version"] == 1
        assert report["acquisitions"] == 2
        assert set(report["locks"]) == {"test.alpha", "test.beta"}
        (edge,) = report["order_edges"]
        assert (edge["from"], edge["to"]) == ("test.alpha", "test.beta")
        assert report["violations"] == []
        json.dumps(report)  # must be JSON-serializable as-is

    def test_reset_clears_graph_but_keeps_specs(self):
        state = SanitizerState()
        alpha = InstrumentedLock(spec("test.alpha"), state)
        with swap_state(state):
            with alpha:
                pass
        state.reset()
        assert state.acquisitions == 0
        assert state.order == {}
        assert "test.alpha" in state.lock_specs

    def test_duplicate_violations_are_deduplicated(self):
        state = SanitizerState()
        lock = InstrumentedLock(spec("test.state"), state)
        inbox: "queue.Queue[int]" = queue.Queue()
        inbox.put(1)
        inbox.put(2)
        with swap_state(state), blocking_patches():
            with lock:
                inbox.get()
                inbox.get()
        assert len(state.violations) == 1


class TestSeededFixtureAtRuntime:
    """The static canary's lock-order inversion, reproduced live: the
    same file insightlint flags (IN007) also trips the runtime
    sanitizer when its functions execute under the instrumented
    factory — static and runtime layers agree on the defect and speak
    the same lock names."""

    FIXTURE = (
        Path(__file__).resolve().parent
        / "fixtures"
        / "known_bad_concurrency.py"
    )

    def test_seeded_inversion_is_reported_by_the_sanitizer(self):
        state = SanitizerState()
        was_enabled = sanitizer.enabled()
        if not was_enabled:
            sanitizer.enable()
        try:
            with swap_state(state):
                module_spec = importlib.util.spec_from_file_location(
                    "known_bad_concurrency_fixture", self.FIXTURE
                )
                module = importlib.util.module_from_spec(module_spec)
                module_spec.loader.exec_module(module)
                module.take_alpha_then_beta()
                module.take_beta_then_alpha()
        finally:
            if not was_enabled:
                sanitizer.disable()
        inversions = [
            violation
            for violation in state.violations
            if violation.kind == "lock-order-inversion"
        ]
        (violation,) = inversions
        assert violation.locks == ("fixture.alpha", "fixture.beta")
        assert violation.witnesses


class TestCheckCommand:
    def test_clean_report_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"violations": [], "acquisitions": 5}))
        assert sanitizer_check.main([str(report)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_exit_one_and_print(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps(
                {
                    "violations": [
                        {
                            "kind": "lock-order-inversion",
                            "locks": ["a", "b"],
                            "detail": "a -> b -> a",
                            "site": "x.py:1 in f",
                            "witnesses": [],
                        }
                    ]
                }
            )
        )
        assert sanitizer_check.main([str(report)]) == 1
        out = capsys.readouterr().out
        assert "lock-order-inversion" in out
        assert "a -> b -> a" in out

    def test_missing_report_exits_two(self, tmp_path, capsys):
        assert sanitizer_check.main([str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().out


class TestPluginImportsLight:
    def test_sanitizer_import_loads_no_engine_module(self):
        # The plugin enables the sanitizer before test modules import
        # engine code that constructs locks; that only holds if importing
        # the sanitizer does not import the engine itself.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop("INSIGHT_SANITIZE", None)
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "import repro.analysis.sanitizer\n"
                "import repro.analysis.sanitizer.pytest_plugin\n"
                "print('\\n'.join(sorted(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=60,
        )
        loaded = completed.stdout.split()
        assert "repro.analysis.sanitizer" in loaded
        assert [
            name for name in loaded
            if name == "repro.engine" or name.startswith("repro.engine.")
        ] == []
