"""Tests for insightlint v2: call graph, lock-context dataflow, and the
interprocedural rules (IN001 through helpers, IN005 through helpers,
IN007 lock-order consistency, IN008 blocking-under-lock).

Rule fixtures stay inline strings through :func:`lint_source` — project
rules see a single-module project, which is exactly the hermetic shape
these tests need.  The one on-disk fixture is the seeded known-bad file
the CI self-check lints; its test pins the canary contract.
"""

import textwrap
from pathlib import Path

from repro.analysis.lint import lint_source
from repro.analysis.lint.callgraph import Project, module_dotted_name
from repro.analysis.lint.framework import ModuleSource
from repro.analysis.lint.lockflow import get_lockflow

FIXTURE = (
    Path(__file__).resolve().parent / "fixtures" / "known_bad_concurrency.py"
)


def lint(source: str, path: str = "repro/module.py", rules=None):
    return lint_source(textwrap.dedent(source), path=path, rule_ids=rules)


def rule_ids(findings):
    return [finding.rule for finding in findings]


def project_from(source: str, path: str = "repro/module.py") -> Project:
    import ast

    text = textwrap.dedent(source)
    return Project([ModuleSource(path, text, ast.parse(text))])


# -- call graph ---------------------------------------------------------


class TestCallGraph:
    def test_module_dotted_name_strips_src_prefix(self):
        assert module_dotted_name("src/repro/engine/cost.py") == (
            "repro.engine.cost"
        )
        assert module_dotted_name("repro/engine/__init__.py") == (
            "repro.engine"
        )

    def test_bare_name_call_resolves_to_module_function(self):
        project = project_from(
            """
            def helper():
                return 1

            def caller():
                return helper()
            """
        )
        (site,) = project.graph.calls["repro/module.py::caller"]
        assert site.callee == "repro/module.py::helper"

    def test_self_method_call_resolves_through_class(self):
        project = project_from(
            """
            class Engine:
                def run(self):
                    return self._step()

                def _step(self):
                    return 1
            """
        )
        (site,) = project.graph.calls["repro/module.py::Engine.run"]
        assert site.callee == "repro/module.py::Engine._step"

    def test_self_method_resolves_through_base_class(self):
        project = project_from(
            """
            class Base:
                def _step(self):
                    return 1

            class Child(Base):
                def run(self):
                    return self._step()
            """
        )
        (site,) = project.graph.calls["repro/module.py::Child.run"]
        assert site.callee == "repro/module.py::Base._step"

    def test_ambiguous_method_name_produces_no_edge(self):
        # Two unrelated classes define .put(); obj.put() must not guess.
        project = project_from(
            """
            class A:
                def put(self):
                    return 1

            class B:
                def put(self):
                    return 2

            def caller(store):
                return store.put()
            """
        )
        assert project.graph.calls.get("repro/module.py::caller", []) == []

    def test_lock_attribute_resolves_to_registered_name(self):
        project = project_from(
            """
            from repro.concurrency import make_lock

            class Engine:
                def __init__(self):
                    self._lock = make_lock("engine.demo")

                def run(self):
                    with self._lock:
                        return 1
            """
        )
        flow = get_lockflow(project)
        (region,) = flow.regions["repro/module.py::Engine.run"]
        (lock,) = region.locks
        assert lock.name == "engine.demo"
        assert lock.registered is True

    def test_unregistered_lock_gets_synthetic_name(self):
        project = project_from(
            """
            import threading

            class Engine:
                def __init__(self):
                    self._table_lock = threading.Lock()

                def run(self):
                    with self._table_lock:
                        return 1
            """
        )
        flow = get_lockflow(project)
        (region,) = flow.regions["repro/module.py::Engine.run"]
        (lock,) = region.locks
        assert lock.registered is False
        assert "_table_lock" in lock.name


class TestLockFlow:
    def test_sql_reachability_is_transitive(self):
        project = project_from(
            """
            def leaf(pool):
                return pool.execute("SELECT 1")

            def middle(pool):
                return leaf(pool)

            def top(pool):
                return middle(pool)
            """
        )
        flow = get_lockflow(project)
        for name in ("leaf", "middle", "top"):
            assert f"repro/module.py::{name}" in flow.sql_reachable

    def test_lock_acquires_propagate_to_callers(self):
        project = project_from(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.inner")

            def inner():
                with _lock:
                    return 1

            def outer():
                return inner()
            """
        )
        flow = get_lockflow(project)
        acquired = flow.lock_acquires["repro/module.py::outer"]
        assert {lock.name for lock in acquired} == {"demo.inner"}


# -- IN001 interprocedural ----------------------------------------------


IN001_HELPER_SOURCE = """
from repro.concurrency import make_lock

_lock = make_lock("demo.state")


def run_query(pool):
    return pool.execute("SELECT 1")


def caller(pool):
    with _lock:
        return run_query(pool)
"""


class TestInterproceduralSQLUnderLock:
    def test_helper_sql_under_lock_is_flagged_at_call_site(self):
        findings = lint(IN001_HELPER_SOURCE, rules=["IN001"])
        assert rule_ids(findings) == ["IN001"]
        (finding,) = findings
        assert "run_query" in finding.message
        assert "demo.state" in finding.message
        # Anchored at the call site inside `caller`, not in the helper.
        assert finding.line == 13

    def test_suppression_at_call_site_suppresses(self):
        source = IN001_HELPER_SOURCE.replace(
            "return run_query(pool)",
            "return run_query(pool)  # insightlint: disable=IN001",
        )
        assert lint(source, rules=["IN001"]) == []

    def test_suppression_on_helper_definition_does_not_suppress(self):
        # The callee is innocent; a disable comment on its definition
        # must not silence the caller's defect.
        source = IN001_HELPER_SOURCE.replace(
            "def run_query(pool):",
            "def run_query(pool):  # insightlint: disable=IN001",
        )
        findings = lint(source, rules=["IN001"])
        assert rule_ids(findings) == ["IN001"]

    def test_guards_io_lock_is_exempt(self):
        source = IN001_HELPER_SOURCE.replace(
            'make_lock("demo.state")',
            'make_lock("demo.writer", guards_io=True)',
        )
        assert lint(source, rules=["IN001"]) == []

    def test_sql_outside_lock_through_helper_passes(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.state")


            def run_query(pool):
                return pool.execute("SELECT 1")


            def caller(pool):
                with _lock:
                    cached = True
                return run_query(pool)
            """,
            rules=["IN001"],
        )
        assert findings == []


# -- IN005 interprocedural ----------------------------------------------


class TestInterproceduralExecutorMutation:
    def test_unguarded_helper_write_is_flagged_at_submit_site(self):
        findings = lint(
            """
            class Engine:
                def run(self, pool):
                    pool.submit(self._work)

                def _work(self):
                    self._bump()

                def _bump(self):
                    self.count += 1
            """,
            rules=["IN005"],
        )
        assert rule_ids(findings) == ["IN005"]
        (finding,) = findings
        assert "_bump" in finding.message
        assert finding.line == 4  # the submit call

    def test_guarded_helper_write_passes(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            class Engine:
                def __init__(self):
                    self._lock = make_lock("demo.engine")

                def run(self, pool):
                    pool.submit(self._work)

                def _work(self):
                    self._bump()

                def _bump(self):
                    with self._lock:
                        self.count += 1
            """,
            rules=["IN005"],
        )
        assert findings == []

    def test_helper_init_is_not_flagged(self):
        # __init__ runs at construction, before publication to workers.
        findings = lint(
            """
            class Worker:
                def __init__(self):
                    self.count = 0

            class Engine:
                def run(self, pool):
                    pool.submit(self._work)

                def _work(self):
                    return Worker()
            """,
            rules=["IN005"],
        )
        assert findings == []


# -- IN007 lock-order consistency ---------------------------------------


class TestLockOrderConsistency:
    def test_two_lock_inversion_is_one_finding(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _a = make_lock("demo.alpha")
            _b = make_lock("demo.beta")


            def forward():
                with _a:
                    with _b:
                        pass


            def backward():
                with _b:
                    with _a:
                        pass
            """,
            rules=["IN007"],
        )
        assert rule_ids(findings) == ["IN007"]
        (finding,) = findings
        assert "demo.alpha" in finding.message
        assert "demo.beta" in finding.message
        assert "potential deadlock" in finding.message

    def test_consistent_order_passes(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _a = make_lock("demo.alpha")
            _b = make_lock("demo.beta")


            def one():
                with _a:
                    with _b:
                        pass


            def two():
                with _a:
                    with _b:
                        pass
            """,
            rules=["IN007"],
        )
        assert findings == []

    def test_inversion_through_helper_call_is_flagged(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _a = make_lock("demo.alpha")
            _b = make_lock("demo.beta")


            def take_alpha():
                with _a:
                    pass


            def forward():
                with _a:
                    with _b:
                        pass


            def backward():
                with _b:
                    take_alpha()
            """,
            rules=["IN007"],
        )
        assert rule_ids(findings) == ["IN007"]

    def test_same_name_striped_locks_are_not_an_edge(self):
        # Two stripes of one striped lock share a name; nesting them is
        # the sanitizer's same-role tally, not a static order edge.
        findings = lint(
            """
            from repro.concurrency import make_lock

            class Stripe:
                def __init__(self):
                    self.lock = make_lock("demo.stripe")


            def transfer(a, b):
                with a.lock:
                    with b.lock:
                        pass
            """,
            rules=["IN007"],
        )
        assert findings == []


# -- IN008 blocking under lock ------------------------------------------


class TestNoBlockingUnderLock:
    def test_future_result_under_lock_is_flagged(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.state")


            def wait(future):
                with _lock:
                    return future.result()
            """,
            rules=["IN008"],
        )
        assert rule_ids(findings) == ["IN008"]
        assert "demo.state" in findings[0].message

    def test_future_result_with_timeout_passes(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.state")


            def wait(future):
                with _lock:
                    return future.result(timeout=5.0)
            """,
            rules=["IN008"],
        )
        assert findings == []

    def test_blocking_reached_through_helper_is_flagged(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.state")


            def drain(work_queue):
                return work_queue.get()


            def locked_drain(work_queue):
                with _lock:
                    return drain(work_queue)
            """,
            rules=["IN008"],
        )
        assert rule_ids(findings) == ["IN008"]
        assert "drain" in findings[0].message

    def test_guards_io_lock_is_exempt(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _io = make_lock("demo.writer", guards_io=True)


            def wait(future):
                with _io:
                    return future.result()
            """,
            rules=["IN008"],
        )
        assert findings == []

    def test_dict_get_is_not_blocking(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.state")


            def read(cache, key):
                with _lock:
                    return cache.get(key)
            """,
            rules=["IN008"],
        )
        assert findings == []

    def test_suppression_at_call_site_suppresses(self):
        findings = lint(
            """
            from repro.concurrency import make_lock

            _lock = make_lock("demo.state")


            def wait(future):
                with _lock:
                    return future.result()  # insightlint: disable=IN008
            """,
            rules=["IN008"],
        )
        assert findings == []


# -- the seeded CI canary ------------------------------------------------


class TestSeededFixture:
    def test_known_bad_fixture_reports_all_three_rules(self):
        source = FIXTURE.read_text()
        findings = lint_source(
            source, path="tests/analysis/fixtures/known_bad_concurrency.py"
        )
        assert set(rule_ids(findings)) == {"IN001", "IN007", "IN008"}
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        assert len(by_rule["IN001"]) == 1
        assert len(by_rule["IN007"]) == 1
        assert len(by_rule["IN008"]) == 2
        assert "fixture.alpha" in by_rule["IN007"][0].message
        assert "fixture.beta" in by_rule["IN007"][0].message
