"""Tests for the named-lock registry (``repro.concurrency``).

The inventory pin at the bottom is deliberate friction: adding a lock
to the engine requires naming it here *and* in DESIGN.md §15's table,
which forces a review of its place in the acquisition order.
"""

import ast
import threading
from pathlib import Path

import pytest

from repro.concurrency import (
    LockSpec,
    install_lock_factory,
    lock_inventory,
    make_lock,
    make_rlock,
)

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestRegistry:
    def test_make_lock_returns_a_working_mutex(self):
        lock = make_lock("testreg.plain")
        assert lock.acquire(blocking=False)
        lock.release()
        with lock:
            pass

    def test_make_rlock_is_reentrant(self):
        lock = make_rlock("testreg.reentrant")
        with lock:
            with lock:
                pass

    def test_invalid_name_is_rejected(self):
        for bad in ("nodot", "Upper.case", "trailing.", ".leading", "a.1x"):
            with pytest.raises(ValueError, match="dotted lowercase"):
                make_lock(bad)

    def test_same_shape_re_registration_is_fine(self):
        make_lock("testreg.stable")
        make_lock("testreg.stable")
        assert lock_inventory()["testreg.stable"] == LockSpec(
            name="testreg.stable", kind="lock", guards_io=False
        )

    def test_shape_conflict_is_rejected(self):
        make_lock("testreg.conflict")
        with pytest.raises(ValueError, match="different"):
            make_rlock("testreg.conflict")
        with pytest.raises(ValueError, match="different"):
            make_lock("testreg.conflict", guards_io=True)

    def test_inventory_records_every_name(self):
        make_lock("testreg.listed", guards_io=True)
        spec = lock_inventory()["testreg.listed"]
        assert spec.kind == "lock"
        assert spec.guards_io is True


@pytest.fixture
def restore_factory():
    """Put back whatever factory was installed (the ambient sanitizer's,
    when the suite runs under ``INSIGHT_SANITIZE=1``)."""
    import repro.concurrency as concurrency

    previous = concurrency._factory
    yield
    install_lock_factory(previous)


class TestFactoryHook:
    def test_installed_factory_builds_the_locks(self, restore_factory):
        built: list[LockSpec] = []

        def factory(spec: LockSpec):
            built.append(spec)
            return threading.Lock()

        install_lock_factory(factory)
        make_lock("testreg.hooked")
        assert [spec.name for spec in built] == ["testreg.hooked"]

    def test_none_restores_plain_threading_locks(self, restore_factory):
        install_lock_factory(None)
        lock = make_lock("testreg.plain_again")
        # Plain threading locks have no .spec attribute.
        assert not hasattr(lock, "spec")


#: The documented lock-name inventory (DESIGN.md §15).  One entry per
#: ``make_lock``/``make_rlock`` site in ``src/repro`` — adding a lock
#: without updating this table (and the design doc) fails the test.
DOCUMENTED_INVENTORY = {
    "annotations.id_sequence": ("lock", True),
    "catalog.instances": ("lock", False),
    "database.rowid": ("lock", False),
    "database.schema": ("lock", False),
    "database.trace": ("lock", False),
    "database.trace_counter": ("lock", False),
    "engine.cost_stats": ("lock", False),
    "engine.execution_stats": ("lock", False),
    "engine.results": ("lock", False),
    "maintenance.summary_manager": ("rlock", True),
    "pool.registry": ("lock", False),
    "pool.stats": ("lock", False),
    "pool.write": ("rlock", True),
    "serve.stats": ("lock", False),
    "zoomin.flight_stripe": ("lock", False),
    "zoomin.store_txn": ("lock", True),
    "zoomin.tiered": ("lock", False),
    "zoomin.traces": ("lock", False),
}


def _scan_lock_sites() -> dict[str, tuple[str, bool]]:
    """Every literal ``make_lock``/``make_rlock`` name in the tree."""
    sites: dict[str, tuple[str, bool]] = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            else:
                continue
            if callee not in ("make_lock", "make_rlock"):
                continue
            if not (node.args and isinstance(node.args[0], ast.Constant)):
                continue
            kind = "rlock" if callee == "make_rlock" else "lock"
            guards_io = any(
                keyword.arg == "guards_io"
                and getattr(keyword.value, "value", False) is True
                for keyword in node.keywords
            )
            sites[node.args[0].value] = (kind, guards_io)
    return sites


def test_lock_inventory_matches_the_documented_table():
    assert _scan_lock_sites() == DOCUMENTED_INVENTORY
