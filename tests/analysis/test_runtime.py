"""The runtime lock checker: order cycles and reentrancy.

The static rules (RPR007–RPR008) and this checker speak the same
canonical lock names, so a violation caught here reads identically to
its lint-time twin.  The headline property: a two-thread lock-order
inversion raises :class:`LockOrderError` deterministically *before*
blocking — the repro finishes instead of deadlocking.
"""

import json
import threading
import time

import pytest

from repro.analysis.runtime import (
    LockCheckError,
    LockOrderError,
    TrackedLock,
    disable_lockcheck,
    enable_lockcheck,
    get_lockchecker,
    set_lockchecker,
)
from repro.obs.metrics import get_registry


@pytest.fixture()
def checker():
    installed = enable_lockcheck(strict=True)
    try:
        yield installed
    finally:
        disable_lockcheck()


def _edge_names(checker):
    return {(e["from"], e["to"]) for e in checker.snapshot()["edges"]}


class TestOrdering:
    def test_consistent_order_is_clean(self, checker):
        a, b = TrackedLock("t.a"), TrackedLock("t.b")
        for __ in range(3):
            with a:
                with b:
                    pass
        assert _edge_names(checker) == {("t.a", "t.b")}
        assert checker.snapshot()["violations"] == []

    def test_sequential_inversion_raises(self, checker):
        a, b = TrackedLock("s.a"), TrackedLock("s.b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                with a:
                    pass

    def test_two_thread_inversion_raises_instead_of_deadlocking(self, checker):
        """The classic AB/BA interleave finishes, one side raising.

        t1 takes a and blocks on b; t2 holds b and tries a.  Without the
        checker this wedges both threads forever.  ``acquiring`` runs
        *before* blocking, so t2 sees the a→b edge t1 just recorded and
        raises out — releasing b and letting t1 through.
        """
        a, b = TrackedLock("inv.a"), TrackedLock("inv.b")
        t1_has_a = threading.Event()
        caught: list[Exception] = []

        def t1():
            with a:
                t1_has_a.set()
                with b:  # blocks until t2 bails out
                    pass

        def t2():
            assert t1_has_a.wait(5)
            with b:
                # Wait until t1's acquiring(b) has recorded the a→b edge
                # (it runs before t1 parks on the mutex we hold).
                deadline = time.monotonic() + 5
                while ("inv.a", "inv.b") not in _edge_names(checker):
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                try:
                    with a:
                        pass
                except LockOrderError as exc:
                    caught.append(exc)

        threads = [threading.Thread(target=t1), threading.Thread(target=t2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive(), "inversion repro deadlocked"
        assert len(caught) == 1
        kinds = [v["kind"] for v in checker.snapshot()["violations"]]
        assert kinds == ["order"]


class TestReentrancy:
    def test_reentrant_lock_nests(self, checker):
        lock = TrackedLock("re.ok", reentrant=True)
        with lock:
            with lock:
                pass
        assert checker.snapshot()["violations"] == []

    def test_nonreentrant_reacquire_raises(self, checker):
        lock = TrackedLock("re.bad")
        with lock:
            with pytest.raises(LockCheckError):
                lock.acquire()


class TestLifecycle:
    def test_hooks_are_noops_when_disabled(self):
        disable_lockcheck()
        lock = TrackedLock("off.a")
        with lock:
            with lock.__class__("off.b"):
                pass
        assert get_lockchecker() is None

    def test_set_lockchecker_restores(self, checker):
        assert get_lockchecker() is checker
        set_lockchecker(None)
        assert get_lockchecker() is None
        set_lockchecker(checker)
        assert get_lockchecker() is checker

    def test_nonstrict_records_instead_of_raising(self):
        checker = enable_lockcheck(strict=False)
        try:
            a, b = TrackedLock("ns.a"), TrackedLock("ns.b")
            with a:
                with b:
                    pass
            with b:
                with a:  # inversion: recorded, not raised
                    pass
            kinds = [v["kind"] for v in checker.snapshot()["violations"]]
            assert kinds == ["order"]
        finally:
            disable_lockcheck()

    def test_counters_increment(self, checker):
        registry = get_registry()
        before = registry.as_dict()
        with TrackedLock("ct.a"):
            pass
        after = registry.as_dict()
        assert (
            after["analysis.lock.acquisitions"]
            > before.get("analysis.lock.acquisitions", 0)
        )

    def test_export_graph_round_trips(self, checker, tmp_path):
        a, b = TrackedLock("ex.a"), TrackedLock("ex.b")
        with a:
            with b:
                pass
        out = tmp_path / "lock-graph.json"
        checker.export_graph(out)
        payload = json.loads(out.read_text())
        assert {"from": "ex.a", "to": "ex.b", "count": 1} in payload["edges"]
        assert payload["violations"] == []
