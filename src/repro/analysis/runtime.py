"""Runtime lock-order and lock-discipline checking for the serve stack.

The static rules (RPR007–RPR008) see lexical scopes and one call hop;
this module covers the rest at runtime, cheaply enough to leave compiled
into the hot path:

* Every instrumented lock (a :class:`TrackedLock` around the serve writer
  / instrument / cache / journal mutexes) reports ``acquiring`` /
  ``acquired`` / ``released`` to the installed checker.  When none is
  installed that is a global read and a ``None`` test — nothing else.

* :func:`enable_lockcheck` installs a process-wide :class:`LockChecker`:
  per-thread held-lock stacks, an online lock-acquisition graph with
  cycle detection (the dynamic twin of RPR008), and non-reentrancy
  checks.  ``acquiring`` runs *before* the lock blocks, so in strict
  mode an inversion raises :class:`LockOrderError` deterministically
  instead of deadlocking the repro.

Counters land in the :mod:`repro.obs` registry under ``analysis.lock.*``
(incremented under the checker's own mutex — the registry itself is
single-threaded by design).  Enable via ``observe(lockcheck=True)``,
``--lockcheck`` on the experiments / serve CLIs, or the ``lockcheck``
pytest fixture.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.exceptions import ReproError
from repro.obs.catalog import (
    ANALYSIS_LOCK_ACQUISITIONS,
    ANALYSIS_LOCK_EDGES,
    ANALYSIS_LOCK_VIOLATIONS,
)
from repro.obs.metrics import get_registry

from .guards import (
    AQP_JOURNAL_IO,
    CUBE_TABLES_IO,
    SERVE_INSTRUMENT,
    SERVE_STATE_WRITER,
)

__all__ = [
    "AQP_JOURNAL_IO",
    "CUBE_TABLES_IO",
    "LockCheckError",
    "LockChecker",
    "LockOrderError",
    "SERVE_INSTRUMENT",
    "SERVE_STATE_WRITER",
    "TrackedLock",
    "disable_lockcheck",
    "enable_lockcheck",
    "get_lockchecker",
    "set_lockchecker",
]

_REGISTRY = get_registry()
_ACQUISITIONS = _REGISTRY.counter(ANALYSIS_LOCK_ACQUISITIONS)
_EDGES = _REGISTRY.counter(ANALYSIS_LOCK_EDGES)
_VIOLATIONS = _REGISTRY.counter(ANALYSIS_LOCK_VIOLATIONS)


class LockCheckError(ReproError):
    """A lock-discipline violation the runtime checker caught."""


class LockOrderError(LockCheckError):
    """Acquiring this lock would close a cycle in the acquisition graph."""


class LockChecker:
    """Process-wide held-lock stacks + online acquisition-order graph.

    ``strict=True`` (the default) raises on the first violation — the
    deterministic mode the inversion repro and the hammers use;
    ``strict=False`` records violations for :meth:`snapshot` instead.
    The checker's own mutex is deliberately *not* tracked.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._mu = threading.Lock()
        # (held, acquired) -> times observed.
        self._edges: dict[tuple[str, str], int] = {}
        # acquired -> set of locks ever acquired while holding it.
        self._adj: dict[str, set[str]] = {}
        self._violations: list[dict] = []
        self._seen_violations: set[tuple] = set()
        self._tls = threading.local()

    # ------------------------------------------------------- per-thread state

    def _held(self) -> list[str]:
        """Names of the locks the calling thread holds, oldest first."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # ------------------------------------------------------------------ hooks

    def acquiring(self, name: str, reentrant: bool = False) -> None:
        """Called before blocking on ``name``; raises rather than deadlocks."""
        held = self._held()
        violation: dict | None = None
        with self._mu:
            _ACQUISITIONS.inc()
            if name in held and not reentrant:
                violation = {
                    "kind": "reacquire",
                    "lock": name,
                    "held": list(held),
                    "detail": (
                        f"thread already holds non-reentrant lock {name!r} "
                        f"(held stack: {held}); re-acquiring would deadlock"
                    ),
                }
            else:
                cycle_via = self._reaches_locked(
                    name, {h for h in held if h != name}
                )
                if cycle_via is not None:
                    violation = {
                        "kind": "order",
                        "lock": name,
                        "held": list(held),
                        "detail": (
                            f"acquiring {name!r} while holding {cycle_via!r} "
                            f"closes a cycle: the graph already orders "
                            f"{name!r} before {cycle_via!r}"
                        ),
                    }
                for h in held:
                    if h == name:
                        continue
                    edge = (h, name)
                    if edge not in self._edges:
                        self._edges[edge] = 0
                        self._adj.setdefault(h, set()).add(name)
                        _EDGES.inc()
                    self._edges[edge] += 1
            if violation is not None:
                key = (violation["kind"], name, tuple(violation["held"]))
                if key not in self._seen_violations:
                    self._seen_violations.add(key)
                    self._violations.append(violation)
                    _VIOLATIONS.inc()
        if violation is not None and self.strict:
            if violation["kind"] == "order":
                raise LockOrderError(violation["detail"])
            raise LockCheckError(violation["detail"])

    def _reaches_locked(self, start: str, targets: set[str]) -> str | None:
        """A target reachable from ``start`` in the edge graph (mutex held)."""
        if not targets:
            return None
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            for nxt in self._adj.get(node, ()):
                if nxt in targets:
                    return nxt
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return None

    def acquired(self, name: str) -> None:
        self._held().append(name)

    def released(self, name: str) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    # -------------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """The observed lock graph + violations, JSON-shaped."""
        with self._mu:
            edges = [
                {"from": a, "to": b, "count": count}
                for (a, b), count in sorted(self._edges.items())
            ]
            violations = [dict(v) for v in self._violations]
        return {"edges": edges, "violations": violations}

    def export_graph(self, path: str | Path) -> None:
        """Write :meth:`snapshot` as JSON (the nightly CI artifact)."""
        Path(path).write_text(
            json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @property
    def violations(self) -> list[dict]:
        with self._mu:
            return [dict(v) for v in self._violations]


# -------------------------------------------------------- process-wide checker

_CHECKER: LockChecker | None = None


def enable_lockcheck(strict: bool = True) -> LockChecker:
    """Install (and return) a fresh process-wide checker."""
    global _CHECKER
    _CHECKER = LockChecker(strict=strict)
    return _CHECKER


def disable_lockcheck() -> None:
    global _CHECKER
    _CHECKER = None


def get_lockchecker() -> LockChecker | None:
    return _CHECKER


def set_lockchecker(checker: LockChecker | None) -> None:
    """Restore a previously captured checker (``observe`` uses this)."""
    global _CHECKER
    _CHECKER = checker


class TrackedLock:
    """A mutex that reports to the checker; drop-in for ``threading.Lock``.

    ``reentrant=True`` wraps an ``RLock`` and tells the checker nested
    re-acquisition by the owner is legal.  With no checker installed the
    overhead is one global read per operation.
    """

    def __init__(self, name: str, reentrant: bool = False):
        self.name = name
        self._reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        checker = _CHECKER
        if checker is not None:
            checker.acquiring(self.name, self._reentrant)
        ok = self._inner.acquire(blocking, timeout)
        if ok and checker is not None:
            checker.acquired(self.name)
        return ok

    def release(self) -> None:
        self._inner.release()
        checker = _CHECKER
        if checker is not None:
            checker.released(self.name)

    def locked(self) -> bool:
        """Is the mutex held right now, by any thread?  (non-reentrant only)"""
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r}, reentrant={self._reentrant})"
