"""Deliberate fault injection for exercising the harness itself.

The conformance harness is only trustworthy if it demonstrably *catches*
bugs, so we keep a small catalog of plausible regressions to plant on
demand.  Each fault is a context manager that monkeypatches one internal
and restores it on exit; tests wrap a harness run in ``inject(...)`` and
assert the differential runner flags, shrinks, and serializes it.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.ml.suffstats import StackedSuffStats

__all__ = ["FAULTS", "inject"]


@contextmanager
def _skip_retraction():
    """A refresh 'forgets' to write its recomputed dirty cells back.

    ``StackedSuffStats.assign`` is how ``IncrementalCubeMaintainer`` lands
    the statistics it recomputed for the cells a delta touched; returning
    without writing leaves retracted (and appended) rows' old sums in the
    cached stack — a dropped retraction.  The integer example counts then
    disagree with a scratch rebuild, so the ``cube-refresh`` stack audit
    must flag it at any workload size.
    """
    original = StackedSuffStats.assign
    StackedSuffStats.assign = lambda self, idx, other: None
    try:
        yield
    finally:
        StackedSuffStats.assign = original


FAULTS = {
    "skip-retraction": _skip_retraction,
}


def inject(name: str):
    """Context manager planting the named fault for the enclosed block."""
    try:
        return FAULTS[name]()
    except KeyError:
        raise KeyError(
            f"unknown fault {name!r}; have {sorted(FAULTS)}"
        ) from None
