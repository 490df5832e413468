"""Deliberate fault injection for exercising the harness itself.

The conformance harness is only trustworthy if it demonstrably *catches*
bugs, so we keep a small catalog of plausible regressions to plant on
demand.  Each fault is a context manager that monkeypatches one internal
and restores it on exit; tests wrap a harness run in ``inject(...)`` and
assert the differential runner flags, shrinks, and serializes it.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.incremental.maintain import IncrementalCubeMaintainer

__all__ = ["FAULTS", "inject"]


@contextmanager
def _skip_retraction():
    """A refresh 'forgets' to write its recomputed dirty cells back.

    ``IncrementalCubeMaintainer._refresh_stack`` recomputes the cells a
    delta touched and assigns them over a copy of the cached stack; handing
    back the cached stack instead leaves retracted (and appended) rows' old
    sums in place — a dropped retraction.  (A region seen for the first
    time has no cached stack and is built as usual: the scratch builds the
    oracle compares against share that code.)  The integer example counts
    then disagree with a scratch rebuild, so the ``cube-refresh`` stack
    audit must flag it at any workload size.
    """
    original = IncrementalCubeMaintainer._refresh_stack

    def forgetful(self, region, block, cell_of_row, dirty_cells):
        cached = self._stacks.get(region)
        if cached is None:
            return original(self, region, block, cell_of_row, dirty_cells)
        return cached

    IncrementalCubeMaintainer._refresh_stack = forgetful
    try:
        yield
    finally:
        IncrementalCubeMaintainer._refresh_stack = original


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
