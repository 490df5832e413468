"""Incremental bellwether maintenance (delta-aware, Theorem 1 applied twice).

The paper makes per-region WLS error an algebraic aggregate; this package
exploits the same algebra *across time*: when the versioned training-data
store absorbs appended or retracted fact rows (see :mod:`repro.storage.delta`),
cached sufficient statistics are patched — recomputed per dirty base cell
from the touched regions' rows — and only the dirty (region, item-subset)
lattice cells are re-solved.  Results stay bit-for-bit equal to a from-scratch rebuild
while doing none of the rebuild's scans.

Submodules
----------
``maintain``
    :class:`IncrementalCubeMaintainer` — keeps a bellwether cube current
    across store deltas (one batched solve per dirty level, no full scan),
    composing the builder's scan / rollup / solve / select stages.
``deltas``
    Month-append stream construction for the experiment configs.
``tables``
    :func:`build_cube_tables` — load-or-materialize the persistent suffstats
    cube tables (:mod:`repro.storage.cubetables`, the one persisted
    statistics artifact) with ``--skip-existing`` incremental builds.

Counters (in :mod:`repro.obs`): ``incr.cache_hits``, ``incr.cache_misses``,
``incr.cells_resolved``, ``incr.regions_refreshed``, ``incr.full_rebuilds``.
The basic search's :meth:`~repro.core.BasicBellwetherSearch.refresh` shares
the same instruments.
"""

from .deltas import (
    month_append_delta,
    month_split_store,
    versions_behind,
    window_end,
)
from .maintain import IncrementalCubeMaintainer
from .tables import build_cube_tables

__all__ = [
    "IncrementalCubeMaintainer",
    "build_cube_tables",
    "month_append_delta",
    "month_split_store",
    "versions_behind",
    "window_end",
]
