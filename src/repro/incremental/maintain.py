"""Delta-aware bellwether-cube maintenance (Theorem 1, applied to updates).

The optimized cube is one pipeline on
:class:`~repro.core.cube.BellwetherCubeBuilder` — ``scan_stacks`` →
``level_tables`` → one solve-and-select — and a maintainer composes those
stages; what it owns is the state that lets a delta skip most of them.  It
holds, per region, one :class:`~repro.ml.StackedSuffStats` of per-base-cell
statistics and does two separate jobs on them:

* **bringing the stacks to the store's version**
  (:meth:`IncrementalCubeMaintainer.advance`): ``builder.scan_stacks()`` the
  first time; after that the store's changelog is replayed — touched item
  ids map to their base cells and only those cells' statistics are
  recomputed from the touched region's *updated* rows.  Deltas retract
  first and append at the block's end, so surviving rows keep their
  relative order and every statistic — touched or not — is **bit-for-bit**
  what a from-scratch scan of the updated store computes.  Statistics
  only: nothing is solved, so a caller that wants tables
  (:func:`~repro.incremental.build_cube_tables`) stops here and hands
  :attr:`~IncrementalCubeMaintainer.stacks` to ``builder.level_tables``;
* **keeping solutions current** (:meth:`IncrementalCubeMaintainer.refresh`):
  advance, then roll up and solve only the regions whose stacks moved —
  every held region the first time, afterwards the touched ones, and in
  those only the subsets a dirty base cell feeds — one batched solve per
  level, cached per (level, region), and let the builder's winner
  selection replay first-strict-min over the cache in store order.
"""

from __future__ import annotations

import numpy as np

from repro.core.cube import (
    BellwetherCubeBuilder,
    BellwetherCubeResult,
    solve_where,
)
from repro.dimensions import Region
from repro.ml import StackedSuffStats
from repro.exceptions import ConfigError
from repro.obs.catalog import (
    INCR_CACHE_HITS,
    INCR_CELLS_RESOLVED,
    INCR_FULL_REBUILDS,
    INCR_REGIONS_REFRESHED,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage import RegionBlock, StorageError

__all__ = ["IncrementalCubeMaintainer"]

_TRACER = get_tracer()
_CACHE_HITS = get_registry().counter(INCR_CACHE_HITS)
_CELLS_RESOLVED = get_registry().counter(INCR_CELLS_RESOLVED)
_REGIONS_REFRESHED = get_registry().counter(INCR_REGIONS_REFRESHED)
_FULL_REBUILDS = get_registry().counter(INCR_FULL_REBUILDS)


class IncrementalCubeMaintainer:
    """Keeps a bellwether cube current across store deltas.

    Parameters
    ----------
    builder:
        The cube builder whose geometry (hierarchies, significant subsets,
        ``min_examples``) and store this maintainer serves.  Requires a
        batchable task (training-set error — the measure Theorem 1 covers).
    """

    def __init__(self, builder: BellwetherCubeBuilder):
        if not builder._batchable():
            raise ConfigError(
                "incremental maintenance needs the algebraic (training-set) "
                "error estimator; this task's estimator is not batchable"
            )
        self.builder = builder
        self._hold({}, None)

    def _hold(
        self, stacks: dict[Region, StackedSuffStats], version: int | None
    ) -> None:
        """Take ``stacks`` as of ``version``; no solution covers them yet."""
        self._stacks = dict(stacks)
        self._version = version  # None = cold (no stacks yet)
        # Per lattice level, per region: ``(n, rmse, sse, dof)`` arrays over
        # the level's significant subsets — example count and the solved
        # errors (NaN/NaN/0 where the subset has too few examples there).
        self._errors: list[dict[Region, tuple[np.ndarray, ...]]] = [
            {} for __ in self.builder._levels
        ]
        # Regions whose stacks moved since ``_errors`` last covered them,
        # with the base cells that moved (not consulted for a region
        # ``_errors`` has never seen: all of it is new).
        self._dirty: dict[Region, np.ndarray] = dict.fromkeys(
            self._stacks, np.empty(0, dtype=np.int64)
        )

    # --------------------------------------------------------------- geometry

    @property
    def _n_cells(self) -> int:
        return len(self.builder._cells)

    def _ordered_regions(self) -> list[Region]:
        """Held regions in store-scan order (the builder's region order)."""
        return [r for r in self.builder.store.regions() if r in self._stacks]

    @property
    def stacks(self) -> dict[Region, StackedSuffStats]:
        """The base-cell table: every held region's stack, in store order."""
        return {r: self._stacks[r] for r in self._ordered_regions()}

    # ----------------------------------------------------------------- stacks

    def adopt(self, version: int, stacks: dict[Region, StackedSuffStats]) -> None:
        """Start from ``stacks`` as they stood at store version ``version``.

        For a cold maintainer handed a persisted base-cell table.  Raises
        :class:`~repro.storage.StorageError` when the store's changelog no
        longer reaches back to ``version`` (a reopened store, a version
        ahead of the log) — the table cannot be patched forward, and the
        maintainer stays cold.
        """
        self.builder.store.deltas_since(version)
        self._hold(stacks, version)

    def advance(self) -> str:
        """Bring the stacks to the store's current version.  No solves.

        Cold maintainers pay one full scan.  Warm ones replay
        ``store.deltas_since`` onto their stacks; a changelog gap triggers a
        loud full rebuild.  Returns where the statistics came from
        (``"scan"``, ``"rebuild"``, ``"delta"`` or ``"noop"``).
        """
        builder = self.builder
        if self._version is None:
            self._hold(builder.scan_stacks(), builder.store.version)
            return "scan"
        try:
            deltas = builder.store.deltas_since(self._version)
        except StorageError:
            _FULL_REBUILDS.inc()
            self._hold(builder.scan_stacks(), builder.store.version)
            return "rebuild"
        if not deltas:
            return "noop"
        self._replay(deltas)
        return "delta"

    def _replay(self, deltas: list) -> None:
        """Fold the changelog entries into the stacks, cell by dirty cell."""
        builder = self.builder
        store = builder.store
        touched: dict[Region, list[np.ndarray]] = {}
        for applied in deltas:
            # Drops forget the region *in sequence*, so a later delta that
            # re-adds it rebuilds from nothing instead of patching a stack
            # whose rows are long gone.
            for region in applied.drop_regions:
                self._forget_region(region)
                touched.pop(region, None)
            for region, item_ids in applied.touched.items():
                touched.setdefault(region, []).append(item_ids)
        _REGIONS_REFRESHED.inc(len(touched))
        for region, id_lists in touched.items():
            dirty_cells = self._dirty_cells(np.concatenate(id_lists))
            block, cell_of_row = builder._own_rows(store.read(region))
            if block.n_examples == 0:
                self._forget_region(region)
                continue
            self._stacks[region] = self._refresh_stack(
                region, block, cell_of_row, dirty_cells
            )
            self._dirty[region] = np.union1d(
                self._dirty.pop(region, dirty_cells), dirty_cells
            )
        self._version = store.version

    # ---------------------------------------------------------------- refresh

    def refresh(self) -> BellwetherCubeResult:
        """The cube for the store's current contents, updated incrementally.

        Advances the stacks (:meth:`advance`), then brings the solutions
        level with them: every (subset, region) problem the first time (and
        after a scan), only the dirty ones after a changelog replay.
        """
        with _TRACER.span("incr.refresh") as sp:
            source = self.advance()
            sp.annotate(source=source)
            if self._dirty:
                self._solve_dirty()
            elif source == "noop":
                _CACHE_HITS.inc()
        return self._result_from_cache()

    def _solve_dirty(self) -> None:
        """Re-roll the regions whose stacks moved; re-solve what that dirtied.

        One rollup and at most one batched solve per level, over every dirty
        region at once.
        """
        builder = self.builder
        tables = builder.level_tables({r: self._stacks[r] for r in self._dirty})
        for (__, rm, __keep), table, per in zip(
            builder._levels, tables, self._errors
        ):
            n = table.stats.n.reshape(table.n_regions, table.n_subsets)
            # A region the solutions have not seen is stale everywhere.  In
            # a known one only the subsets receiving a dirty base cell
            # re-enter the solver: the others' base cells did not move, so
            # their cached solutions are still bit-exact.
            stale = np.stack(
                [
                    np.isin(table.keep_sidx, rm.subset_of_base[cells])
                    if region in per
                    else np.ones(table.n_subsets, dtype=bool)
                    for region, cells in self._dirty.items()
                ]
            )
            todo = stale & (n >= builder.min_examples)
            solved = solve_where(table.stats, todo)
            _CELLS_RESOLVED.inc(int(todo.sum()))
            for i, region in enumerate(table.regions):
                if region in per:
                    for new, old in zip(solved, per[region][1:]):
                        new[i, ~stale[i]] = old[~stale[i]]
                per[region] = (n[i], *(new[i] for new in solved))
        self._dirty = {}

    def _forget_region(self, region: Region) -> None:
        self._stacks.pop(region, None)
        self._dirty.pop(region, None)
        for per in self._errors:
            per.pop(region, None)

    def _dirty_cells(self, item_ids: np.ndarray) -> np.ndarray:
        """The base cells of the builder's items among ``item_ids``."""
        builder = self.builder
        rows = builder._index.locate(np.unique(item_ids))
        return np.unique(builder._cell_of_item[rows[rows < len(builder._index)]])

    def _refresh_stack(
        self,
        region: Region,
        block: RegionBlock,
        cell_of_row: np.ndarray,
        dirty_cells: np.ndarray,
    ) -> StackedSuffStats:
        """The region's updated base-cell stack, dirty cells recomputed."""
        builder = self.builder
        old = self._stacks.get(region)
        if old is None:
            return builder._cell_stats_stack(block, cell_of_row, self._n_cells)
        # Recompute the dirty cells from their rows of the updated block,
        # through the builder's own grouping, so the statistics are
        # bit-identical to a scratch pass; a dirty cell left without rows
        # comes back as exact zeros.  Clean cells' rows did not move
        # relative to each other and keep their cached bits.
        dirty = np.isin(cell_of_row, dirty_cells)
        recomputed = builder._cell_stats_stack(
            block.where(dirty), cell_of_row[dirty], self._n_cells
        )
        stack = old.copy()
        stack.assign(dirty_cells, recomputed.select(dirty_cells))
        return stack

    # ----------------------------------------------------------------- result

    def _result_from_cache(self) -> BellwetherCubeResult:
        """Winners from the cached per-(level, region) errors — no solves.

        The builder's selection over the held regions in store order, so
        refreshed picks match a rebuild exactly.
        """
        builder = self.builder
        regions = self._ordered_regions()
        best: dict = {}
        for (__, __rm, keep), per in zip(
            builder._levels, self._errors if regions else ()
        ):
            n, rmse, sse, dof = (
                np.stack(column) for column in zip(*(per[r] for r in regions))
            )
            best.update(
                builder._winners(
                    keep, regions, n >= builder.min_examples, rmse, sse, dof
                )
            )
        return BellwetherCubeResult(
            builder._entries_from_best(best),
            builder.hierarchies,
            builder.confidence,
        )
