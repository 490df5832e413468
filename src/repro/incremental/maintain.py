"""Delta-aware bellwether-cube maintenance (Theorem 1, applied to updates).

A maintainer holds, per region, one :class:`~repro.ml.StackedSuffStats` of
per-base-cell statistics — the same stacks the optimized builder scans for —
and does two separate jobs on them:

* **bringing the stacks to the store's version**
  (:meth:`IncrementalCubeMaintainer.advance`): one scan the first time;
  after that the store's changelog is replayed — touched item ids map to
  their base cells and only those cells' statistics are refreshed.
  Untouched cells keep their bits.  Statistics only: nothing is solved, so
  a caller that wants tables (:meth:`~IncrementalCubeMaintainer.level_tables`,
  :func:`~repro.incremental.build_cube_tables`) stops here;
* **keeping solutions current** (:meth:`IncrementalCubeMaintainer.refresh`):
  advance, solve every (subset, region) problem the first time a cube is
  asked for, afterwards re-roll the touched regions and re-solve only the
  dirty problems — one batched solve per level — and replay the winners.

Two refresh modes:

* ``"exact"`` (default) — dirty cells are recomputed from the touched
  region's *updated* rows.  Because deltas retract first and append at the
  block's end, surviving rows keep their original relative order, so every
  statistic — touched or not — is **bit-for-bit** what a from-scratch
  optimized build over the updated store computes.
* ``"merge"`` — dirty cells are updated algebraically
  (``cached + g(appended) − g(removed)``, the paper's merge applied in
  reverse).  Never rereads surviving rows, at the cost of float-associativity
  drift (equal to scratch up to rounding, not bit-for-bit).

Winner selection replays the builder's sequential first-strict-min rule over
candidates in store order, so refreshed picks match a rebuild exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.cube import (
    BellwetherCubeBuilder,
    BellwetherCubeResult,
    _first_strict_min,
)
from repro.dimensions import Region
from repro.ml import (
    ErrorEstimate,
    LinearSuffStats,
    StackedSuffStats,
    add_intercept,
)
from repro.exceptions import ConfigError
from repro.obs.catalog import (
    INCR_CACHE_HITS,
    INCR_CELLS_RESOLVED,
    INCR_FULL_REBUILDS,
    INCR_REGIONS_REFRESHED,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage import StorageError

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
    mode:
        ``"exact"`` (bit-for-bit, rereads touched regions) or ``"merge"``
        (pure suffstats algebra, equal up to float associativity).
    """

    def __init__(self, builder: BellwetherCubeBuilder, mode: str = "exact"):
        if mode not in ("exact", "merge"):
            raise ConfigError(f"unknown refresh mode {mode!r}")
        if not builder._batchable():
            raise ConfigError(
                "incremental maintenance needs the algebraic (training-set) "
                "error estimator; this task's estimator is not batchable"
            )
        self.builder = builder
        self.mode = mode
        self._version: int | None = None  # None = cold (no stacks yet)
        self._stacks: dict[Region, StackedSuffStats] = {}
        # Per lattice level, per region: arrays over the level's significant
        # subsets — example count, and the solved rmse/sse/dof (NaN/0 where
        # the subset has too few examples in that region).  None until a
        # cube is asked for, and again after a scan replaced every stack.
        self._errors: list[dict[Region, dict[str, np.ndarray]]] | None = None
        # Regions whose stacks moved since ``_errors`` was last current,
        # with the base cells that moved, in changelog order.
        self._dirty: dict[Region, np.ndarray] = {}

    # --------------------------------------------------------------- geometry

    @property
    def _n_cells(self) -> int:
        return len(self.builder._cells)

    @property
    def _p(self) -> int:
        return len(self.builder.store.feature_names) + 1  # + intercept

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
        self._stacks = dict(stacks)
        self._version = version

    def advance(self) -> str:
        """Bring the stacks to the store's current version.  No solves.

        Cold maintainers pay one full scan.  Warm ones replay
        ``store.deltas_since`` onto their stacks; a changelog gap triggers a
        loud full rebuild.  Returns where the statistics came from
        (``"scan"``, ``"rebuild"``, ``"delta"`` or ``"noop"``).
        """
        if self._version is None:
            self._scan()
            return "scan"
        try:
            deltas = self.builder.store.deltas_since(self._version)
        except StorageError:
            _FULL_REBUILDS.inc()
            self._scan()
            return "rebuild"
        if not deltas:
            return "noop"
        self._replay(deltas)
        return "delta"

    def _scan(self) -> None:
        """One scan: every region's base-cell stack, from its rows."""
        builder = self.builder
        self._stacks = {}
        self._errors = None
        self._dirty = {}
        for region, block in builder.store.scan():
            block = block.restrict_to(builder._ids)
            if block.n_examples == 0:
                continue
            rows_item = builder._index.rows_of(block.item_ids)
            cell_of_row = builder._cell_of_item[rows_item]
            self._stacks[region] = builder._cell_stats_stack(
                block, cell_of_row, self._n_cells
            )
        self._version = builder.store.version

    def _replay(self, deltas: list) -> None:
        """Fold the changelog entries into the stacks, cell by dirty cell."""
        builder = self.builder
        store = builder.store
        touched: dict[Region, list[np.ndarray]] = {}
        for applied in deltas:
            # Drops forget the region *in sequence*, so a later delta that
            # re-adds it rebuilds from nothing instead of patching a stack
            # whose rows are long gone.
            for region in applied.delta.drop_regions:
                self._forget_region(region)
                touched.pop(region, None)
            for region in applied.delta.blocks:
                touched.setdefault(region, []).append(
                    applied.touched_items(region)
                )
        _REGIONS_REFRESHED.inc(len(touched))
        for region, id_lists in touched.items():
            dirty_cells = self._dirty_cells(np.concatenate(id_lists))
            block = store.read(region).restrict_to(builder._ids)
            if block.n_examples == 0:
                self._forget_region(region)
                continue
            self._stacks[region] = self._refresh_stack(
                region, block, dirty_cells, deltas
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
        with _TRACER.span("incr.refresh", mode=self.mode) as sp:
            source = self.advance()
            sp.annotate(source=source)
            if self._errors is None:
                self._solve_all_levels()
            elif self._dirty:
                self._solve_dirty()
            elif source == "noop":
                _CACHE_HITS.inc()
        return self._result_from_cache()

    def _solve_all_levels(self) -> None:
        """(Re)solve every held region's significant subsets, per level.

        One concatenated batched solve per lattice level, like the
        optimized builder — the per-problem solutions are identical because
        stacked LAPACK is deterministic per matrix.
        """
        builder = self.builder
        regions = self._ordered_regions()
        self._errors = []
        self._dirty = {}
        for __, rm, keep in builder._levels:
            keep_sidx = np.array([s_idx for s_idx, __s, __n in keep])
            per: dict[Region, dict[str, np.ndarray]] = {}
            pending: list[StackedSuffStats] = []
            slots: list[tuple[Region, np.ndarray]] = []
            for region in regions:
                rolled = self._stacks[region].rollup(
                    rm.subset_of_base, len(rm.subsets)
                ).select(keep_sidx)
                per[region] = self._blank_errors(len(keep), rolled.n)
                cand = np.flatnonzero(rolled.n >= builder.min_examples)
                if len(cand):
                    pending.append(rolled.select(cand))
                    slots.append((region, cand))
            self._errors.append(per)
            self._scatter_solutions(per, pending, slots)

    @staticmethod
    def _blank_errors(n_keep: int, n_vec: np.ndarray) -> dict[str, np.ndarray]:
        return {
            "n": n_vec.copy(),
            "rmse": np.full(n_keep, np.nan),
            "sse": np.full(n_keep, np.nan),
            "dof": np.zeros(n_keep, dtype=np.int64),
        }

    def _scatter_solutions(
        self,
        per: dict[Region, dict[str, np.ndarray]],
        pending: list[StackedSuffStats],
        slots: list[tuple[Region, np.ndarray]],
    ) -> None:
        """Solve the pending problems in one batch; write results back."""
        if not pending:
            return
        rmse, sse, dof = self.builder._training_errors(
            StackedSuffStats.concatenate(pending)
        )
        _CELLS_RESOLVED.inc(len(rmse))
        offset = 0
        for region, cand in slots:
            k = len(cand)
            per[region]["rmse"][cand] = rmse[offset:offset + k]
            per[region]["sse"][cand] = sse[offset:offset + k]
            per[region]["dof"][cand] = dof[offset:offset + k]
            offset += k

    def _solve_dirty(self) -> None:
        """Re-roll the regions whose stacks moved; re-solve what that dirtied."""
        builder = self.builder
        # Per level: dirty problems gathered across every touched region,
        # solved by one batched call after the loop.
        pending: list[list[StackedSuffStats]] = [[] for __ in builder._levels]
        slots: list[list[tuple[Region, np.ndarray]]] = [
            [] for __ in builder._levels
        ]
        for region, dirty_cells in self._dirty.items():
            stack = self._stacks[region]
            for lvl, (__, rm, keep) in enumerate(builder._levels):
                keep_sidx = np.array([s_idx for s_idx, __s, __n in keep])
                rolled = stack.rollup(rm.subset_of_base, len(rm.subsets)).select(
                    keep_sidx
                )
                old = self._errors[lvl].get(region)
                per = self._blank_errors(len(keep), rolled.n)
                if old is not None:
                    # Clean subsets' base cells did not move: their cached
                    # solutions are still bit-exact.  Only dirty subsets
                    # (those receiving a dirty base cell) re-enter the solver.
                    dirty_s = np.unique(rm.subset_of_base[dirty_cells])
                    dirty_pos = np.flatnonzero(np.isin(keep_sidx, dirty_s))
                    clean = np.setdiff1d(
                        np.arange(len(keep)), dirty_pos, assume_unique=True
                    )
                    for key in ("rmse", "sse", "dof"):
                        per[key][clean] = old[key][clean]
                else:
                    # A region the solutions have not seen: all of it.
                    dirty_pos = np.flatnonzero(rolled.n > 0)
                self._errors[lvl][region] = per
                cand = dirty_pos[rolled.n[dirty_pos] >= builder.min_examples]
                if len(cand):
                    pending[lvl].append(rolled.select(cand))
                    slots[lvl].append((region, cand))
        for lvl in range(len(builder._levels)):
            self._scatter_solutions(self._errors[lvl], pending[lvl], slots[lvl])
        self._dirty = {}

    def _forget_region(self, region: Region) -> None:
        self._stacks.pop(region, None)
        self._dirty.pop(region, None)
        for per in self._errors or ():
            per.pop(region, None)

    def _dirty_cells(self, item_ids: np.ndarray) -> np.ndarray:
        """The base cells of the builder's items among ``item_ids``."""
        builder = self.builder
        ids = np.unique(item_ids)
        known = builder._index.contains(ids)
        rows = builder._index.rows_of(ids[known])
        return np.unique(builder._cell_of_item[rows])

    def _refresh_stack(
        self,
        region: Region,
        block,
        dirty_cells: np.ndarray,
        deltas: list,
    ) -> StackedSuffStats:
        """The region's updated base-cell stack (exact or algebraic)."""
        builder = self.builder
        old = self._stacks.get(region)
        rows_item = builder._index.rows_of(block.item_ids)
        cell_of_row = builder._cell_of_item[rows_item]
        if old is None:
            return builder._cell_stats_stack(block, cell_of_row, self._n_cells)
        if self.mode == "merge":
            return self._merge_stack(region, old, deltas)
        # Exact mode: recompute the dirty cells from the updated block.
        # Rows reach from_data in ascending row order — the same order the
        # builder's stable-argsort grouping uses — so recomputed statistics
        # are bit-identical to a scratch pass; clean cells' rows did not
        # move relative to each other and keep their cached bits.
        stack = old.copy()
        design = add_intercept(block.x)
        refreshed = []
        for cell in dirty_cells:
            rows = np.flatnonzero(cell_of_row == cell)
            if len(rows):
                refreshed.append(
                    LinearSuffStats.from_data(
                        design[rows],
                        block.y[rows],
                        None if block.weights is None else block.weights[rows],
                    )
                )
            else:
                refreshed.append(LinearSuffStats.zeros(self._p))
        if refreshed:
            stack.assign(dirty_cells, StackedSuffStats.from_stats(refreshed))
        return stack

    def _merge_stack(
        self,
        region: Region,
        old: StackedSuffStats,
        deltas: list,
    ) -> StackedSuffStats:
        """``cached + g(appended rows) − g(removed rows)``, per base cell."""
        stack = old
        for applied in deltas:
            bd = applied.delta.blocks.get(region)
            if bd is not None and bd.append is not None:
                stack = stack + self._rows_stack(bd.append)
            removed = applied.removed.get(region)
            if removed is not None and removed.n_examples:
                stack = stack - self._rows_stack(removed)
        return stack

    def _rows_stack(self, block) -> StackedSuffStats:
        """Delta rows (restricted to the builder's items) grouped by cell."""
        builder = self.builder
        sub = block.restrict_to(builder._ids)
        if sub.n_examples == 0:
            return StackedSuffStats.zeros(self._n_cells, self._p)
        rows_item = builder._index.rows_of(sub.item_ids)
        cells = builder._cell_of_item[rows_item]
        return StackedSuffStats.from_groups(
            add_intercept(sub.x), sub.y, sub.weights, cells, self._n_cells
        )

    # ------------------------------------------------------------ cube tables

    def level_tables(self) -> list:
        """The stacks as materialized per-level cube tables.  No solves.

        One :class:`~repro.storage.cubetables.LevelTable` per significant
        lattice level: every held region's base cells rolled up to the
        level's significant subsets, region-major — bit-identical to the
        rollup ``build("optimized")`` performs, so a cube built from these
        tables (:meth:`BellwetherCubeBuilder.build_from_tables`) matches a
        scratch build exactly.  Requires stacks (:meth:`advance` or
        :meth:`refresh` first).
        """
        from repro.storage import LevelTable

        if self._version is None:
            raise ConfigError("advance() the maintainer before level_tables()")
        builder = self.builder
        regions = tuple(self._ordered_regions())
        tables: list = []
        for level, rm, keep in builder._levels:
            keep_sidx = np.array(
                [s_idx for s_idx, __s, __n in keep], dtype=np.int64
            )
            per = [
                self._stacks[r]
                .rollup(rm.subset_of_base, len(rm.subsets))
                .select(keep_sidx)
                for r in regions
            ]
            stats = (
                StackedSuffStats.concatenate(per)
                if per
                else StackedSuffStats.zeros(0, self._p)
            )
            tables.append(
                LevelTable(
                    level=tuple(level),
                    regions=regions,
                    keep_sidx=keep_sidx,
                    stats=stats,
                )
            )
        return tables

    # ----------------------------------------------------------------- result

    def _result_from_cache(self) -> BellwetherCubeResult:
        """Winners from the cached per-(level, region) errors — no solves.

        Replays the builder's tie-breaking: per subset, candidates (enough
        examples) in store-region order, first strict minimum wins.
        """
        builder = self.builder
        regions = self._ordered_regions()
        best: dict = {}
        for lvl, (__, __rm, keep) in enumerate(builder._levels):
            per = self._errors[lvl]
            if not regions:
                continue
            n_mat = np.stack([per[r]["n"] for r in regions])
            rmse_mat = np.stack([per[r]["rmse"] for r in regions])
            cand = n_mat >= builder.min_examples
            for j, (__s_idx, subset, __n) in enumerate(keep):
                hits = np.flatnonzero(cand[:, j])
                if not len(hits):
                    continue
                k = hits[_first_strict_min(rmse_mat[hits, j])]
                winner = regions[k]
                best[subset] = (
                    winner,
                    ErrorEstimate(
                        rmse=float(per[winner]["rmse"][j]),
                        kind="training",
                        sse=float(per[winner]["sse"][j]),
                        dof=int(per[winner]["dof"][j]),
                    ),
                )
        entries = builder._entries_from_best(best)
        return BellwetherCubeResult(
            entries, builder.hierarchies, builder.confidence
        )
