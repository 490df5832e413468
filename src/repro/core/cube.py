"""Bellwether cubes (Section 6): a bellwether region per cube subset of items.

A bellwether cube is ``{<S, r_S>}`` for every *significant* cube subset ``S``
(|S| ≥ K) induced by the item hierarchies.  Three construction algorithms:

* **naive** — one basic bellwether search per subset (reads every region's
  block once per subset);
* **single_scan** — one pass over the entire training data, keeping a
  ``MinError[S]`` entry per subset in memory (Lemma 2);
* **optimized** — the single scan plus Theorem 1: per region, sufficient
  statistics are computed once per *base cell* and then merged up the item
  hierarchy lattice, so each subset's model error costs O(p³) instead of a
  refit over its rows.  Implies training-set error (the algebraic measure).
  The algebra is batched (``StackedSuffStats``) and written once, one
  builder method per stage: ``scan_stacks`` (one scan, ``g`` per base cell)
  → ``level_tables`` (the rollup, one scatter-add per lattice level) →
  ``build_from_tables`` (one stacked LAPACK solve per level, first strict
  minimum per subset).  ``build("optimized")``,
  :func:`repro.incremental.build_cube_tables` and the incremental
  maintainer compose those stages; none carries a copy.
  ``optimized_serial`` keeps the per-pair rollup and solve: the reference,
  and the only independent implementation the batched one is checked by.

Prediction for a new item (Section 6.2): among the significant subsets
containing the item, pick the one whose bellwether model has the lowest
*upper confidence bound* of error; use its region and model.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.dimensions import CubeSubset, ItemHierarchies, Region
from repro.ml import (
    ErrorEstimate,
    LinearRegression,
    LinearSuffStats,
    StackedSuffStats,
    TrainingSetEstimator,
    add_intercept,
    default_model_factory,
)
from repro.obs.catalog import CUBE_SUBSETS_BUILT
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage import BaseCellTable, LevelTable, RegionBlock, TrainingDataStore

from .basic import _first_strict_min
from .exceptions import SearchError, TaskError
from .rowindex import RowIndex
from .task import BellwetherTask

_TRACER = get_tracer()
_SUBSETS_BUILT = get_registry().counter(CUBE_SUBSETS_BUILT)

#: Rows ``scan_stacks`` lays end to end before taking their statistics at
#: once.  A laid-out row costs ~16 (p + 3) bytes of transients (the design
#: laid and gathered, targets, weights, the sort), so this keeps them under
#: ~2 MB up to p = 12; a longer block is a run of its own.  Grouping saves
#: the fixed numpy price of a call per region, which is most of what a
#: ~300-row region costs and nothing to a long one.
SCAN_ROWS = 8_192


def solve_where(
    stats: StackedSuffStats, todo: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rmse, sse, dof)`` shaped like ``todo``, solved where it is set.

    ``stats`` holds one problem per element of the boolean ``todo``, in
    ravel order; the selected ones go through one batched solve, the rest
    read NaN / NaN / 0.
    """
    rmse = np.full(todo.shape, np.nan)
    sse = np.full(todo.shape, np.nan)
    dof = np.zeros(todo.shape, dtype=np.int64)
    if todo.any():
        rmse[todo], sse[todo], dof[todo] = stats.select(
            np.flatnonzero(todo.ravel())
        ).training_errors()
    return rmse, sse, dof


@dataclass(frozen=True)
class SubsetEntry:
    """One cell of the bellwether cube."""

    subset: CubeSubset
    n_items: int
    region: Region | None
    error: ErrorEstimate | None

    @property
    def found(self) -> bool:
        return self.region is not None


class BellwetherCubeResult:
    """The constructed cube: subset -> (bellwether region, error)."""

    def __init__(
        self,
        entries: dict[CubeSubset, SubsetEntry],
        hierarchies: ItemHierarchies,
        confidence: float,
    ):
        self._entries = entries
        self.hierarchies = hierarchies
        self.confidence = confidence

    @property
    def subsets(self) -> tuple[CubeSubset, ...]:
        return tuple(self._entries)

    def entry(self, subset: CubeSubset) -> SubsetEntry:
        try:
            return self._entries[subset]
        except KeyError:
            raise SearchError(f"subset {subset} is not in the cube") from None

    def __contains__(self, subset: CubeSubset) -> bool:
        return subset in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------ rollup/drilldown

    def crosstab(self, level: tuple[int, ...]) -> list[SubsetEntry]:
        """All cube cells at one lattice level — one rollup/drilldown view.

        Mirrors the cross-tabular interface of Section 6.2: each returned
        entry is a cell showing its bellwether region and model error.
        """
        return [e for s, e in self._entries.items() if s.level == level]

    def crosstab_text(
        self,
        level: tuple[int, ...],
        show: str = "region",
        row_hierarchy: int = 0,
        col_hierarchy: int = 1,
    ) -> str:
        """A 2-D cross tabulation of one lattice level (Section 6.2's UI).

        Rows and columns are nodes of two chosen item hierarchies; each cell
        shows the subset's bellwether region (``show="region"``) or its
        model error (``show="error"``).  Cube subsets over more than two
        hierarchies collapse the remaining ones (they are fixed per level).
        """
        if show not in ("region", "error"):
            raise SearchError(f"show must be 'region' or 'error', got {show!r}")
        entries = self.crosstab(level)
        if not entries:
            return f"(no significant subsets at level {level})"
        n_h = len(self.hierarchies.hierarchies)
        if not (0 <= row_hierarchy < n_h and 0 <= col_hierarchy < n_h):
            raise SearchError("hierarchy indices out of range")
        if row_hierarchy == col_hierarchy:
            raise SearchError("row and column hierarchies must differ")
        rows = sorted({e.subset.nodes[row_hierarchy] for e in entries})
        cols = sorted({e.subset.nodes[col_hierarchy] for e in entries})
        # Index entries by (row node, col node) once; first entry wins when
        # collapsed hierarchies make several subsets share a cell.
        by_cell: dict[tuple, SubsetEntry] = {}
        for e in entries:
            by_cell.setdefault(
                (e.subset.nodes[row_hierarchy], e.subset.nodes[col_hierarchy]), e
            )
        def cell(r, c):
            e = by_cell.get((r, c))
            if e is None:
                return ""
            if not e.found:
                return "-"
            if show == "region":
                return str(e.region)
            return f"{e.error.rmse:.4g}"
        grid = [["", *cols]] + [[r, *[cell(r, c) for c in cols]] for r in rows]
        widths = [max(len(row[j]) for row in grid) for j in range(len(cols) + 1)]
        lines = [
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in grid
        ]
        lines.insert(1, "-+-".join("-" * w for w in widths))
        return "\n".join(lines)

    def drilldown(self, subset: CubeSubset) -> list[SubsetEntry]:
        """Entries exactly one level finer on some hierarchy, nested in subset."""
        out: list[SubsetEntry] = []
        for s, e in self._entries.items():
            diffs = [sd - d for sd, d in zip(s.level, subset.level)]
            if sorted(diffs) != [0] * (len(diffs) - 1) + [1]:
                continue
            contained = all(
                node == parent or h.parent_of(node) == parent
                for h, node, parent in zip(
                    self.hierarchies.hierarchies, s.nodes, subset.nodes
                )
            )
            if contained:
                out.append(e)
        return out

    # --------------------------------------------------------------- predict

    def choose_subset(self, item_attrs: dict) -> SubsetEntry:
        """Pick the enclosing subset with the lowest upper error bound."""
        candidates = [
            self._entries[s]
            for s in self.hierarchies.subsets_containing(item_attrs)
            if s in self._entries and self._entries[s].found
        ]
        if not candidates:
            raise SearchError(
                f"no significant subset with a bellwether contains {item_attrs}"
            )
        return min(candidates, key=lambda e: e.error.upper(self.confidence))


class BellwetherCubeBuilder:
    """Builds bellwether cubes with any of the three algorithms.

    Parameters
    ----------
    task, store:
        Problem definition and the entire training data.
    hierarchies:
        Item hierarchies over item-table attributes (Figure 5).
    min_subset_size:
        The significance threshold K: subsets with fewer items are skipped.
    confidence:
        The P% level used by prediction's upper-confidence-bound rule.
    min_examples:
        Minimum (region ∩ subset) examples for a model to count.
    """

    def __init__(
        self,
        task: BellwetherTask,
        store: TrainingDataStore,
        hierarchies: ItemHierarchies,
        min_subset_size: int = 10,
        confidence: float = 0.95,
        min_examples: int | None = None,
        item_ids: Sequence | None = None,
    ):
        for h in hierarchies.hierarchies:
            task.item_table.schema.require(h.attribute)
        self.task = task
        self.store = store
        self.hierarchies = hierarchies
        self.min_subset_size = min_subset_size
        self.confidence = confidence
        p = len(store.feature_names) + 1  # + intercept
        self.min_examples = min_examples if min_examples is not None else max(5, p + 3)
        cell_of_all, self._cells = hierarchies.encode_items(task.item_table)
        all_ids = np.asarray(task.item_ids)
        if item_ids is None:
            keep_rows = np.arange(len(all_ids))
        else:
            wanted = np.asarray(list(item_ids))
            keep_rows = np.flatnonzero(np.isin(all_ids, wanted))
            if len(keep_rows) != len(np.unique(wanted)):
                raise TaskError("item_ids contains ids not in the item table")
        self._ids = all_ids[keep_rows]
        self._cell_of_item = cell_of_all[keep_rows]
        self._index = RowIndex(self._ids)
        # Significant subsets per level (the iceberg step of Section 6.3).
        self._levels: list = []
        for level in hierarchies.levels():
            rm = hierarchies.rollup_map(level, self._cells)
            counts = np.bincount(
                rm.subset_of_base[self._cell_of_item], minlength=len(rm.subsets)
            )
            keep = [
                (s_idx, subset, int(counts[s_idx]))
                for s_idx, subset in enumerate(rm.subsets)
                if counts[s_idx] >= self.min_subset_size
            ]
            if keep:
                self._levels.append((level, rm, keep))

    @property
    def significant_subsets(self) -> list[CubeSubset]:
        return [s for __, __, keep in self._levels for __, s, __ in keep]

    @property
    def n_levels(self) -> int:
        """Lattice levels holding at least one significant subset.

        The batched optimized build issues at most one batched solve per
        level (the ``ml.linear.batched_solves`` counter is bounded by this).
        """
        return len(self._levels)

    # ------------------------------------------------------------------ build

    def build(self, method: str = "optimized") -> BellwetherCubeResult:
        before = self.store.stats.snapshot()
        with _TRACER.span(
            "cube.build",
            method=method,
            subsets=len(self.significant_subsets),
        ) as sp:
            if method == "naive":
                entries = self._build_naive()
            elif method == "single_scan":
                entries = self._build_single_scan()
            elif method == "optimized":
                entries = self._solve_and_select(
                    self.level_tables(self.scan_stacks())
                )
            elif method == "optimized_serial":
                entries = self._build_optimized_serial()
            else:
                raise TaskError(f"unknown cube method {method!r}")
            delta = self.store.stats - before
            sp.annotate(
                full_scans=delta.full_scans, region_reads=delta.region_reads
            )
        _SUBSETS_BUILT.inc(len(entries))
        return BellwetherCubeResult(entries, self.hierarchies, self.confidence)

    def incremental(self):
        """A delta-aware maintainer for this builder's cube.

        Its ``refresh()`` returns the same
        :class:`BellwetherCubeResult` as ``build("optimized")``, bit for
        bit, while replaying store deltas onto held sufficient statistics
        instead of rescanning.
        See :class:`repro.incremental.IncrementalCubeMaintainer`.
        """
        from repro.incremental import IncrementalCubeMaintainer

        return IncrementalCubeMaintainer(self)

    # ------------------------------------------------------------ cube tables

    def geometry_signature(self) -> dict:
        """A JSON-stable fingerprint of everything the cube's shape depends on.

        Materialized cube tables are keyed on this (plus the store version):
        two builders with equal signatures produce identical table layouts —
        same lattice levels, same significant subsets in the same order, same
        base-cell -> subset rollup maps, same item set, same thresholds.
        """

        def digest(arr: np.ndarray) -> str:
            arr = np.ascontiguousarray(arr)
            return hashlib.sha256(
                arr.dtype.str.encode() + arr.tobytes()
            ).hexdigest()

        return {
            "n_cells": len(self._cells),
            "p": len(self.store.feature_names) + 1,
            "min_examples": int(self.min_examples),
            "min_subset_size": int(self.min_subset_size),
            "items": digest(self._ids),
            "levels": [
                {
                    "level": list(level),
                    "keep": [int(s_idx) for s_idx, __s, __n in keep],
                    "rollup": digest(rm.subset_of_base),
                }
                for level, rm, keep in self._levels
            ],
        }

    def build_from_tables(self, tables: Sequence) -> BellwetherCubeResult:
        """The optimized cube from materialized per-level suffstats tables.

        ``tables`` is one :class:`~repro.storage.cubetables.LevelTable` per
        significant lattice level, in this builder's level order (what
        :meth:`level_tables` rolls up and
        :func:`repro.incremental.build_cube_tables` persists for a matching
        geometry signature).  No facts are read — ``store.full_scans`` and
        ``store.region_reads`` stay untouched — and the result is what
        ``build("optimized")`` computes at the same store version, because
        that build is this call on freshly scanned tables.
        """
        with _TRACER.span(
            "cube.build",
            method="tables",
            subsets=len(self.significant_subsets),
        ):
            entries = self._solve_and_select(tables)
        _SUBSETS_BUILT.inc(len(entries))
        return BellwetherCubeResult(entries, self.hierarchies, self.confidence)

    # ------------------------------------------------------------------ naive

    def _build_naive(self) -> dict[CubeSubset, SubsetEntry]:
        entries: dict[CubeSubset, SubsetEntry] = {}
        for __, rm, keep in self._levels:
            for s_idx, subset, n_items in keep:
                member_ids = self._ids[
                    rm.subset_of_base[self._cell_of_item] == s_idx
                ]
                best_region, best_err = None, None
                for region in self.store.regions():
                    block = self.store.read(region).restrict_to(member_ids)
                    if block.n_examples < self.min_examples:
                        continue
                    est = self.task.error_estimator.estimate(
                        block.x, block.y, block.weights
                    )
                    if best_err is None or est.rmse < best_err.rmse:
                        best_region, best_err = region, est
                entries[subset] = SubsetEntry(subset, n_items, best_region, best_err)
        return entries

    # ------------------------------------------------------------ single scan

    def _batchable(self) -> bool:
        """Is the task's error estimator the one Theorem 1 makes algebraic?

        Only the plain training-set estimator (default OLS factory) reduces
        to sufficient statistics; anything else (cross-validation, custom
        model factories) keeps the per-subset estimate path.
        """
        est = self.task.error_estimator
        return (
            isinstance(est, TrainingSetEstimator)
            and est.model_factory is default_model_factory
        )

    def _build_single_scan(self) -> dict[CubeSubset, SubsetEntry]:
        best: dict[CubeSubset, tuple[Region, ErrorEstimate]] = {}
        batchable = self._batchable()
        for region, block in self.store.scan():
            block, cell_of_row = self._own_rows(block)
            if block.n_examples == 0:
                continue
            design = add_intercept(block.x) if batchable else None
            for __, rm, keep in self._levels:
                subset_of_row = rm.subset_of_base[cell_of_row]
                counts = np.bincount(subset_of_row, minlength=len(rm.subsets))
                if batchable:
                    # Collect the qualifying subsets' sufficient statistics
                    # first, then fit them all with one batched solve per
                    # (region, level) instead of a Python-level fit each.
                    # Statistics come from the same rows in the same order
                    # as the per-subset estimator, so results are identical.
                    pending: list[LinearSuffStats] = []
                    pending_subsets: list[CubeSubset] = []
                    for s_idx, subset, __n in keep:
                        if counts[s_idx] < self.min_examples:
                            continue
                        mask = subset_of_row == s_idx
                        pending.append(
                            LinearSuffStats.from_data(
                                design[mask],
                                block.y[mask],
                                None
                                if block.weights is None
                                else block.weights[mask],
                            )
                        )
                        pending_subsets.append(subset)
                    if not pending:
                        continue
                    rmse, sse, dof = StackedSuffStats.from_stats(
                        pending
                    ).training_errors()
                    for j, subset in enumerate(pending_subsets):
                        if subset not in best or rmse[j] < best[subset][1].rmse:
                            est = ErrorEstimate(
                                rmse=float(rmse[j]),
                                kind="training",
                                sse=float(sse[j]),
                                dof=int(dof[j]),
                            )
                            best[subset] = (region, est)
                    continue
                for s_idx, subset, __n in keep:
                    if counts[s_idx] < self.min_examples:
                        continue
                    mask = subset_of_row == s_idx
                    est = self.task.error_estimator.estimate(
                        block.x[mask],
                        block.y[mask],
                        None if block.weights is None else block.weights[mask],
                    )
                    if subset not in best or est.rmse < best[subset][1].rmse:
                        best[subset] = (region, est)
        return self._entries_from_best(best)

    def _entries_from_best(
        self, best: dict[CubeSubset, tuple[Region, ErrorEstimate]]
    ) -> dict[CubeSubset, SubsetEntry]:
        entries: dict[CubeSubset, SubsetEntry] = {}
        for __, rm, keep in self._levels:
            for __, subset, n_items in keep:
                region, est = best.get(subset, (None, None))
                entries[subset] = SubsetEntry(subset, n_items, region, est)
        return entries

    # -------------------------------------------------------------- optimized

    def _own_rows(self, block: RegionBlock) -> tuple[RegionBlock, np.ndarray]:
        """``block``'s rows of this builder's items, and each one's base cell."""
        block, rows_item = self._index.restrict(block)
        return block, self._cell_of_item[rows_item]

    def scan_stacks(self) -> dict[Region, StackedSuffStats]:
        """One scan: every region's base-cell statistics, in store order.

        Regions holding no row of this builder's items are left out.
        Consecutive regions are laid end to end, up to :data:`SCAN_ROWS`
        rows and as long as they agree on being weighted, and each run's
        statistics are taken at once (:meth:`_laid_stacks`).
        """
        stacks: dict[Region, StackedSuffStats] = {}
        run: list[tuple[Region, RegionBlock, np.ndarray]] = []
        rows = 0
        for region, block in self.store.scan():
            block, cell_of_row = self._own_rows(block)
            if block.n_examples == 0:
                continue
            if run and (
                rows + block.n_examples > SCAN_ROWS
                or (block.weights is None) != (run[0][1].weights is None)
            ):
                stacks.update(self._laid_stacks(run))
                run, rows = [], 0
            run.append((region, block, cell_of_row))
            rows += block.n_examples
        if run:
            stacks.update(self._laid_stacks(run))
        return stacks

    def _laid_stacks(
        self, run: Sequence[tuple[Region, RegionBlock, np.ndarray]]
    ) -> BaseCellTable:
        """:meth:`_cell_stats_stack` of every ``(region, block, cell_of_row)``
        of ``run`` from one grouping: the blocks laid end to end.

        A stable argsort by (region, cell) leaves each segment the rows, in
        block order, :meth:`_cell_stats_stack` groups for that region alone,
        so the statistics are the same bits; that method stays the
        one-block case and the reference.  The regions' stacks are windows
        of one stack over the whole run.
        """
        regions, blocks, cells = zip(*run)
        n_cells = len(self._cells)
        sizes = [block.n_examples for block in blocks]
        key = np.concatenate(cells) + np.repeat(
            np.arange(len(run)) * n_cells, sizes
        )
        # the narrowest key type: numpy sorts 16-bit keys by radix, and a
        # stable sort is the same permutation whatever the type
        key = key.astype(np.min_scalar_type(len(run) * n_cells))
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
        design = np.empty((len(key), blocks[0].n_features + 1))
        design[:, 0] = 1.0
        np.concatenate([block.x for block in blocks], out=design[:, 1:])
        weights = None
        if blocks[0].weights is not None:
            weights = np.concatenate([block.weights for block in blocks])[order]
        laid = StackedSuffStats.zeros(len(run) * n_cells, design.shape[1])
        laid.assign(
            sorted_keys[starts],
            StackedSuffStats.from_segments(
                design[order],
                np.concatenate([block.y for block in blocks])[order],
                weights,
                np.append(starts, len(order)),
            ),
        )
        return BaseCellTable(regions, n_cells, laid)

    @staticmethod
    def _cell_stats_stack(
        block, cell_of_row: np.ndarray, n_cells: int
    ) -> StackedSuffStats:
        """One region's per-base-cell g statistics as a dense stack.

        Rows are grouped by cell with a stable argsort, so each present
        cell's segment holds the rows — in block order — the per-problem
        path hands :meth:`LinearSuffStats.from_data`, and
        :meth:`StackedSuffStats.from_segments` yields the same bits: the
        stacked rollup accumulates identical addends (absent cells
        contribute exact zeros) and the batched cube matches
        ``optimized_serial`` bit for bit.
        """
        order = np.argsort(cell_of_row, kind="stable")
        sorted_cells = cell_of_row[order]
        starts = np.flatnonzero(np.diff(sorted_cells, prepend=-1))
        stack = StackedSuffStats.zeros(n_cells, block.n_features + 1)
        stack.assign(
            sorted_cells[starts],
            StackedSuffStats.from_segments(
                add_intercept(block.x[order]),
                block.y[order],
                None if block.weights is None else block.weights[order],
                np.append(starts, len(order)),
            ),
        )
        return stack

    def level_tables(
        self, stacks: Mapping[Region, StackedSuffStats]
    ) -> list[LevelTable]:
        """Theorem 1: roll base-cell stacks up to every significant level.

        One :class:`~repro.storage.cubetables.LevelTable` per significant
        lattice level over exactly the regions of ``stacks``, in its order:
        all of them for a build or a table save, only the touched ones for
        a refresh.  Each level is one scatter-add over every given region's
        cells at once; a (region, subset) problem receives its cells'
        addends in cell order, as the per-region ``+`` rollup of
        ``optimized_serial`` does, so the sums are the same bits.  No
        solves, no reads.
        """
        p = len(self.store.feature_names) + 1  # + intercept
        cells = BaseCellTable.of(stacks, len(self._cells), p)
        regions, all_cells = cells.regions, cells.stats
        n_regions = len(regions)
        tables: list[LevelTable] = []
        with _TRACER.span(
            "cube.rollup", regions=n_regions, cells=len(self._cells)
        ):
            for level, rm, keep in self._levels:
                n_subsets = len(rm.subsets)
                keep_sidx = np.array(
                    [s_idx for s_idx, __s, __n in keep], dtype=np.int64
                )
                # (region, cell) -> (region, subset) problem, region-major
                first = np.arange(n_regions)[:, None] * n_subsets
                rolled = all_cells.rollup(
                    (first + rm.subset_of_base[None, :]).ravel(),
                    n_regions * n_subsets,
                )
                tables.append(
                    LevelTable(
                        level=tuple(level),
                        regions=regions,
                        keep_sidx=keep_sidx,
                        stats=rolled.select((first + keep_sidx[None, :]).ravel()),
                    )
                )
        return tables

    def _solve_and_select(
        self, tables: Sequence[LevelTable]
    ) -> dict[CubeSubset, SubsetEntry]:
        """One batched solve per level table, then each subset's winner.

        Model errors are training-set RMSE (the algebraic measure Theorem 1
        covers); the winning entries report chi-square-interval estimates
        exactly like :class:`~repro.ml.TrainingSetEstimator`.
        """
        if len(tables) != len(self._levels):
            raise TaskError(
                f"got {len(tables)} cube tables for {len(self._levels)} "
                "significant levels; rebuild the tables for this geometry"
            )
        best: dict[CubeSubset, tuple[Region, ErrorEstimate]] = {}
        for (level, __rm, keep), table in zip(self._levels, tables):
            if tuple(table.level) != tuple(level) or table.n_subsets != len(keep):
                raise TaskError(
                    f"cube table for level {table.level} does not match "
                    f"builder level {level}; rebuild the tables"
                )
            n = table.stats.n.reshape(table.n_regions, table.n_subsets)
            cand = n >= self.min_examples
            best.update(
                self._winners(
                    keep, table.regions, cand, *solve_where(table.stats, cand)
                )
            )
        return self._entries_from_best(best)

    @staticmethod
    def _winners(
        keep: Sequence,
        regions: Sequence[Region],
        cand: np.ndarray,
        rmse: np.ndarray,
        sse: np.ndarray,
        dof: np.ndarray,
    ) -> dict[CubeSubset, tuple[Region, ErrorEstimate]]:
        """Per subset of ``keep``, the first strict minimum over ``regions``.

        All four arrays are ``(len(regions), len(keep))``; only ``cand``
        positions (enough examples) compete, in the order of ``regions`` —
        store order, which is what makes a pick equal the serial loops'.
        """
        best: dict[CubeSubset, tuple[Region, ErrorEstimate]] = {}
        for j, (__s_idx, subset, __n) in enumerate(keep):
            hits = np.flatnonzero(cand[:, j])
            if not len(hits):
                continue
            k = hits[_first_strict_min(rmse[hits, j])]
            est = ErrorEstimate(
                rmse=float(rmse[k, j]),
                kind="training",
                sse=float(sse[k, j]),
                dof=int(dof[k, j]),
            )
            best[subset] = (regions[k], est)
        return best

    # ------------------------------------------------- optimized (per-problem)

    def _build_optimized_serial(self) -> dict[CubeSubset, SubsetEntry]:
        """The pre-batching optimized path: one Python-level solve per
        (subset, region) pair.

        Kept as the reference implementation for the batched-equivalence
        tests and as the recorded serial baseline the bench-regression CI
        step compares the batched kernel against.
        """
        best: dict[CubeSubset, tuple[Region, ErrorEstimate]] = {}
        n_cells = len(self._cells)
        for region, block in self.store.scan():
            block, cell_of_row = self._own_rows(block)
            if block.n_examples == 0:
                continue
            design = add_intercept(block.x)
            # g per base cell, one grouped pass over the block.
            order = np.argsort(cell_of_row, kind="stable")
            sorted_cells = cell_of_row[order]
            starts = np.flatnonzero(np.diff(sorted_cells, prepend=-1))
            cell_stats: dict[int, LinearSuffStats] = {}
            bounds = np.append(starts, len(sorted_cells))
            for b_idx in range(len(starts)):
                rows = order[bounds[b_idx]:bounds[b_idx + 1]]
                cell_stats[int(sorted_cells[bounds[b_idx]])] = (
                    LinearSuffStats.from_data(
                        design[rows],
                        block.y[rows],
                        None if block.weights is None else block.weights[rows],
                    )
                )
            with _TRACER.span("cube.rollup", cells=len(cell_stats)):
                self._rollup_region(region, cell_stats, best)
        return self._entries_from_best(best)

    def _rollup_region(
        self,
        region: Region,
        cell_stats: dict[int, "LinearSuffStats"],
        best: dict[CubeSubset, tuple[Region, ErrorEstimate]],
    ) -> None:
        """Theorem 1: merge one region's base-cell stats up every level."""
        for __, rm, keep in self._levels:
            # Merge base-cell stats into subset stats (the rollup).
            subset_stats: dict[int, LinearSuffStats] = {}
            for cell, stats in cell_stats.items():
                s_idx = int(rm.subset_of_base[cell])
                if s_idx in subset_stats:
                    subset_stats[s_idx] = subset_stats[s_idx] + stats
                else:
                    subset_stats[s_idx] = stats
            for s_idx, subset, __n in keep:
                stats = subset_stats.get(s_idx)
                if stats is None or stats.n < self.min_examples:
                    continue
                est = ErrorEstimate(
                    rmse=stats.rmse(),
                    kind="training",
                    sse=stats.sse(),
                    dof=stats.dof,
                )
                if subset not in best or est.rmse < best[subset][1].rmse:
                    best[subset] = (region, est)


class CubePredictor:
    """Item-centric prediction backed by a bellwether cube."""

    def __init__(
        self,
        result: BellwetherCubeResult,
        task: BellwetherTask,
        store: TrainingDataStore,
        item_ids: Sequence | None = None,
    ):
        self.result = result
        self.task = task
        self.store = store
        item_table = task.item_table
        self._attr_of: dict[str, dict] = {
            h.attribute: dict(
                zip(item_table[task.id_column], item_table[h.attribute])
            )
            for h in result.hierarchies.hierarchies
        }
        self._model_cache: dict[tuple[CubeSubset, Region], LinearRegression] = {}
        # Models are fit on the *training* item set only (matters when the
        # cube was built on a train fold and test items sit in the store).
        self._train_ids = (
            np.asarray(task.item_ids)
            if item_ids is None
            else np.asarray(list(item_ids))
        )

    def _attrs(self, item_id) -> dict:
        return {a: str(v[item_id]) for a, v in self._attr_of.items()}

    def region_for(self, item_id) -> Region:
        return self.result.choose_subset(self._attrs(item_id)).region

    def _subset_member_ids(self, subset: CubeSubset) -> np.ndarray:
        mask = self.result.hierarchies.member_mask(self.task.item_table, subset)
        members = np.asarray(self.task.item_ids)[mask]
        return members[np.isin(members, self._train_ids)]

    def predict(self, item_id) -> float:
        """Predict τ_i via the chosen subset's bellwether region and model."""
        entry = self.result.choose_subset(self._attrs(item_id))
        key = (entry.subset, entry.region)
        if key not in self._model_cache:
            block = self.store.read(entry.region).restrict_to(
                self._subset_member_ids(entry.subset)
            )
            self._model_cache[key] = LinearRegression().fit(block.x, block.y)
        block = self.store.read(entry.region)
        hit = np.flatnonzero(block.item_ids == item_id)
        if len(hit):
            return float(self._model_cache[key].predict(block.x[hit[0]])[0])
        # No data for the item in the chosen region: fall back to the
        # subset's training mean (the budget bought nothing usable).
        member_block = self.store.read(entry.region).restrict_to(
            self._subset_member_ids(entry.subset)
        )
        if member_block.n_examples:
            return float(member_block.y.mean())
        raise SearchError(f"cannot predict item {item_id!r}")
