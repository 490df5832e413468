"""Every region's training rows held in memory: any item subset, no scan.

Theorem 1 makes ``g(S) = <Y'WY, X'WX, X'WY>`` a sum over the items of
``S``, so the error of *any* item subset in every region is a function of
rows a store scan has already shown.  :class:`RegionRows` keeps those rows
as flat row tables — the laid rows ``[1 | x | y]`` (the design with its
intercept, the target last), weights and item-table positions of
consecutive regions laid end to end in store order, block row order kept —
and :meth:`RegionRows.evaluate` answers a subset with one membership gather
and one compaction per table, then
:meth:`~repro.ml.StackedSuffStats.from_segments` (one Gram per region) over
the compacted block and one batched solve, returned as columns
(:class:`~repro.core.basic.RegionProfile`).  Each segment holds the rows,
in block order, :meth:`BasicBellwetherSearch.evaluate_all` would compact
for that region, so the columns equal those of
``evaluate_all(item_ids=ids)`` under the plain training-set estimator bit
for bit; that method stays the reference.

The value is immutable.  :meth:`RegionRows.advance` carries it across
store deltas by re-reading only the regions the changelog names and
laying out again only the tables that hold one; every other table is
shared with the predecessor.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.dimensions import Region
from repro.ml import StackedSuffStats, design_rows
from repro.storage import RegionBlock, TrainingDataStore

from .basic import RegionProfile, results_from_stats
from .rowindex import RowIndex

__all__ = ["RegionRows"]

#: Regions per table.  A table is what a delta copies and what ``evaluate``
#: pays a fixed handful of array calls for: one table for the whole store
#: made every delta hold a second copy of all rows until it published
#: (serve_delta_mix ``peak_rss_mb`` +4.4 %), one per region is 156 rounds
#: of per-region Python per answer.
TABLE_REGIONS = 16


@dataclass(frozen=True)
class _Table:
    """Consecutive regions' rows laid end to end."""

    regions: tuple[Region, ...]
    #: Region ``k`` is rows ``bounds[k]:bounds[k + 1]`` of the columns below.
    bounds: np.ndarray
    #: The laid rows ``[1 | x | y]``.
    design: np.ndarray
    #: ``None`` when no region is weighted; else 1.0 on the rows of a region
    #: that is not, which ``weighted`` (one flag per region) tells apart.
    weights: np.ndarray | None
    weighted: np.ndarray
    #: Each row's position in the item table; ``len(items)`` = not in it.
    pos: np.ndarray
    #: The item ids of the rows not in the table, in row order (usually
    #: none); region ``k``'s are ``stranger_bounds[k]:stranger_bounds[k + 1]``.
    strangers: np.ndarray
    stranger_bounds: np.ndarray

    @classmethod
    def lay(cls, regions: Sequence[Region], columns: Sequence[tuple]) -> "_Table":
        """``columns[k]`` is region ``k``'s :func:`_columns` (or a :meth:`slice`)."""
        design, weights, pos, strangers = zip(*columns)
        weighted = np.array([w is not None for w in weights])
        if weighted.any():
            weights = [np.ones(len(v)) if w is None else w for v, w in zip(pos, weights)]
        return cls(
            tuple(regions),
            _offsets(pos),
            _lay(design),
            _lay(weights) if weighted.any() else None,
            weighted,
            _lay(pos),
            np.concatenate(strangers),
            _offsets(strangers),
        )

    def slice(self, k: int) -> tuple:
        """Region ``k``'s columns, as :func:`_columns` made them (views)."""
        rows = slice(self.bounds[k], self.bounds[k + 1])
        return (
            self.design[rows],
            self.weights[rows] if self.weighted[k] else None,
            self.pos[rows],
            self.strangers[self.stranger_bounds[k]:self.stranger_bounds[k + 1]],
        )

    def selected(self, member: np.ndarray, unknown: np.ndarray) -> np.ndarray:
        """The numbers of the rows whose item ``member`` (or ``unknown``) names."""
        mask = member[self.pos]
        if len(self.strangers) and len(unknown):
            mask[self.pos == len(member) - 1] = np.isin(self.strangers, unknown)
        return np.flatnonzero(mask)


@dataclass(frozen=True)
class RegionRows:
    """The rows of every region of a store at one version, in store order."""

    #: The task's item table; a row's ``pos`` indexes it.
    items: RowIndex
    #: Every region once, in store order, ``TABLE_REGIONS`` to a table at most.
    tables: tuple[_Table, ...]

    @cached_property
    def regions(self) -> tuple[Region, ...]:
        """Every region, in store order: the list an evaluated profile indexes."""
        return tuple(region for table in self.tables for region in table.regions)

    # ------------------------------------------------------------------ build

    @classmethod
    def from_store(cls, store: TrainingDataStore, item_ids) -> "RegionRows":
        """One ``store.scan()``; ``item_ids`` is the task's item table."""
        items = RowIndex(item_ids)
        tables, regions, columns = [], [], []
        for region, block in store.scan():
            regions.append(region)
            columns.append(_columns(block, items))
            if len(regions) == TABLE_REGIONS:
                tables.append(_Table.lay(regions, columns))
                regions, columns = [], []
        if regions:
            tables.append(_Table.lay(regions, columns))
        return cls(items, tuple(tables))

    def advance(self, store: TrainingDataStore, deltas: Iterable) -> "RegionRows":
        """The rows after ``deltas``, the store's changelog since this value.

        Only the regions a delta names are read again (``store.read``,
        never a scan).  A table none of whose regions moved is shared as it
        is, wherever its regions still stand together in the store's order;
        the other regions are laid out again from their slices and the
        re-read blocks.
        """
        touched = {
            region for applied in deltas for region in applied.touched_regions
        }
        clean = {
            table.regions[0]: table
            for table in self.tables
            if touched.isdisjoint(table.regions)
        }
        held = {
            region: (table, k)
            for table in self.tables
            for k, region in enumerate(table.regions)
        }
        regions = tuple(store.regions())
        tables: list[_Table] = []
        pending: list[Region] = []

        def lay_pending() -> None:
            for start in range(0, len(pending), TABLE_REGIONS):
                group = pending[start:start + TABLE_REGIONS]
                tables.append(
                    _Table.lay(
                        group,
                        [
                            _columns(store.read(region), self.items)
                            if region in touched
                            else held[region][0].slice(held[region][1])
                            for region in group
                        ],
                    )
                )
            pending.clear()

        at = 0
        while at < len(regions):
            table = clean.get(regions[at])
            if table is not None and regions[at:at + len(table.regions)] == table.regions:
                lay_pending()
                tables.append(table)
                at += len(table.regions)
            else:
                pending.append(regions[at])
                at += 1
        lay_pending()
        return RegionRows(self.items, tuple(tables))

    # --------------------------------------------------------------- evaluate

    def evaluate(
        self, ids: Iterable, cost: np.ndarray, min_examples: int
    ) -> RegionProfile:
        """``evaluate_all(item_ids=ids)`` from the held rows, one batched solve.

        ``cost`` prices every region, aligned with :attr:`regions`.  Regions
        with fewer than ``min_examples`` rows of ``ids`` are skipped;
        coverage is measured against the distinct ids named.
        """
        wanted = frozenset(ids)
        named = np.asarray(list(wanted))
        known = self.items.contains(named)
        # one past the item table is the position of a row not in it
        member = np.zeros(len(self.items) + 1, dtype=bool)
        member[self.items.rows_of(named[known])] = True
        if not self.tables:
            return RegionProfile.of((), self.regions)
        # Rows selected per region, counted by where the region bounds fall
        # among the selected row numbers (np.add.reduceat would return the
        # element at its index for an empty segment, not 0).
        chosen = [table.selected(member, named[~known]) for table in self.tables]
        n_rows = np.concatenate(
            [
                np.diff(np.searchsorted(rows, table.bounds))
                for table, rows in zip(self.tables, chosen)
            ]
        )
        enough = n_rows >= min_examples
        kept = np.flatnonzero(enough)
        if not len(kept):
            return RegionProfile.of((), self.regions)
        # Compact the selected rows of the regions that keep enough of them
        # into one block, where they are adjacent segments in store order.
        bounds = np.concatenate([[0], np.cumsum(n_rows[kept])])
        design = np.empty((bounds[-1], self.tables[0].design.shape[1]))
        weights = None
        if any(table.weights is not None for table in self.tables):
            weights = np.ones(bounds[-1])
        row = first = 0
        for table, rows in zip(self.tables, chosen):
            regions = slice(first, first + len(table.regions))
            rows = rows[np.repeat(enough[regions], n_rows[regions])]
            block = slice(row, row + len(rows))
            np.take(table.design, rows, axis=0, out=design[block], mode="clip")
            if table.weights is not None:
                np.take(table.weights, rows, out=weights[block], mode="clip")
            row, first = block.stop, regions.stop
        # One from_segments per run of regions that agree on being weighted:
        # a single run unless the store mixes weighted and unweighted blocks.
        flags = np.concatenate([table.weighted for table in self.tables])[kept]
        cuts = [0, *(np.flatnonzero(np.diff(flags)) + 1), len(kept)]
        stacks = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            rows = slice(bounds[a], bounds[b])
            stacks.append(
                StackedSuffStats.from_segments(
                    design[rows],
                    weights[rows] if flags[a] else None,
                    bounds[a:b + 1] - bounds[a],
                )
            )
        return results_from_stats(
            self.regions,
            kept,
            StackedSuffStats.concatenate(stacks),
            len(wanted),
            cost[kept],
        )


def _lay(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate(arrays)`` into an anonymous mapping of its own.

    A delta replaces the tables it touches, a third of a megabyte a column
    on the e2e serve fixture.  ``malloc`` keeps a freed array of that size
    inside the heap, where smaller allocations split the hole before the
    next table is laid, so the heap grew with every delta: serve_delta_mix
    ``peak_rss_mb`` +3.7 % against +1.9 % with the columns mapped — a
    mapping goes back to the operating system when its array is dropped.
    """
    shape = (sum(len(a) for a in arrays), *arrays[0].shape[1:])
    dtype = np.result_type(*arrays)
    count = math.prod(shape)
    if count == 0:
        return np.concatenate(arrays)
    memory = mmap.mmap(-1, count * dtype.itemsize)  # lint: ignore[RPR001] — anonymous memory, no file behind it
    out = np.frombuffer(memory, dtype=dtype, count=count).reshape(shape)
    return np.concatenate(arrays, out=out)


def _offsets(arrays) -> np.ndarray:
    """Where each of ``arrays`` starts, and the last ends, laid end to end."""
    sizes = np.fromiter((len(a) for a in arrays), dtype=np.intp, count=len(arrays))
    return np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(sizes)])


def _columns(block: RegionBlock, items: RowIndex) -> tuple:
    """``(design, weights, pos, strangers)`` of one region's block."""
    ids = np.asarray(block.item_ids)
    pos = items.locate(ids)
    return (
        design_rows(block.x, block.y),
        block.weights,
        pos,
        ids[pos == len(items)],
    )
