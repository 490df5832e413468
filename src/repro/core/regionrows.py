"""Every region's training rows held in memory: any item subset, no scan.

Theorem 1 makes ``g(S) = <Y'WY, X'WX, X'WY>`` a sum over the items of
``S``, so the error of *any* item subset in every region is a function of
rows a store scan has already shown.  :class:`RegionRows` keeps those rows
— per region, the design matrix (intercept included) in block row order —
and :meth:`RegionRows.evaluate` answers a subset by masking each region's
rows, taking the same :meth:`~repro.ml.LinearSuffStats.from_data` of the
same compacted rows :meth:`BasicBellwetherSearch.evaluate_all` would, and
fitting every region with one batched solve.  The results equal
``evaluate_all(item_ids=ids)`` under the plain training-set estimator bit
for bit; that method stays the reference.

The value is immutable.  :meth:`RegionRows.advance` carries it across
store deltas by re-reading only the regions the changelog names; every
other region's arrays are shared with the predecessor.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.dimensions import Region
from repro.ml import LinearSuffStats, StackedSuffStats, add_intercept
from repro.storage import RegionBlock, TrainingDataStore

from .basic import RegionResult, results_from_stats
from .rowindex import RowIndex

__all__ = ["RegionRows"]


@dataclass(frozen=True)
class _Rows:
    """One region's block, ready to be masked."""

    design: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None
    #: Each row's position in the item table; ``len(table)`` = not in it.
    pos: np.ndarray
    #: The item ids of the rows not in the table, in row order (``None``
    #: when every row is — the usual case).
    strangers: np.ndarray | None


@dataclass(frozen=True)
class RegionRows:
    """The rows of every region of a store at one version, in store order."""

    #: The task's item table; a row's ``pos`` indexes it.
    items: RowIndex
    regions: tuple[Region, ...]
    blocks: tuple[_Rows, ...]

    # ------------------------------------------------------------------ build

    @classmethod
    def from_store(cls, store: TrainingDataStore, item_ids) -> "RegionRows":
        """One ``store.scan()``; ``item_ids`` is the task's item table."""
        items = RowIndex(item_ids)
        regions, blocks = [], []
        for region, block in store.scan():
            regions.append(region)
            blocks.append(_rows_of(block, items))
        return cls(items, tuple(regions), tuple(blocks))

    def advance(self, store: TrainingDataStore, deltas: Iterable) -> "RegionRows":
        """The rows after ``deltas``, the store's changelog since this value.

        Only the regions a delta names are read again (``store.read``,
        never a scan); the rest keep their arrays.
        """
        touched = {
            region for applied in deltas for region in applied.touched_regions
        }
        held = dict(zip(self.regions, self.blocks))
        regions = tuple(store.regions())
        return RegionRows(
            self.items,
            regions,
            tuple(
                _rows_of(store.read(region), self.items)
                if region in touched
                else held[region]
                for region in regions
            ),
        )

    # --------------------------------------------------------------- evaluate

    def evaluate(
        self,
        ids: Sequence,
        costs: Mapping[Region, float],
        min_examples: int,
    ) -> list[RegionResult]:
        """``evaluate_all(item_ids=ids)`` from the held rows, one batched solve.

        Regions with fewer than ``min_examples`` rows of ``ids`` are
        skipped; coverage is measured against the distinct ids named.
        """
        wanted = frozenset(ids)
        named = np.asarray(list(wanted))
        known = self.items.contains(named)
        outside = len(self.items)  # the position of a row not in the table
        member = np.zeros(outside + 1, dtype=bool)
        member[self.items.rows_of(named[known])] = True
        unknown = named[~known]
        regions: list[Region] = []
        stats: list[LinearSuffStats] = []
        for region, rows in zip(self.regions, self.blocks):
            mask = member[rows.pos]
            if rows.strangers is not None and len(unknown):
                mask[rows.pos == outside] = np.isin(rows.strangers, unknown)
            if np.count_nonzero(mask) < min_examples:
                continue
            regions.append(region)
            stats.append(
                LinearSuffStats.from_data(
                    rows.design[mask],
                    rows.y[mask],
                    None if rows.weights is None else rows.weights[mask],
                )
            )
        if not stats:
            return []
        return results_from_stats(
            regions,
            StackedSuffStats.from_stats(stats),
            len(wanted),
            costs.__getitem__,
            min_examples,
        )


def _rows_of(block: RegionBlock, items: RowIndex) -> _Rows:
    ids = np.asarray(block.item_ids)
    known = items.contains(ids)
    pos = np.full(len(ids), len(items), dtype=np.intp)
    pos[known] = items.rows_of(ids[known])
    return _Rows(
        design=add_intercept(block.x),
        y=np.asarray(block.y, dtype=np.float64),
        weights=block.weights,
        pos=pos,
        strangers=None if known.all() else ids[~known],
    )
