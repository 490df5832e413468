"""Store deltas: appended / retracted training rows, applied under versioning.

The paper's Theorem 1 makes per-region model error an *algebraic* aggregate,
so the entire training data need not be regenerated when facts change — new
months of orders or new/retired items arrive as a :class:`StoreDelta` and
the stores (see :mod:`repro.storage.block_store`) fold them in, bumping a
monotone ``version``.  Downstream statistics (the cube tables
:mod:`repro.incremental` maintains) key on that version and consume the
store's changelog of :class:`AppliedDelta` records to find out *which* (region,
item) coordinates moved.

Apply semantics per region, in order:

1. rows whose item id is in ``retract_ids`` are removed (missing ids are
   ignored — retraction is idempotent);
2. ``append`` rows are concatenated at the *end* of the block.

Appending at the end keeps every surviving row in its original relative
order, which is what makes incremental per-cell sufficient statistics
bit-for-bit identical to a from-scratch pass over the updated block.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.dimensions import Region

from .block_store import RegionBlock, StorageError


@dataclass(frozen=True)
class BlockDelta:
    """The change to one region's training block.

    Attributes
    ----------
    append:
        Rows to concatenate at the end of the block (``None`` = no appends).
        For a region the store does not know yet, this becomes the whole
        block.
    retract_ids:
        Item ids whose rows are removed (``None`` = no retractions).
    """

    append: RegionBlock | None = None
    retract_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.append is None and self.retract_ids is None:
            raise StorageError("empty BlockDelta: nothing appended or retracted")


@dataclass(frozen=True)
class StoreDelta:
    """One batch of changes to a training-data store.

    ``blocks`` maps regions to their :class:`BlockDelta`; ``drop_regions``
    removes whole regions (a region may not appear in both).
    """

    blocks: Mapping[Region, BlockDelta]
    drop_regions: tuple[Region, ...] = ()

    def __post_init__(self) -> None:
        overlap = [r for r in self.drop_regions if r in self.blocks]
        if overlap:
            raise StorageError(f"regions both changed and dropped: {overlap[:3]}")

    @property
    def touched_regions(self) -> tuple[Region, ...]:
        return tuple(self.blocks) + tuple(self.drop_regions)

    @property
    def n_appended(self) -> int:
        return sum(
            bd.append.n_examples
            for bd in self.blocks.values()
            if bd.append is not None
        )


@dataclass(frozen=True)
class AppliedDelta:
    """One changelog entry: *what moved* under a delta, never the rows.

    ``touched`` maps every region whose block the delta changed (in the
    delta's order) to the item ids whose rows actually moved there —
    appended ids plus the ids the store really removed (a retraction naming
    an absent id moves nothing).  Whoever needs the new values reads the
    region; nothing here pins a :class:`RegionBlock` or the caller's
    :class:`StoreDelta`.
    """

    version: int
    touched: Mapping[Region, np.ndarray]
    drop_regions: tuple[Region, ...] = ()
    new_regions: tuple[Region, ...] = ()

    @property
    def touched_regions(self) -> tuple[Region, ...]:
        return tuple(self.touched) + tuple(self.drop_regions)

    def touched_items(self, region: Region) -> np.ndarray:
        """Item ids whose rows moved in ``region`` under this delta."""
        return self.touched.get(region, np.empty(0, dtype=np.int64))


def apply_block_delta(
    old: RegionBlock | None,
    bd: BlockDelta,
    n_features: int,
) -> tuple[RegionBlock, RegionBlock | None]:
    """Apply one region's delta; returns ``(new_block, removed_rows)``.

    ``removed_rows`` is ``None`` when nothing was retracted.  Raises
    :class:`StorageError` on feature-count or weight-column mismatches and
    on retraction from an unknown region.
    """
    if bd.append is not None and bd.append.n_features != n_features:
        raise StorageError(
            f"delta block has {bd.append.n_features} features, "
            f"store declares {n_features}"
        )
    if old is None:
        if bd.retract_ids is not None and len(np.asarray(bd.retract_ids)):
            raise StorageError("cannot retract rows from an unknown region")
        assert bd.append is not None  # __post_init__ guarantees one of the two
        return bd.append, None
    removed: RegionBlock | None = None
    kept = old
    if bd.retract_ids is not None:
        gone = np.isin(old.item_ids, np.asarray(bd.retract_ids))
        removed = RegionBlock(
            old.item_ids[gone],
            old.x[gone],
            old.y[gone],
            None if old.weights is None else old.weights[gone],
        )
        kept = RegionBlock(
            old.item_ids[~gone],
            old.x[~gone],
            old.y[~gone],
            None if old.weights is None else old.weights[~gone],
        )
    if bd.append is None:
        return kept, removed
    app = bd.append
    if (kept.weights is None) != (app.weights is None) and kept.n_examples:
        raise StorageError(
            "delta append and existing block disagree on weight column"
        )
    weights = None
    if app.weights is not None or kept.weights is not None:
        w_kept = (
            kept.weights
            if kept.weights is not None
            else np.ones(kept.n_examples)
        )
        w_app = (
            app.weights if app.weights is not None else np.ones(app.n_examples)
        )
        weights = np.concatenate([w_kept, w_app])
    new = RegionBlock(
        np.concatenate([kept.item_ids, app.item_ids]),
        np.concatenate([kept.x, app.x]),
        np.concatenate([kept.y, app.y]),
        weights,
    )
    return new, removed
