"""The Section 7.4 scalability generator.

As in the paper: an item table of (default) 2,500 items with three item
hierarchies and a configurable number of numeric attributes; a region space
spanned by two tree-structured dimensions; one training example per item per
region, so the entire training data holds ``n_regions x n_items`` examples.
Targets derive from four predefined bellwether regions with small errors;
all other regional features are random noise.

Knobs map to the paper's sweep axes:

* ``n_regions`` (via the two dimension fanouts) — examples in the entire
  training data (Figures 11(a)-(c));
* ``hierarchy_leaves`` — number of significant cube subsets (Figure 12(a));
* ``n_numeric_features`` — item-table features seen by the RF tree
  (Figure 12(b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import DirectTask
from repro.dimensions import HierarchicalDimension, ItemHierarchies, Region
from repro.ml import ErrorEstimator, TrainingSetEstimator
from repro.storage import DiskStore, MemoryStore, RegionBlock
from repro.table import Table


@dataclass
class ScalabilityDataset:
    """A generated scalability instance."""

    task: DirectTask
    store: MemoryStore
    hierarchies: ItemHierarchies
    planted_regions: list[Region]

    @property
    def n_examples_total(self) -> int:
        return self.store.n_examples_total


def make_scalability(
    n_items: int = 2_500,
    n_regions: int = 64,
    n_item_hierarchies: int = 3,
    hierarchy_leaves: int = 4,
    n_numeric_features: int = 4,
    n_regional_features: int = 4,
    noise: float = 0.1,
    seed: int = 0,
    error_estimator: ErrorEstimator | None = None,
) -> ScalabilityDataset:
    """Generate one scalability instance (entire training data in memory)."""
    rng = np.random.default_rng(seed)
    # ---------------------------------------------------------------- items
    columns: dict = {"item": np.arange(1, n_items + 1)}
    hier_attrs = [f"h{j}" for j in range(n_item_hierarchies)]
    for attr in hier_attrs:
        columns[attr] = rng.choice(
            [f"{attr}v{v}" for v in range(hierarchy_leaves)], n_items
        ).astype(object)
    num_attrs = [f"n{j}" for j in range(n_numeric_features)]
    for attr in num_attrs:
        columns[attr] = rng.normal(size=n_items)
    item_table = Table(columns)
    # -------------------------------------------------------------- regions
    side1 = max(2, int(math.isqrt(n_regions)))
    side2 = max(1, n_regions // side1)
    regions = [
        Region((f"d1n{a:02d}", f"d2n{b:02d}"))
        for a in range(side1)
        for b in range(side2)
    ][:n_regions]
    # ------------------------------------------------------------- targets
    planted = list(rng.choice(len(regions), size=min(4, len(regions)), replace=False))
    planted_regions = [regions[k] for k in planted]
    group_of_item = rng.integers(0, len(planted_regions), n_items)
    betas = rng.uniform(-2.0, 2.0, size=(len(planted_regions), n_regional_features))
    region_x = {
        r: rng.normal(size=(n_items, n_regional_features)) for r in regions
    }
    y = np.empty(n_items)
    for g, region in enumerate(planted_regions):
        mask = group_of_item == g
        y[mask] = region_x[region][mask] @ betas[g]
    y += rng.normal(0.0, noise, n_items)
    # ----------------------------------------------------------------- task
    task = DirectTask(
        item_table,
        "item",
        targets=y,
        item_feature_attrs=tuple(num_attrs),
        # Scalability runs time the algorithms; the cheap estimator keeps the
        # comparisons about scan behaviour, as in the paper's Java setup.
        error_estimator=error_estimator or TrainingSetEstimator(),
    )
    item_x = task.item_encoder.matrix(item_table["item"])
    ids = np.asarray(item_table["item"])
    blocks = {
        r: RegionBlock(
            item_ids=ids,
            x=np.column_stack([item_x, region_x[r]]),
            y=y,
        )
        for r in regions
    }
    store_names = task.item_encoder.feature_names + tuple(
        f"x{k}" for k in range(n_regional_features)
    )
    store = MemoryStore(blocks, store_names)
    hierarchies = ItemHierarchies(
        [
            HierarchicalDimension.from_spec(
                attr,
                {f"{attr}side": [f"{attr}v{v}" for v in range(hierarchy_leaves)]},
                level_names=("Any", "Side", "Value"),
                root_name="Any",
            )
            for attr in hier_attrs
        ]
    )
    return ScalabilityDataset(
        task=task,
        store=store,
        hierarchies=hierarchies,
        planted_regions=planted_regions,
    )


@dataclass
class OutOfCoreScalability:
    """A scalability instance whose training data lives on disk."""

    task: DirectTask
    store: DiskStore
    hierarchies: ItemHierarchies
    planted_regions: list[Region]
    directory: Path

    @property
    def n_examples_total(self) -> int:
        return self.store.n_examples_total


def _region_rng(seed: int, r_idx: int) -> np.random.Generator:
    # Each region draws its features from its own child stream, so a block's
    # bytes depend only on (seed, r_idx) — never on generation order, so two
    # stores written from the same seed hold bit-identical arrays.
    return np.random.default_rng((seed, 1_000 + r_idx))


def write_scalability(
    directory: str | Path,
    n_items: int = 2_500,
    n_regions: int = 4_032,
    n_item_hierarchies: int = 2,
    hierarchy_leaves: int = 3,
    n_numeric_features: int = 2,
    n_regional_features: int = 4,
    noise: float = 0.1,
    seed: int = 0,
    error_estimator: ErrorEstimator | None = None,
) -> OutOfCoreScalability:
    """Stream a scalability instance to disk, one region block at a time.

    Unlike :func:`make_scalability`, the per-region feature matrices are never
    all resident: peak memory is one ``(n_items, p)`` block regardless of
    ``n_regions``, which is what makes the paper's 10M-example Figure 11 run
    fit on a laptop.  The training data is a function of ``seed`` alone.
    """
    directory = Path(directory)
    rng = np.random.default_rng(seed)
    # ---------------------------------------------------------------- items
    columns: dict = {"item": np.arange(1, n_items + 1)}
    hier_attrs = [f"h{j}" for j in range(n_item_hierarchies)]
    for attr in hier_attrs:
        columns[attr] = rng.choice(
            [f"{attr}v{v}" for v in range(hierarchy_leaves)], n_items
        ).astype(object)
    num_attrs = [f"n{j}" for j in range(n_numeric_features)]
    for attr in num_attrs:
        columns[attr] = rng.normal(size=n_items)
    item_table = Table(columns)
    # -------------------------------------------------------------- regions
    side1 = max(2, int(math.isqrt(n_regions)))
    side2 = max(1, n_regions // side1)
    regions = [
        Region((f"d1n{a:02d}", f"d2n{b:02d}"))
        for a in range(side1)
        for b in range(side2)
    ][:n_regions]
    # ------------------------------------------------------------- targets
    planted = list(rng.choice(len(regions), size=min(4, len(regions)), replace=False))
    planted_regions = [regions[k] for k in planted]
    group_of_item = rng.integers(0, len(planted_regions), n_items)
    betas = rng.uniform(-2.0, 2.0, size=(len(planted_regions), n_regional_features))
    y = np.empty(n_items)
    for g, r_idx in enumerate(planted):
        mask = group_of_item == g
        planted_x = _region_rng(seed, r_idx).normal(
            size=(n_items, n_regional_features)
        )
        y[mask] = planted_x[mask] @ betas[g]
    y += rng.normal(0.0, noise, n_items)
    # ----------------------------------------------------------------- task
    task = DirectTask(
        item_table,
        "item",
        targets=y,
        item_feature_attrs=tuple(num_attrs),
        error_estimator=error_estimator or TrainingSetEstimator(),
    )
    item_x = task.item_encoder.matrix(item_table["item"])
    ids = np.asarray(item_table["item"])
    store_names = task.item_encoder.feature_names + tuple(
        f"x{k}" for k in range(n_regional_features)
    )
    # ---------------------------------------------------------------- store
    with DiskStore.writer(directory, store_names) as writer:
        for r_idx, region in enumerate(regions):
            region_x = _region_rng(seed, r_idx).normal(
                size=(n_items, n_regional_features)
            )
            writer.add(
                region,
                RegionBlock(
                    item_ids=ids,
                    x=np.column_stack([item_x, region_x]),
                    y=y,
                ),
            )
    hierarchies = ItemHierarchies(
        [
            HierarchicalDimension.from_spec(
                attr,
                {f"{attr}side": [f"{attr}v{v}" for v in range(hierarchy_leaves)]},
                level_names=("Any", "Side", "Value"),
                root_name="Any",
            )
            for attr in hier_attrs
        ]
    )
    return OutOfCoreScalability(
        task=task,
        store=writer.store,
        hierarchies=hierarchies,
        planted_regions=planted_regions,
        directory=directory,
    )
