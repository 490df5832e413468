"""Ablation: Theorem 1's suff-stats rollup vs refitting per cube subset.

The optimized cube merges per-base-cell sufficient statistics up the item
hierarchy lattice; the single-scan cube refits a model per (region, subset).
Identical results (tested); this bench quantifies the saving, a second
ablation shows the tree's split kernel (value bins, prefix sums, right =
total − left) against a refit per threshold and side (the loop is written
here: the tree has one path), a third the same kernel against the masked
Gram matrices it replaced, at the shape of one ``batch_build`` block, and a
fourth the rollup kernel itself — rank rounds against ``np.add.at``, the
scatter it replaced, at the shape of the e2e serve fixture.
"""

import time

import numpy as np

from repro.core import BellwetherCubeBuilder, BellwetherTreeBuilder
from repro.core.rowindex import RowIndex
from repro.datasets import make_scalability
from repro.experiments import render_grid
from repro.ml import LinearSuffStats, StackedSuffStats, design_rows

from .conftest import publish


def test_ablation_suffstats_rollup(benchmark):
    ds = make_scalability(n_items=1_500, n_regions=24, hierarchy_leaves=4, seed=0)
    builder = BellwetherCubeBuilder(
        ds.task, ds.store, ds.hierarchies, min_subset_size=20
    )
    start = time.perf_counter()
    builder.build("optimized")
    opt_s = time.perf_counter() - start
    start = time.perf_counter()
    builder.build("single_scan")
    scan_s = time.perf_counter() - start
    publish(
        "ablation_cube_rollup",
        render_grid(
            "Ablation — cube model errors: suff-stats rollup vs refit",
            ("n_subsets", "rollup_s", "refit_s", "speedup"),
            [(len(builder.significant_subsets), opt_s, scan_s, scan_s / opt_s)],
        ),
    )
    assert opt_s < scan_s

    benchmark.pedantic(lambda: builder.build("optimized"), rounds=1, iterations=1)


def _binned(values: list[np.ndarray], thresholds: list[np.ndarray]):
    """Bin codes as the tree lays them out: attribute r's bins in a run of
    ``width`` starting at ``r·width``, a value's bin the number of the
    attribute's thresholds at or below it."""
    width = 1 + max(len(t) for t in thresholds)
    codes = np.array(
        [
            r * width + np.searchsorted(t, v, side="right")
            for r, (v, t) in enumerate(zip(values, thresholds))
        ],
        dtype=np.uint8,
    )
    return codes, width


def _lefts(codes: np.ndarray, thresholds: list[np.ndarray], width: int):
    """One mask row per threshold, true where the item goes left."""
    return np.array(
        [
            run <= r * width + j
            for r, (run, t) in enumerate(zip(codes, thresholds))
            for j in range(len(t))
        ]
    )


def test_ablation_tree_prefix_stats(benchmark):
    ds = make_scalability(
        n_items=1_500, n_regions=16, n_numeric_features=6, seed=0
    )
    builder = BellwetherTreeBuilder(
        ds.task,
        ds.store,
        split_attrs=ds.task.item_feature_attrs,
        min_items=150,
        max_depth=2,
        max_numeric_splits=8,
    )
    # The root's candidates as the level function hands them to the kernel:
    # every item's bin under each attribute's thresholds.
    items = ds.task.item_table
    ids = np.asarray(items[ds.task.id_column])
    splits = builder._candidate_splits(ids)
    attrs = sorted({split.attr for split in splits})
    thresholds = [
        np.array([s.threshold for s in splits if s.attr == attr]) for attr in attrs
    ]
    values = [np.asarray(items[attr], dtype=np.float64) for attr in attrs]
    codes, width = _binned(values, thresholds)
    left = _lefts(codes, thresholds, width)
    index = RowIndex(ids)

    def one_pass():
        for __, block in ds.store.scan():
            StackedSuffStats.from_bins(
                design_rows(block.x, block.y),
                block.weights,
                codes[:, index.rows_of(block.item_ids)],
                len(codes) * width,
            ).cuts(width)

    def refit_per_side():
        # the tree's split statistics without a kernel: gather each side of
        # each threshold and take its statistics from scratch
        for __, block in ds.store.scan():
            sides = left[:, index.rows_of(block.item_ids)]
            for mask in np.concatenate([sides, ~sides]):
                LinearSuffStats.from_rows(
                    design_rows(block.x[mask], block.y[mask]),
                    None if block.weights is None else block.weights[mask],
                )

    start = time.perf_counter()
    one_pass()
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    refit_per_side()
    slow_s = time.perf_counter() - start
    publish(
        "ablation_tree_prefix",
        render_grid(
            "Ablation — numeric splits: value bins per block vs refit per side",
            ("n_features", "prefix_s", "refit_s", "ratio"),
            [(6, fast_s, slow_s, slow_s / fast_s)],
        ),
    )
    # Every threshold of a node from one Gram matrix per bin, the left side
    # a prefix sum and the right by subtraction: a fast path has to be
    # fast, not within noise.
    assert fast_s * 1.5 < slow_s

    benchmark.pedantic(one_pass, rounds=1, iterations=1)


def test_ablation_tree_split_kernel(benchmark):
    # One batch_build block: 2500 rows, p = 7 ([1 | x] with six regional
    # features), two numeric attributes with four thresholds each.
    n, p, n_thresholds = 2_500, 7, 4
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, p - 1))
    a = design_rows(x, x @ rng.normal(size=p - 1) + rng.normal(size=n))
    values = [rng.normal(size=n) for __ in range(2)]
    thresholds = [np.quantile(v, np.linspace(0.2, 0.8, n_thresholds)) for v in values]
    codes, width = _binned(values, thresholds)
    left = _lefts(codes, thresholds, width)

    def value_bins():
        bins = StackedSuffStats.from_bins(a, None, codes, len(codes) * width)
        return bins.cuts(width)

    def masked_gram():
        # the retired kernel: one masked Gram matrix of [X | y] per
        # threshold for its left side, the block total once, right = total
        # − left — T·n·q² multiply-adds where the bins take A·n·q²
        gram = np.empty((2 * len(left), a.shape[1], a.shape[1]))
        for k, mask in enumerate(left):
            np.matmul(a.T * mask, a, out=gram[k])
        gram[len(left):] = a.T @ a - gram[: len(left)]
        return gram

    def best_of(fn, reps=30):
        times = []
        for __ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    # the same sides, up to float associativity
    sides, gram = value_bins(), masked_gram()
    for k, side in enumerate(sides):
        assert np.allclose(side.xtwx, gram[k * len(left) : (k + 1) * len(left), :p, :p])
        assert np.allclose(side.xtwy, gram[k * len(left) : (k + 1) * len(left), :p, p])
    bins_s, masked_s = best_of(value_bins), best_of(masked_gram)
    publish(
        "ablation_tree_split_kernel",
        render_grid(
            "Ablation — split kernel on one batch_build block: value bins vs masked Gram",
            ("rows", "thresholds", "bins_ms", "masked_ms", "ratio"),
            [(n, len(left), bins_s * 1e3, masked_s * 1e3, masked_s / bins_s)],
        ),
    )
    assert bins_s * 1.5 < masked_s

    benchmark.pedantic(value_bins, rounds=1, iterations=1)


def test_ablation_rollup_kernel(benchmark):
    # The e2e serve fixture's table build: 156 regions x 12 base cells,
    # p = 9, rolled up to nine lattice levels of 12..1 subsets.
    n_regions, n_cells, p = 156, 12, 9
    rng = np.random.default_rng(0)
    n = n_regions * n_cells
    cells = StackedSuffStats(
        ytwy=rng.normal(size=n),
        xtwx=rng.normal(size=(n, p, p)),
        xtwy=rng.normal(size=(n, p)),
        n=rng.integers(0, 60, size=n),
        sum_w=rng.uniform(0, 60, size=n),
    )
    levels = []
    for n_subsets in (12, 8, 4, 6, 4, 2, 3, 2, 1):
        subset_of_base = np.arange(n_cells) * n_subsets // n_cells
        first = np.arange(n_regions)[:, None] * n_subsets
        levels.append(((first + subset_of_base).ravel(), n_regions * n_subsets))

    def rank_rounds():
        return [cells.rollup(target, n_out) for target, n_out in levels]

    def add_at():
        out = []
        for target, n_out in levels:
            rolled = StackedSuffStats.zeros(n_out, p)
            for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
                np.add.at(getattr(rolled, name), target, getattr(cells, name))
            out.append(rolled)
        return out

    def best_of(fn, reps=7):
        times = []
        for __ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    for got, want in zip(rank_rounds(), add_at()):
        for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    rounds_s, add_at_s = best_of(rank_rounds), best_of(add_at)
    publish(
        "ablation_rollup_kernel",
        render_grid(
            "Ablation — rollup kernel: rank rounds vs np.add.at (same bits)",
            ("n_cells", "levels", "rounds_ms", "add_at_ms", "ratio"),
            [(n, len(levels), rounds_s * 1e3, add_at_s * 1e3, add_at_s / rounds_s)],
        ),
    )
    assert rounds_s * 1.3 < add_at_s

    benchmark.pedantic(rank_rounds, rounds=1, iterations=1)
