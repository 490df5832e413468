"""Ablation: Theorem 1's suff-stats rollup vs refitting per cube subset.

The optimized cube merges per-base-cell sufficient statistics up the item
hierarchy lattice; the single-scan cube refits a model per (region, subset).
Identical results (tested); this bench quantifies the saving and a second
ablation shows the tree's one-pass split kernel against a refit per
threshold and side (the loop is written here: the tree has one path).
"""

import time

import numpy as np

from repro.core import BellwetherCubeBuilder, BellwetherTreeBuilder
from repro.core.rowindex import RowIndex
from repro.datasets import make_scalability
from repro.experiments import render_grid
from repro.ml import LinearSuffStats, StackedSuffStats, add_intercept

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
    # one row per threshold, true where the item goes left.
    items = ds.task.item_table
    ids = np.asarray(items[ds.task.id_column])
    left = np.array(
        [
            np.asarray(items[split.attr], dtype=np.float64) < split.threshold
            for split in builder._candidate_splits(ids)
        ]
    )
    index = RowIndex(ids)

    def one_pass():
        for __, block in ds.store.scan():
            StackedSuffStats.from_binary_splits(
                add_intercept(block.x),
                block.y,
                block.weights,
                left[:, index.rows_of(block.item_ids)],
            )

    def refit_per_side():
        # the tree's split statistics before the kernel: gather each side of
        # each threshold and take its statistics from scratch
        for __, block in ds.store.scan():
            sides = left[:, index.rows_of(block.item_ids)]
            for mask in np.concatenate([sides, ~sides]):
                LinearSuffStats.from_data(
                    add_intercept(block.x[mask]),
                    block.y[mask],
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
            "Ablation — numeric splits: one pass per block vs refit per side",
            ("n_features", "prefix_s", "refit_s", "ratio"),
            [(6, fast_s, slow_s, slow_s / fast_s)],
        ),
    )
    # Every threshold of a node from one design matrix per block, the right
    # side by subtraction: a fast path has to be fast, not within noise.
    assert fast_s * 1.5 < slow_s

    benchmark.pedantic(one_pass, rounds=1, iterations=1)
