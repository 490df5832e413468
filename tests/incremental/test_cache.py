"""The persisted base-cell table: round trips, warm starts, staleness.

What used to be a cache of its own now travels inside the one statistics
artifact, :class:`~repro.storage.CubeTableStore` — saved beside the level
tables, keyed on the same version and the same full geometry signature.
"""

import numpy as np
import pytest

from repro.core import BellwetherCubeBuilder
from repro.core.training_data import build_store
from repro.datasets import make_mailorder
from repro.dimensions import Region
from repro.incremental import build_cube_tables
from repro.ml import (
    LinearSuffStats,
    StackedSuffStats,
    TrainingSetEstimator,
    add_intercept,
)
from repro.storage import CubeTableStore, StaleCacheError
from repro.verify import EXACT, assert_same_cube, counters_snapshot


def _signature(n_cells, p):
    return {"n_cells": n_cells, "p": p, "geometry": "cache-test"}


def _stack(n_cells, p, seed):
    rng = np.random.default_rng(seed)
    stats = []
    for __ in range(n_cells):
        x = add_intercept(rng.normal(size=(8, p - 1)))
        y = rng.normal(size=8)
        stats.append(LinearSuffStats.from_data(x, y, rng.uniform(0.5, 2, 8)))
    return StackedSuffStats.from_stats(stats)


def test_save_load_round_trip_is_bitwise(tmp_path):
    stacks = {
        Region(("a",)): _stack(4, 3, seed=1),
        Region(("b",)): _stack(4, 3, seed=2),
    }
    cache = CubeTableStore(tmp_path)
    cache.save([], _signature(4, 3), 5, stacks)
    version, loaded = cache.load_base(_signature(4, 3))
    assert version == 5
    assert list(loaded) == list(stacks)
    for region, stack in stacks.items():
        got = loaded[region]
        assert np.array_equal(got.n, stack.n)
        assert np.array_equal(got.sum_w, stack.sum_w)
        assert np.array_equal(got.ytwy, stack.ytwy)
        assert np.array_equal(got.xtwx, stack.xtwx)
        assert np.array_equal(got.xtwy, stack.xtwy)


def test_save_overwrites_previous_version(tmp_path):
    cache = CubeTableStore(tmp_path)
    sig = _signature(2, 3)
    cache.save([], sig, 1, {Region(("a",)): _stack(2, 3, 1)})
    cache.save([], sig, 2, {Region(("a",)): _stack(2, 3, 9)})
    with pytest.raises(StaleCacheError):
        cache.load(sig, 1)
    version, loaded = cache.load_base(sig)
    assert version == 2
    assert set(loaded) == {Region(("a",))}
    assert np.array_equal(loaded[Region(("a",))].xtwx, _stack(2, 3, 9).xtwx)


def test_stale_version_and_geometry(tmp_path):
    cache = CubeTableStore(tmp_path)
    cache.save([], _signature(2, 3), 1, {Region(("a",)): _stack(2, 3, 1)})
    with pytest.raises(StaleCacheError):
        cache.load(_signature(2, 3), 2)
    with pytest.raises(StaleCacheError):
        cache.load_base(_signature(3, 3))
    with pytest.raises(StaleCacheError):
        cache.load_base(_signature(2, 4))
    # equal shape is not equal geometry: the whole signature is the key
    with pytest.raises(StaleCacheError):
        cache.load_base({**_signature(2, 3), "geometry": "another"})


def test_warm_start_skips_the_full_scan(tmp_path):
    """A second build over an unchanged store never touches the data."""
    ds = make_mailorder(
        n_items=60, n_months=6, seed=0, error_estimator=TrainingSetEstimator()
    )
    store, __, __ = build_store(ds.task)
    cold_builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
    cold = build_cube_tables(cold_builder, tmp_path / "tables")

    before = counters_snapshot()
    io0 = store.stats.snapshot()
    warm_builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
    warm = build_cube_tables(
        warm_builder, tmp_path / "tables", skip_existing=False
    )
    after = counters_snapshot()
    io = store.stats - io0
    assert (io.full_scans, io.region_reads) == (0, 0)
    assert after["incr.cache_hits"] - before.get("incr.cache_hits", 0) == 1
    assert after.get("incr.cells_resolved", 0) == before.get(
        "incr.cells_resolved", 0
    )

    assert_same_cube(
        cold_builder.build_from_tables(cold),
        warm_builder.build_from_tables(warm),
        EXACT,
    )
