"""Concurrent save/load on the statistics artifact never serves torn state.

A writer thread walks a :class:`~repro.storage.CubeTableStore` through
versions 1..N while reader threads hammer ``load_base`` / ``load``.  Every
successful load must return bits consistent with exactly one version (the
content is a seeded function of the version, so a meta/data mix is
detectable); the only acceptable failures are ``StorageError`` /
``StaleCacheError``.  This is the regression test for the check-then-load
races the query service exposed: pre-fix, a load racing a save could pair
version-k metadata with version-k+1 arrays and silently patch forward from
garbage.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dimensions import Region
from repro.ml import LinearSuffStats, StackedSuffStats, add_intercept
from repro.storage import CubeTableStore, LevelTable, StaleCacheError, StorageError

N_VERSIONS = 12
N_READERS = 8
N_CELLS = 3
P = 3
SIGNATURE = {"n_cells": N_CELLS, "p": P, "geometry": "threading-test"}


def _stack(n_cells: int, seed: int) -> StackedSuffStats:
    rng = np.random.default_rng(seed)
    stats = []
    for __ in range(n_cells):
        x = add_intercept(rng.normal(size=(6, P - 1)))
        y = rng.normal(size=6)
        stats.append(LinearSuffStats.from_data(x, y, rng.uniform(0.5, 2, 6)))
    return StackedSuffStats.from_stats(stats)


def _stacks_for(version: int) -> dict[Region, StackedSuffStats]:
    return {
        Region(("a",)): _stack(N_CELLS, seed=version * 2),
        Region(("b",)): _stack(N_CELLS, seed=version * 2 + 1),
    }


def _tables_for(version: int) -> list[LevelTable]:
    return [
        LevelTable(
            level=(0,),
            regions=(Region(("a",)), Region(("b",))),
            keep_sidx=np.asarray([0], dtype=np.int64),
            stats=_stack(2, seed=version * 7),
        )
    ]


def _save(table_store: CubeTableStore, version: int) -> None:
    table_store.save(
        _tables_for(version), SIGNATURE, version, _stacks_for(version)
    )


def test_load_versioned_during_concurrent_saves_is_never_torn(tmp_path, lockcheck):
    table_store = CubeTableStore(tmp_path)
    _save(table_store, 0)
    stop = threading.Event()
    loads = []

    def reader():
        count = 0
        while not stop.is_set():
            try:
                version, stacks = table_store.load_base(SIGNATURE)
            except (StorageError, StaleCacheError):
                continue
            expected = _stacks_for(version)
            assert set(stacks) == set(expected), f"version {version}"
            for region, stack in stacks.items():
                want = expected[region]
                assert np.array_equal(stack.n, want.n)
                assert np.array_equal(stack.xtwx, want.xtwx)
                assert np.array_equal(stack.xtwy, want.xtwy)
            count += 1
        return count

    with ThreadPoolExecutor(max_workers=N_READERS) as pool:
        futures = [pool.submit(reader) for __ in range(N_READERS)]
        for version in range(1, N_VERSIONS + 1):
            _save(table_store, version)
        stop.set()
        loads = [f.result(timeout=60) for f in futures]
    assert sum(loads) > 0
    final_version, __ = table_store.load_base(SIGNATURE)
    assert final_version == N_VERSIONS


def test_cube_tables_load_during_concurrent_saves_is_never_torn(tmp_path, lockcheck):
    table_store = CubeTableStore(tmp_path)
    _save(table_store, 0)
    stop = threading.Event()
    latest = [0]

    def reader():
        count = 0
        while not stop.is_set():
            guess = latest[0]
            try:
                tables = table_store.load(SIGNATURE, expected_version=guess)
            except (StorageError, StaleCacheError):
                continue
            want = _tables_for(guess)[0]
            got = tables[0]
            assert np.array_equal(got.stats.xtwx, want.stats.xtwx), (
                f"version {guess}"
            )
            assert np.array_equal(got.stats.n, want.stats.n)
            count += 1
        return count

    with ThreadPoolExecutor(max_workers=N_READERS) as pool:
        futures = [pool.submit(reader) for __ in range(N_READERS)]
        for version in range(1, N_VERSIONS + 1):
            _save(table_store, version)
            latest[0] = version
        stop.set()
        counts = [f.result(timeout=60) for f in futures]
    assert sum(counts) > 0


def test_torn_pair_raises_instead_of_adopting(tmp_path):
    """A hand-torn meta/data pair (the pre-fix race, frozen) is refused."""
    table_store = CubeTableStore(tmp_path)
    _save(table_store, 1)
    meta_v1 = table_store.meta_path.read_bytes()
    _save(table_store, 2)
    table_store.meta_path.write_bytes(meta_v1)  # data at v2, metadata at v1
    with pytest.raises(StorageError, match="torn"):
        table_store.load_base(SIGNATURE)
    with pytest.raises(StorageError, match="torn"):
        table_store.load(SIGNATURE, expected_version=1)
