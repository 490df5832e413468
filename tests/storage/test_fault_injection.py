"""Fault injection: broken files must fail loudly, never return wrong numbers.

Truncated, garbled, or missing region files and corrupt manifests raise
:class:`StorageError` (never a raw ``OSError``/``ValueError``); persisted
statistics written against another store version raise
:class:`StaleCacheError`, and a table build facing either problem rebuilds
from a full scan instead of serving stale statistics.
"""

import json

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
from repro.storage import (
    CubeTableStore,
    DiskStore,
    LevelTable,
    RegionBlock,
    StaleCacheError,
    StorageError,
)
from repro.verify import EXACT, assert_same_cube, counters_snapshot


def _block(n: int, p: int = 2, seed: int = 0) -> RegionBlock:
    rng = np.random.default_rng(seed)
    return RegionBlock(
        np.arange(n), rng.normal(size=(n, p)), rng.normal(size=n)
    )


@pytest.fixture
def disk_store(tmp_path):
    blocks = {
        Region(("a",)): _block(8, seed=1),
        Region(("b",)): _block(6, seed=2),
    }
    return DiskStore.create(tmp_path / "store", blocks, ("f0", "f1"))


def _block_path(store: DiskStore, region: Region):
    return store._dir / store._meta[region]["file"]


class TestBrokenBlocks:
    def test_truncated_block_raises_storage_error(self, disk_store):
        region = disk_store.regions()[0]
        path = _block_path(disk_store, region)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(StorageError, match="unreadable column file"):
            disk_store.read(region)

    def test_garbage_block_raises_storage_error(self, disk_store):
        region = disk_store.regions()[1]
        _block_path(disk_store, region).write_bytes(b"not a column file")
        with pytest.raises(StorageError, match="unreadable column file"):
            disk_store.read(region)

    def test_missing_block_raises_storage_error(self, disk_store):
        region = disk_store.regions()[0]
        _block_path(disk_store, region).unlink()
        with pytest.raises(StorageError, match="unreadable column file"):
            disk_store.read(region)

    def test_scan_surfaces_broken_block(self, disk_store):
        region = disk_store.regions()[1]
        _block_path(disk_store, region).write_bytes(b"junk")
        with pytest.raises(StorageError):
            list(disk_store.scan())

    def test_block_missing_required_array(self, disk_store):
        """A manifest entry that lacks a column is unreadable, not a KeyError."""
        manifest_path = disk_store._dir / DiskStore.MANIFEST
        manifest = json.loads(manifest_path.read_text())
        del manifest["regions"][0]["columns"]["y"]
        manifest_path.write_text(json.dumps(manifest))
        reopened = DiskStore(disk_store._dir)
        with pytest.raises(StorageError, match="unreadable column file"):
            reopened.read(reopened.regions()[0])


class TestBrokenManifest:
    def test_corrupt_manifest_raises_storage_error(self, disk_store):
        (disk_store._dir / DiskStore.MANIFEST).write_bytes(b"\x80garbage")
        with pytest.raises(StorageError, match="corrupt manifest"):
            DiskStore(disk_store._dir)

    def test_missing_manifest_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path / "nowhere")

    def test_wrong_shape_manifest_raises_storage_error(self, disk_store):
        (disk_store._dir / DiskStore.MANIFEST).write_text(
            json.dumps(["not", "a", "dict"])
        )
        with pytest.raises(StorageError, match="corrupt manifest"):
            DiskStore(disk_store._dir)


def _stacks(n_cells: int = 3, p: int = 3) -> dict[Region, StackedSuffStats]:
    rng = np.random.default_rng(0)
    x = add_intercept(rng.normal(size=(10, p - 1)))
    y = rng.normal(size=10)
    stats = [LinearSuffStats.from_data(x, y) for __ in range(n_cells)]
    return {Region(("a",)): StackedSuffStats.from_stats(stats)}


def _signature(n_cells: int = 3, p: int = 3) -> dict:
    return {"n_cells": n_cells, "p": p}


class TestSuffStatsCacheFaults:
    """The base-cell table inside :class:`CubeTableStore` fails loudly."""

    def test_stale_version_raises_stale_cache_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        cache.save([], _signature(), 3, _stacks())
        with pytest.raises(StaleCacheError, match="store version 3"):
            cache.load(_signature(), expected_version=7)

    def test_stale_is_a_storage_error(self):
        assert issubclass(StaleCacheError, StorageError)

    def test_geometry_mismatch_raises_stale_cache_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        cache.save([], _signature(), 1, _stacks())
        with pytest.raises(StaleCacheError, match="lattice geometry"):
            cache.load_base(_signature(n_cells=5))

    def test_missing_cache_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="no cube tables"):
            CubeTableStore(tmp_path).load_base(_signature())

    def test_tables_saved_without_a_base_raise_storage_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        cache.save([], _signature(), 1)
        with pytest.raises(StorageError, match="no base-cell table"):
            cache.load_base(_signature())

    def test_corrupt_meta_raises_storage_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        cache.save([], _signature(), 1, _stacks())
        cache.meta_path.write_bytes(b"\x00broken")
        with pytest.raises(StorageError, match="corrupt cube-table metadata"):
            cache.load_base(_signature())

    def test_corrupt_data_raises_storage_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        cache.save([], _signature(), 1, _stacks())
        cache.data_path.write_bytes(b"nope")
        with pytest.raises(StorageError, match="unreadable cube tables"):
            cache.load_base(_signature())

    def test_truncated_data_raises_storage_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        cache.save([], _signature(), 1, _stacks())
        cache.data_path.write_bytes(cache.data_path.read_bytes()[:30])
        with pytest.raises(StorageError):
            cache.load_base(_signature())

    def test_base_of_the_wrong_length_raises_storage_error(self, tmp_path):
        cache = CubeTableStore(tmp_path)
        # 3 problems saved under a signature that promises 3 cells a region,
        # re-keyed by hand to one that promises 2: same digest fields, a
        # region count the arrays cannot satisfy.
        cache.save([], _signature(), 1, _stacks())
        meta = json.loads(cache.meta_path.read_text())
        meta["signature"]["n_cells"] = 2
        cache.meta_path.write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="base-cell table has 3"):
            cache.load_base(_signature(n_cells=2))


class TestKilledSave:
    """The metadata is the commit point: a save killed before it leaves the
    old tables (data file not yet replaced) or none (data replaced: the
    pair is torn and refused) — never new numbers under the old key."""

    @staticmethod
    def _tables(version: int) -> list[LevelTable]:
        stats = _stacks(n_cells=2)[Region(("a",))]
        return [
            LevelTable(
                level=(0,),
                regions=(Region(("a",)),),
                keep_sidx=np.asarray([0, 1], dtype=np.int64),
                stats=stats if version == 1 else stats + stats,
            )
        ]

    @pytest.mark.parametrize("killed_at", ["_write_raw", "_atomic_write"])
    def test_kill_before_the_metadata_write(self, tmp_path, monkeypatch, killed_at):
        import repro.storage.cubetables as cubetables

        cache = CubeTableStore(tmp_path)
        cache.save(self._tables(1), _signature(), 1, _stacks())
        old = cache.load(_signature(), 1)[0].stats
        real = getattr(cubetables, killed_at)

        def killed(path, payload):
            if killed_at == "_atomic_write":
                raise OSError("killed before the metadata was replaced")
            # the data file dies half written, under its temporary name
            path.with_name(path.name + ".tmp").write_bytes(b"half")
            raise OSError("killed while writing the data file")

        monkeypatch.setattr(cubetables, killed_at, killed)
        with pytest.raises(OSError, match="killed"):
            cache.save(self._tables(2), _signature(), 2, _stacks())
        monkeypatch.setattr(cubetables, killed_at, real)
        reopened = CubeTableStore(tmp_path)
        if killed_at == "_write_raw":
            got = reopened.load(_signature(), 1)[0].stats
            assert got.xtwx.tobytes() == old.xtwx.tobytes()
            assert reopened.load_base(_signature())[0] == 1
        else:
            with pytest.raises(StorageError, match="torn"):
                reopened.load(_signature(), 1)
            with pytest.raises(StorageError, match="torn"):
                reopened.load_base(_signature())
        with pytest.raises(StorageError):
            reopened.load(_signature(), 2)
        # the next save goes through and is what a load returns
        reopened.save(self._tables(2), _signature(), 2, _stacks())
        got = reopened.load(_signature(), 2)[0].stats
        assert got.xtwx.tobytes() == self._tables(2)[0].stats.xtwx.tobytes()


class TestMaintainerRebuildsOnBrokenCache:
    """A table build facing a stale or corrupt base rebuilds from a scan."""

    @pytest.fixture
    def setup(self, tmp_path):
        ds = make_mailorder(
            n_items=60, n_months=6, seed=0,
            error_estimator=TrainingSetEstimator(),
        )
        store, __, __ = build_store(ds.task)
        builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        return ds, store, builder, tmp_path / "cache"

    @staticmethod
    def _rebuild(ds, store, cache_dir):
        """A fresh builder's table build: (cache misses, scans, builder, tables)."""
        before = counters_snapshot()
        scans0 = store.stats.full_scans
        fresh = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        tables = build_cube_tables(fresh, cache_dir)
        after = counters_snapshot()
        misses = after.get("incr.cache_misses", 0) - before.get(
            "incr.cache_misses", 0
        )
        assert after.get("incr.cells_resolved", 0) == before.get(
            "incr.cells_resolved", 0
        )
        return misses, store.stats.full_scans - scans0, fresh, tables

    def test_stale_cache_triggers_scan_rebuild(self, setup):
        ds, store, builder, cache_dir = setup
        tables = build_cube_tables(builder, cache_dir)
        # Invalidate: pretend the statistics were written at a version the
        # store's changelog cannot reach back from.
        cache = CubeTableStore(cache_dir)
        signature = builder.geometry_signature()
        __, stacks = cache.load_base(signature)
        cache.save(tables, signature, store.version + 5, stacks)
        misses, scans, fresh, tables = self._rebuild(ds, store, cache_dir)
        assert (misses, scans) == (1, 1)
        assert_same_cube(
            fresh.build("optimized"), fresh.build_from_tables(tables), EXACT
        )

    def test_corrupt_cache_triggers_scan_rebuild(self, setup):
        ds, store, builder, cache_dir = setup
        build_cube_tables(builder, cache_dir)
        CubeTableStore(cache_dir).data_path.write_bytes(b"garbage")
        misses, scans, fresh, tables = self._rebuild(ds, store, cache_dir)
        assert (misses, scans) == (1, 1)
        assert_same_cube(
            fresh.build("optimized"), fresh.build_from_tables(tables), EXACT
        )
