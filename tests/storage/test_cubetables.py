"""Materialized suffstats cube tables: warm builds, staleness, incrementality.

The contract under test (ISSUE 7's tentpole): ``build_cube_tables`` persists
per-level :class:`~repro.storage.LevelTable` sets keyed on the store version
and the builder's lattice geometry; ``build_from_tables`` replays them into
a cube **bit-for-bit equal** to the per-pair reference
``build("optimized_serial")`` (``build("optimized")`` is itself
``build_from_tables`` on fresh tables) without touching a single fact row; stale tables (version bump, different geometry) are
detected, and a version bump is patched forward through the store changelog
instead of rescanning.
"""

import json

import numpy as np
import pytest

from repro.core import BasicBellwetherSearch, BellwetherCubeBuilder
from repro.core.exceptions import TaskError
from repro.core.training_data import build_store
from repro.datasets import make_mailorder
from repro.incremental import build_cube_tables
from repro.ml import TrainingSetEstimator
from repro.obs import get_registry
from repro.storage import (
    BlockDelta,
    CubeTableStore,
    LevelTable,
    RegionBlock,
    StaleCacheError,
    StorageError,
    StoreDelta,
)
from repro.verify import (
    APPROX,
    EXACT,
    assert_same_cube,
    assert_same_stacks,
    diff_profiles,
)


@pytest.fixture()
def setup(tmp_path):
    ds = make_mailorder(
        n_items=60, n_months=6, seed=0, error_estimator=TrainingSetEstimator()
    )
    store, __, __ = build_store(ds.task)
    builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
    return ds, store, builder, tmp_path / "tables"


def _append_delta(store, n_rows: int = 5) -> StoreDelta:
    """Extra observations for existing items in the store's first region."""
    region = store.regions()[0]
    block = store.read(region)
    rng = np.random.default_rng(42)
    append = RegionBlock(
        item_ids=block.item_ids[:n_rows].copy(),
        x=rng.normal(size=(n_rows, block.x.shape[1])),
        y=rng.normal(size=n_rows),
        weights=None if block.weights is None else np.ones(n_rows),
    )
    return StoreDelta(blocks={region: BlockDelta(append=append)})


def _cells_resolved() -> float:
    return get_registry().counter_values().get("incr.cells_resolved", 0)


class TestOneArtifact:
    """Level tables and base-cell table: one directory, one key."""

    def test_a_build_leaves_exactly_two_files(self, setup):
        __, __s, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        assert sorted(f.name for f in table_dir.iterdir()) == [
            "cube_tables.dat",
            "cube_tables_meta.json",
        ]

    def test_statistics_of_another_data_set_are_not_adopted(self, setup):
        """Equal lattice shape is not equal geometry.

        Seed 1 has the same ``(n_cells, p)`` as seed 0 and starts at the
        same store version; only the full signature tells them apart.
        """
        __, __s, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        other_ds = make_mailorder(
            n_items=60, n_months=6, seed=1,
            error_estimator=TrainingSetEstimator(),
        )
        other_store, __, __ = build_store(other_ds.task)
        other = BellwetherCubeBuilder(
            other_ds.task, other_store, other_ds.hierarchies
        )
        ours, theirs = other.geometry_signature(), builder.geometry_signature()
        assert (ours["n_cells"], ours["p"]) == (theirs["n_cells"], theirs["p"])
        assert other_store.version == builder.store.version
        scans0 = other_store.stats.full_scans
        tables = build_cube_tables(other, table_dir)
        assert other_store.stats.full_scans - scans0 == 1
        assert_same_cube(
            other.build("optimized_serial"),
            other.build_from_tables(tables),
            tol=EXACT,
        )

    def test_tables_need_statistics_not_solutions(self, setup):
        """A cold build, a hit and a version bump solve nothing."""
        __, store, builder, table_dir = setup
        registry = get_registry()
        before = registry.counter_values()
        build_cube_tables(builder, table_dir)
        build_cube_tables(builder, table_dir)
        store.apply_delta(_append_delta(store))
        build_cube_tables(builder, table_dir)
        after = registry.counter_values()
        for name in ("incr.cells_resolved", "ml.linear.batched_problems"):
            assert after.get(name, 0) == before.get(name, 0), name
        assert after["cube.tables.builds"] - before.get("cube.tables.builds", 0) == 2


def _retract(store, rank=0, n_victims=2):
    region = store.regions()[rank]
    victims = np.unique(store.read(region).item_ids)[:n_victims]
    return [StoreDelta({region: BlockDelta(retract_ids=victims)})]


def _retract_reappend(store):
    region = store.regions()[1]
    block = store.read(region)
    victims = np.unique(block.item_ids)[:3]
    rows = np.isin(block.item_ids, victims)
    removed = RegionBlock(
        block.item_ids[rows], block.x[rows], block.y[rows],
        None if block.weights is None else block.weights[rows],
    )
    return [
        StoreDelta({region: BlockDelta(retract_ids=victims)}),
        StoreDelta({region: BlockDelta(append=removed)}),
    ]


def _drop_region(store):
    return [StoreDelta({}, drop_regions=(store.regions()[3],))]


def _drop_then_new_region(store):
    """A region leaves, then comes back as a new one (it scans last)."""
    region = store.regions()[2]
    block = store.read(region)
    return [
        StoreDelta({}, drop_regions=(region,)),
        StoreDelta({region: BlockDelta(append=block)}),
    ]


class TestDeltaStreams:
    """Tables patched across a delta stream equal a scratch build, bit for bit."""

    @pytest.mark.parametrize(
        "stream",
        [
            _retract,
            _retract_reappend,
            lambda store: [_append_delta(store)],
            _drop_region,
            _drop_then_new_region,
        ],
        ids=["retract", "retract-reappend", "append", "drop-region", "new-region"],
    )
    def test_patched_tables_equal_a_scratch_build(self, setup, stream):
        ds, store, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        for delta in stream(store):
            store.apply_delta(delta)
        scans0, resolved0 = store.stats.full_scans, _cells_resolved()
        fresh = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        tables = build_cube_tables(fresh, table_dir)
        assert store.stats.full_scans == scans0
        assert _cells_resolved() == resolved0
        scratch = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        assert_same_cube(
            scratch.build("optimized_serial"),
            fresh.build_from_tables(tables),
            tol=EXACT,
        )
        version, base = CubeTableStore(table_dir).load_base(
            fresh.geometry_signature()
        )
        assert version == store.version
        assert list(base) == [r for r in store.regions() if r in base]
        assert_same_stacks(scratch.scan_stacks(), base, EXACT)


class TestWarmBuild:
    def test_tables_reproduce_optimized_cube_exactly(self, setup):
        ds, store, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        warm = builder.build_from_tables(tables)
        scratch = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies
        ).build("optimized_serial")
        assert_same_cube(scratch, warm, tol=EXACT)

    def test_second_call_is_a_hit_with_zero_store_io(self, setup):
        __, store, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        registry = get_registry()
        before = registry.counter_values()
        scans0, reads0 = store.stats.full_scans, store.stats.region_reads
        tables = build_cube_tables(builder, table_dir)
        builder.build_from_tables(tables)
        after = registry.counter_values()
        assert store.stats.full_scans == scans0
        assert store.stats.region_reads == reads0
        assert after.get("cube.tables.hits", 0) - before.get("cube.tables.hits", 0) == 1
        assert after.get("cube.tables.builds", 0) == before.get("cube.tables.builds", 0)

    def test_skip_existing_false_forces_rebuild(self, setup):
        __, __s, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        before = get_registry().counter_values()
        build_cube_tables(builder, table_dir, skip_existing=False)
        after = get_registry().counter_values()
        assert after.get("cube.tables.builds", 0) - before.get("cube.tables.builds", 0) == 1


class TestStaleness:
    def test_version_bump_patches_without_full_scan(self, setup):
        ds, store, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        store.apply_delta(_append_delta(store))
        before = get_registry().counter_values()
        scans0 = store.stats.full_scans
        tables = build_cube_tables(builder, table_dir)
        warm = builder.build_from_tables(tables)
        after = get_registry().counter_values()
        # stale tables miss, but the rebuild patches the dirty cells forward
        # through the changelog — no second full scan.
        assert store.stats.full_scans == scans0
        assert after.get("cube.tables.misses", 0) - before.get("cube.tables.misses", 0) == 1
        scratch = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies
        ).build("optimized_serial")
        assert_same_cube(scratch, warm, tol=EXACT)

    def test_load_rejects_version_mismatch(self, setup):
        __, store, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        table_store = CubeTableStore(table_dir)
        signature = builder.geometry_signature()
        assert len(table_store.load(signature, store.version)) == len(tables)
        with pytest.raises(StaleCacheError):
            table_store.load(signature, store.version + 3)

    def test_load_rejects_geometry_mismatch(self, setup):
        ds, store, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        other = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies, min_subset_size=7
        )
        with pytest.raises(StaleCacheError, match="geometry"):
            CubeTableStore(table_dir).load(
                other.geometry_signature(), store.version
            )

    def test_geometry_mismatch_triggers_rebuild(self, setup):
        ds, store, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        other = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies, min_subset_size=7
        )
        before = get_registry().counter_values()
        tables = build_cube_tables(other, table_dir)
        after = get_registry().counter_values()
        assert after.get("cube.tables.misses", 0) - before.get("cube.tables.misses", 0) == 1
        assert_same_cube(
            other.build_from_tables(tables),
            BellwetherCubeBuilder(
                ds.task, store, ds.hierarchies, min_subset_size=7
            ).build("optimized_serial"),
            tol=EXACT,
        )

    def test_missing_tables_raise_storage_error(self, setup, tmp_path):
        __, store, builder, __t = setup
        with pytest.raises(StorageError):
            CubeTableStore(tmp_path / "empty").load(
                builder.geometry_signature(), store.version
            )

    def test_corrupt_meta_raises_storage_error(self, setup):
        __, store, builder, table_dir = setup
        build_cube_tables(builder, table_dir)
        (table_dir / CubeTableStore._META).write_text("{broken")
        with pytest.raises(StorageError):
            CubeTableStore(table_dir).load(
                builder.geometry_signature(), store.version
            )


class TestSearchFromTables:
    def test_profile_matches_evaluate_all(self, setup):
        ds, store, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        search = BasicBellwetherSearch(ds.task, store)
        oracle = search.evaluate_all()
        candidate = BasicBellwetherSearch(ds.task, store).evaluate_from_tables(
            tables
        )
        assert diff_profiles(oracle, candidate, tol=APPROX) == []

    def test_refresh_cold_path_uses_tables_without_scanning(self, setup):
        ds, store, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        search = BasicBellwetherSearch(ds.task, store)
        scans0, reads0 = store.stats.full_scans, store.stats.region_reads
        search.refresh(tables=tables)
        assert store.stats.full_scans == scans0
        assert store.stats.region_reads == reads0

    def test_wrong_estimator_rejected(self, setup):
        from repro.core.exceptions import SearchError
        from repro.ml import CrossValidationEstimator

        __, store, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        cv_ds = make_mailorder(
            n_items=60,
            n_months=6,
            seed=0,
            error_estimator=CrossValidationEstimator(n_folds=3),
        )
        with pytest.raises(SearchError, match="training-set"):
            BasicBellwetherSearch(cv_ds.task, store).evaluate_from_tables(tables)


class TestBuildFromTablesValidation:
    def test_wrong_table_count_rejected(self, setup):
        __, __s, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        with pytest.raises(TaskError):
            builder.build_from_tables(tables[:-1])

    def test_foreign_geometry_rejected(self, setup):
        ds, store, builder, table_dir = setup
        tables = build_cube_tables(builder, table_dir)
        other = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies, min_subset_size=7
        )
        with pytest.raises(TaskError):
            other.build_from_tables(tables)


_COMPONENTS = ("ytwy", "xtwx", "xtwy", "n", "sum_w")


def _same_bytes(a, b) -> bool:
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and getattr(a, name).shape == getattr(b, name).shape
        and getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in _COMPONENTS
    )


def _nbytes(stats) -> int:
    return sum(getattr(stats, name).nbytes for name in _COMPONENTS)


class TestLayoutV2:
    """One raw data file + the JSON metadata; what a load copies out."""

    @pytest.fixture()
    def saved(self, setup):
        __, store, builder, table_dir = setup
        stacks = builder.scan_stacks()
        tables = builder.level_tables(stacks)
        signature = builder.geometry_signature()
        table_store = CubeTableStore(table_dir)
        table_store.save(tables, signature, store.version, stacks)
        return table_store, signature, store.version, tables, stacks

    def test_round_trip_is_byte_for_byte(self, saved):
        table_store, signature, version, tables, stacks = saved
        loaded = table_store.load(signature, version)
        assert len(loaded) == len(tables)
        for got, want in zip(loaded, tables):
            assert (got.level, got.regions) == (want.level, want.regions)
            assert np.array_equal(got.keep_sidx, want.keep_sidx)
            assert _same_bytes(got.stats, want.stats)
            # copies, not windows of the mapped file
            assert got.stats.xtwx.flags.owndata or got.stats.xtwx.base.flags.owndata
            assert got.stats.xtwx.flags.writeable
        base_version, base = table_store.load_base(signature)
        assert base_version == version
        assert list(base) == list(stacks)
        assert all(_same_bytes(base[r], stacks[r]) for r in stacks)

    def test_region_keys_are_written_once(self, saved):
        table_store, __, __v, tables, __s = saved
        meta = json.loads(table_store.meta_path.read_text())
        assert meta["layout_version"] == 3
        assert len(meta["regions"]) == 1
        assert len(meta["regions"][0]) == tables[0].n_regions
        assert [entry["regions"] for entry in meta["levels"]] == [0] * len(tables)
        assert meta["base_regions"] == 0
        # the data file is the members back to back, nothing else
        last = max(meta["columns"].values(), key=lambda c: c["offset"])
        assert table_store.data_path.stat().st_size == (
            last["offset"] + last["count"] * np.dtype(last["dtype"]).itemsize
        )

    def test_tables_over_different_regions_keep_their_own(self, setup):
        __, store, builder, table_dir = setup
        stacks = builder.scan_stacks()
        some = {r: stacks[r] for r in list(stacks)[::2]}
        signature = builder.geometry_signature()
        tables = builder.level_tables(some)
        table_store = CubeTableStore(table_dir)
        table_store.save(tables, signature, store.version, stacks)
        assert len(json.loads(table_store.meta_path.read_text())["regions"]) == 2
        loaded = table_store.load(signature, store.version)
        assert all(t.regions == tuple(some) for t in loaded)
        assert list(table_store.load_base(signature)[1]) == list(stacks)

    def test_byte_counters_count_what_was_copied(self, saved):
        table_store, signature, version, tables, stacks = saved
        registry = get_registry()
        meta_bytes = table_store.meta_path.stat().st_size

        def read_by(call) -> int:
            before = registry.counter_values().get("cube.tables.bytes_read", 0)
            call()
            return registry.counter_values()["cube.tables.bytes_read"] - before

        level_bytes = sum(_nbytes(t.stats) for t in tables)
        base_bytes = sum(_nbytes(s) for s in stacks.values())
        assert read_by(lambda: table_store.load(signature, version)) == (
            level_bytes + meta_bytes
        )
        assert read_by(lambda: table_store.load_base(signature)) == (
            base_bytes + meta_bytes
        )
        before = registry.counter_values()["cube.tables.bytes_written"]
        table_store.save(tables, signature, version, stacks)
        written = registry.counter_values()["cube.tables.bytes_written"] - before
        assert written == table_store.data_path.stat().st_size + meta_bytes
        assert written == 8 + level_bytes + base_bytes + meta_bytes

    def test_loaded_tables_never_alias_a_saved_file(self, saved):
        """A load is the caller's own copy: the next save does not move it
        and writing to it does not reach the file."""
        table_store, signature, version, tables, stacks = saved
        loaded = table_store.load(signature, version)
        __, base = table_store.load_base(signature)
        other = [
            LevelTable(t.level, t.regions, t.keep_sidx, t.stats + t.stats)
            for t in tables
        ]
        table_store.save(other, signature, version + 1, stacks)
        assert all(_same_bytes(a.stats, b.stats) for a, b in zip(loaded, tables))
        assert all(_same_bytes(base[r], stacks[r]) for r in stacks)
        for t in loaded:
            t.stats.xtwx[:] = -1.0
        again = table_store.load(signature, version + 1)
        assert all(_same_bytes(a.stats, b.stats) for a, b in zip(again, other))

    def test_a_v2_directory_is_refused_then_rebuilt(self, saved, setup):
        """v2 statistics were three products per problem, not one Gram
        matrix: the same sums up to the last bits.  Never adopted — a
        loud refusal and one scan."""
        table_store, signature, version, __, stacks = saved
        __, store, builder, table_dir = setup
        meta = json.loads(table_store.meta_path.read_text())
        meta["layout_version"] = 2
        table_store.meta_path.write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="layout v2 unsupported"):
            table_store.load(signature, version)
        with pytest.raises(StorageError, match="layout v2 unsupported"):
            table_store.load_base(signature)
        scans0 = store.stats.full_scans
        tables = build_cube_tables(builder, table_dir)
        assert store.stats.full_scans - scans0 == 1
        assert json.loads(table_store.meta_path.read_text())["layout_version"] == 3
        __, base = table_store.load_base(signature)
        assert all(_same_bytes(base[r], stacks[r]) for r in stacks)
        assert_same_cube(
            builder.build("optimized_serial"),
            builder.build_from_tables(tables),
            tol=EXACT,
        )

    def test_a_v1_directory_is_refused_then_replaced(self, setup):
        """The retired npz layout is never read: loud refusal, one scan, and
        the rebuilt directory holds the v2 pair only."""
        ds, store, builder, table_dir = setup
        table_dir.mkdir()
        signature = builder.geometry_signature()
        (table_dir / "cube_tables.npz").write_bytes(b"PK\x03\x04 an old zip")
        (table_dir / "cube_tables_meta.json").write_text(
            json.dumps(
                {
                    "format": "repro-cube-tables",
                    "layout_version": 1,
                    "version": store.version,
                    "p": signature["p"],
                    "signature": signature,
                    "levels": [],
                    "base_regions": [],
                }
            )
        )
        table_store = CubeTableStore(table_dir)
        with pytest.raises(StorageError, match="layout v1 unsupported"):
            table_store.load(signature, store.version)
        with pytest.raises(StorageError, match="layout v1 unsupported"):
            table_store.load_base(signature)
        scans0 = store.stats.full_scans
        tables = build_cube_tables(builder, table_dir)
        assert store.stats.full_scans - scans0 == 1
        assert sorted(f.name for f in table_dir.iterdir()) == [
            "cube_tables.dat",
            "cube_tables_meta.json",
        ]
        assert_same_cube(
            builder.build("optimized_serial"),
            builder.build_from_tables(tables),
            tol=EXACT,
        )
