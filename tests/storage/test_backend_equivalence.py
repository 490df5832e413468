"""The on-disk store is interchangeable with the memory it was spilled from.

Training data written to a ``DiskStore`` must round-trip to the arrays of
the ``MemoryStore`` it came from, and every algorithm downstream — the
bellwether cube, the RF tree, the basic search — must produce *exactly* the
same answers on either (``EXACT`` tolerance, not approximate), because both
feed the same floats to the same deterministic kernels.  (Until the npz
block format was retired the comparison was npz vs columnar.)
"""

import numpy as np
import pytest

from repro.core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTreeBuilder,
)
from repro.core.training_data import build_store
from repro.datasets import make_mailorder
from repro.ml import TrainingSetEstimator
from repro.storage import DiskStore
from repro.verify import (
    EXACT,
    assert_same_cube,
    assert_same_store,
    assert_same_tree,
    diff_profiles,
)


@pytest.fixture(scope="module")
def dataset():
    return make_mailorder(
        n_items=60, n_months=6, seed=0, error_estimator=TrainingSetEstimator()
    )


@pytest.fixture(scope="module")
def stores(dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("backends")
    mem, __, __ = build_store(dataset.task)
    return mem, DiskStore.from_memory(base / "col", mem)


class TestStoreEquivalence:
    def test_stores_identical(self, stores):
        mem, col = stores
        assert_same_store(mem, col, tol=EXACT)

    def test_scan_order_matches(self, stores):
        mem, col = stores
        assert [r for r, __b in mem.scan()] == [r for r, __b in col.scan()]

    def test_raw_bytes_round_trip(self, stores):
        mem, col = stores
        for region in mem.regions():
            a, b = mem.read(region), col.read(region)
            for name in ("item_ids", "x", "y"):
                want, got = getattr(a, name), getattr(b, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()


class TestAlgorithmEquivalence:
    """The fig7/fig9 pipelines give bit-identical answers in memory and on disk."""

    def test_cube_exact(self, dataset, stores):
        mem, col = stores
        cube_mem = BellwetherCubeBuilder(
            dataset.task, mem, dataset.hierarchies
        ).build("optimized")
        cube_col = BellwetherCubeBuilder(
            dataset.task, col, dataset.hierarchies
        ).build("optimized")
        assert_same_cube(cube_mem, cube_col, tol=EXACT)

    def test_tree_exact(self, dataset, stores):
        mem, col = stores

        def tree(store):
            return BellwetherTreeBuilder(
                dataset.task,
                store,
                split_attrs=dataset.task.item_feature_attrs,
                min_items=20,
                max_depth=2,
            ).build("rf")

        assert_same_tree(tree(mem).root, tree(col).root)

    def test_basic_search_profile_exact(self, dataset, stores):
        mem, col = stores
        prof_mem = BasicBellwetherSearch(dataset.task, mem).evaluate_all()
        prof_col = BasicBellwetherSearch(dataset.task, col).evaluate_all()
        assert diff_profiles(prof_mem, prof_col, tol=EXACT) == []
        assert np.array_equal(
            [r.rmse for r in prof_mem], [r.rmse for r in prof_col]
        )
