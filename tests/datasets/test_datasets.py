"""Tests for the synthetic dataset generators and their planted structure."""

import numpy as np
import pytest

from repro.core import BasicBellwetherSearch, build_store
from repro.datasets import (
    make_bookstore,
    make_mailorder,
    make_scalability,
    make_simulation,
)
from repro.dimensions import Interval
from repro.ml import TrainingSetEstimator


@pytest.fixture(scope="module")
def mailorder():
    return make_mailorder(n_items=80, seed=0, error_estimator=TrainingSetEstimator())


class TestMailOrder:
    def test_schema_shape(self, mailorder):
        assert mailorder.item_table.n_rows == 80
        fact = mailorder.db.fact
        for col in ("item", "month", "state", "catalog", "quantity", "profit"):
            assert col in fact
        mailorder.db.check_integrity()

    def test_deterministic(self):
        a = make_mailorder(n_items=20, seed=5)
        b = make_mailorder(n_items=20, seed=5)
        assert np.allclose(a.db.fact["profit"], b.db.fact["profit"])

    def test_different_seeds_differ(self):
        a = make_mailorder(n_items=20, seed=5)
        b = make_mailorder(n_items=20, seed=6)
        assert a.db.fact.n_rows != b.db.fact.n_rows or not np.allclose(
            a.db.fact["profit"][:50], b.db.fact["profit"][:50]
        )

    def test_planted_region_found(self, mailorder):
        """The basic search recovers the planted MD window under budget."""
        store, costs, coverage = build_store(mailorder.task)
        search = BasicBellwetherSearch(mailorder.task, store, costs=costs)
        result = search.run(budget=60.0)
        interval, node = result.bellwether.region.values
        assert node == "MD"
        assert interval.end >= 4  # a substantial early-MD window

    def test_bellwether_beats_average(self, mailorder):
        store, costs, coverage = build_store(mailorder.task)
        search = BasicBellwetherSearch(mailorder.task, store, costs=costs)
        result = search.run(budget=60.0)
        assert result.bellwether.rmse < 0.5 * result.average_error()

    def test_planted_region_coverage_full(self, mailorder):
        """Planted cells are always present, so MD windows cover all items."""
        store, costs, coverage = build_store(mailorder.task)
        region = mailorder.space.region(8, "MD")
        assert coverage[region] == pytest.approx(1.0)

    def test_heterogeneous_plants_differ(self):
        ds = make_mailorder(n_items=30, seed=1, heterogeneous=True)
        assert len(set(ds.planted.values())) > 1


class TestBookstore:
    def test_no_unique_bellwether(self):
        """Without a plant, many regions stay indistinguishable (Fig 9b)."""
        ds = make_bookstore(n_items=60, seed=2)
        store, costs, coverage = build_store(ds.task)
        search = BasicBellwetherSearch(ds.task, store, costs=costs)
        # Mid budgets: too small for the near-exhaustive [1-t, All] regions,
        # which is where Figure 9's "no bellwether" regime lives.
        result = search.run(budget=60.0)
        assert result.found
        frac = result.indistinguishable_fraction(0.99)
        assert frac > 0.15  # a sizable tie set; the mail-order one is ~0.01

    def test_city_hierarchy(self):
        ds = make_bookstore(n_items=20, seed=0)
        dim = ds.space.dimensions[1]
        assert dim.level_names == ("All", "State", "City")


class TestSimulation:
    def test_leaf_count_grows_with_nodes(self):
        small = make_simulation(n_items=100, n_tree_nodes=3, seed=0)
        big = make_simulation(n_items=100, n_tree_nodes=31, seed=0)
        assert len(big.leaves) > len(small.leaves)

    def test_noise_increases_best_region_error(self):
        quiet = make_simulation(n_items=200, noise=0.05, seed=3)
        loud = make_simulation(n_items=200, noise=2.0, seed=3)
        def best_rmse(ds):
            search = BasicBellwetherSearch(ds.task, ds.store)
            return search.run().bellwether.rmse
        assert best_rmse(loud) > best_rmse(quiet)

    def test_store_covers_all_regions(self):
        ds = make_simulation(n_items=50, n_regions=8, seed=1)
        assert len(ds.store.regions()) == 8
        for region in ds.store.regions():
            assert ds.store._fetch(region).n_examples == 50

    def test_leaf_paths_are_consistent_partitions(self):
        ds = make_simulation(n_items=100, n_tree_nodes=15, seed=4)
        bits = {
            name: ds.task.item_table[name]
            for name in ds.task.item_feature_attrs
        }
        matches_per_item = np.zeros(100, dtype=int)
        for leaf in ds.leaves:
            mask = np.ones(100, dtype=bool)
            for j, v in leaf.path.items():
                mask &= bits[f"b{j}"].astype(str) == v
            matches_per_item += mask
        assert (matches_per_item == 1).all()  # leaves partition the items


class TestScalability:
    def test_example_count(self):
        ds = make_scalability(n_items=100, n_regions=12, seed=0)
        assert ds.n_examples_total == 100 * len(ds.store.regions())

    def test_hierarchy_fanout_controls_subsets(self):
        narrow = make_scalability(n_items=100, hierarchy_leaves=2, seed=0)
        wide = make_scalability(n_items=100, hierarchy_leaves=6, seed=0)
        def n_subsets(ds):
            from repro.core import BellwetherCubeBuilder
            return len(
                BellwetherCubeBuilder(
                    ds.task, ds.store, ds.hierarchies, min_subset_size=1
                ).significant_subsets
            )
        assert n_subsets(wide) > n_subsets(narrow)

    def test_numeric_feature_knob(self):
        ds = make_scalability(n_items=50, n_numeric_features=7, seed=0)
        assert len(ds.task.item_feature_attrs) == 7

    def test_planted_regions_best(self):
        """One of the four planted regions wins the basic search."""
        ds = make_scalability(n_items=300, n_regions=16, noise=0.05, seed=2)
        search = BasicBellwetherSearch(ds.task, ds.store)
        result = search.run()
        assert result.bellwether.region in ds.planted_regions


class TestOutOfCoreScalability:
    def test_backends_bit_identical(self, tmp_path):
        """The training data is a function of the seed alone: two streamed
        writes hold the same bytes (once: whichever backend wrote them)."""
        import numpy as np

        from repro.datasets import write_scalability

        a = write_scalability(tmp_path / "a", n_items=80, n_regions=8, seed=5)
        b = write_scalability(tmp_path / "b", n_items=80, n_regions=8, seed=5)
        assert a.planted_regions == b.planted_regions
        assert a.n_examples_total == b.n_examples_total == 80 * 8
        for region in a.store.regions():
            x, y = a.store.read(region), b.store.read(region)
            assert np.array_equal(x.x, y.x)
            assert np.array_equal(x.y, y.y)

    def test_planted_regions_win_out_of_core(self, tmp_path):
        from repro.datasets import write_scalability

        ds = write_scalability(
            tmp_path / "s", n_items=300, n_regions=16, noise=0.05, seed=2
        )
        result = BasicBellwetherSearch(ds.task, ds.store).run()
        assert result.bellwether.region in ds.planted_regions

    def test_unknown_backend_rejected(self, tmp_path):
        """One on-disk layout: there is no backend to name, known or not."""
        from repro.datasets import write_scalability

        for backend in ("npz", "columnar", "tape"):
            with pytest.raises(TypeError, match="backend"):
                write_scalability(tmp_path / "s", n_items=10, n_regions=4,
                                  backend=backend)
