"""Tests for the RF-hybrid construction (Section 5.2's noted refinement)."""

import pytest

from repro.core import BellwetherTreeBuilder
from repro.datasets import make_simulation
from repro.obs import get_registry


def _signature(node):
    if node.is_leaf:
        return ("leaf", str(node.region), tuple(sorted(node.item_ids)))
    return ("split", str(node.split), tuple(_signature(c) for c in node.children))


@pytest.fixture(scope="module")
def builder(small_task, small_store):
    store, __, __ = small_store
    return BellwetherTreeBuilder(
        small_task,
        store,
        split_attrs=("category", "rd"),
        min_items=8,
        max_depth=3,
        max_numeric_splits=3,
    )


class TestHybridEquivalence:
    def test_hybrid_equals_rf(self, builder):
        rf = builder.build(method="rf")
        hybrid = builder.build(method="hybrid", memory_budget_rows=10_000)
        assert _signature(rf.root) == _signature(hybrid.root)

    def test_hybrid_with_zero_budget_equals_rf(self, builder):
        """No node fits in memory: hybrid degenerates to plain RF."""
        rf = builder.build(method="rf")
        hybrid = builder.build(method="hybrid", memory_budget_rows=0)
        assert _signature(rf.root) == _signature(hybrid.root)


class TestHybridScans:
    def test_large_budget_needs_one_scan(self, small_task, small_store):
        """If the root's data fits in memory, one scan builds the tree."""
        store, __, __ = small_store
        builder = BellwetherTreeBuilder(
            small_task, store, split_attrs=("category", "rd"),
            min_items=8, max_depth=3, max_numeric_splits=3,
        )
        store.stats.reset()
        builder.build(method="hybrid", memory_budget_rows=10**9)
        assert store.stats.full_scans == 1

    def test_hybrid_never_scans_more_than_rf(self, small_task, small_store):
        store, __, __ = small_store
        builder = BellwetherTreeBuilder(
            small_task, store, split_attrs=("category", "rd"),
            min_items=8, max_depth=3, max_numeric_splits=3,
        )
        store.stats.reset()
        builder.build(method="rf")
        rf_scans = store.stats.full_scans
        store.stats.reset()
        builder.build(method="hybrid", memory_budget_rows=10**6)
        assert store.stats.full_scans <= rf_scans


@pytest.fixture(scope="module")
def simulation_builder():
    """Section 7.3's planted tree: five levels, every candidate categorical."""
    ds = make_simulation(n_items=400, n_regions=8, seed=3)
    return BellwetherTreeBuilder(ds.task, ds.store, min_items=30, max_depth=4)


def _build_counting(builder, **kwargs):
    registry = get_registry()
    before = registry.counter_values()
    tree = builder.build(**kwargs)
    moved = {
        name: value - before.get(name, 0)
        for name, value in registry.counter_values().items()
    }
    return tree, moved


@pytest.mark.parametrize("fixture", ["builder", "simulation_builder"])
class TestHybridIsTheLevelFunction:
    """A node that keeps its rows grows by the same level function over them:
    one stacked solve per level, and nothing is read again per subproblem."""

    def test_root_kept_is_one_solve_per_level(self, fixture, request):
        builder = request.getfixturevalue(fixture)
        rf, rf_moved = _build_counting(builder, method="rf")
        hybrid, moved = _build_counting(
            builder, method="hybrid", memory_budget_rows=10**9
        )
        assert _signature(rf.root) == _signature(hybrid.root)
        assert moved["ml.linear.batched_solves"] == hybrid.n_levels
        assert moved["store.full_scans"] == 1
        assert moved["store.region_reads"] <= rf_moved["store.region_reads"]

    def test_some_nodes_kept_reads_no_more_than_rf(self, fixture, request):
        builder = request.getfixturevalue(fixture)
        rf, rf_moved = _build_counting(builder, method="rf")
        # half the root's rows: the root scans, smaller nodes keep theirs
        budget = rf.root.n_items * len(builder.store.regions()) // 2
        hybrid, moved = _build_counting(
            builder, method="hybrid", memory_budget_rows=budget
        )
        assert _signature(rf.root) == _signature(hybrid.root)
        assert moved["store.full_scans"] <= rf_moved["store.full_scans"]
        assert moved["store.region_reads"] <= rf_moved["store.region_reads"]
        assert moved["tree.split_evals"] == rf_moved["tree.split_evals"]
