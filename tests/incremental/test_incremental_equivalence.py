"""Incremental refresh must be indistinguishable from rebuilding from scratch.

Each test streams deltas into a deployed store and compares the refreshed
answer against a from-scratch rebuild of the *same* store: basic-search
profiles and rendered budget tables (the fig 7 configuration), cube entries
and cross-tabs (the fig 9 bookstore configuration), serial and with a
2-worker executor, and after K seeded random retract/re-append deltas.
The acceptance bar is bit-for-bit equality with ≥ 3× fewer operations.
Comparators come from :mod:`repro.verify` — the same diffing API the
differential conformance harness fuzzes with.
"""

import numpy as np
import pytest

from repro.core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    budget_sweep,
    render_table,
)
from repro.datasets import make_bookstore, make_mailorder
from repro.exec import ParallelConfig
from repro.incremental import month_append_delta, month_split_store, window_end
from repro.ml import CrossValidationEstimator, TrainingSetEstimator
from repro.storage import BlockDelta, RegionBlock, StoreDelta
from repro.verify import (
    EXACT,
    assert_same_cube,
    assert_same_profile,
    assert_same_store,
    counters_snapshot,
    ops_delta,
    scans_delta,
)


class TestFig7BasicSearchEquivalence:
    """Mail-order + CV estimator: the fig 7 configuration, month by month."""

    @pytest.fixture
    def deployed(self):
        ds = make_mailorder(
            n_items=50, n_months=8, seed=0,
            error_estimator=CrossValidationEstimator(n_folds=3),
        )
        gen, regions, store = month_split_store(ds.task, base_month=6)
        search = BasicBellwetherSearch(ds.task, store)
        search.evaluate_all()
        return ds, gen, regions, store, search

    @pytest.mark.parametrize("workers", [None, 2])
    def test_month_append_refresh_matches_fresh_search(self, deployed, workers):
        ds, gen, regions, store, search = deployed
        parallel = ParallelConfig(workers=workers) if workers else None
        for month in (7, 8):
            store.apply_delta(month_append_delta(gen, regions, month))

            before = counters_snapshot()
            scratch = BasicBellwetherSearch(ds.task, store)
            scratch_profile = scratch.evaluate_all()
            scratch_ops = ops_delta(before)

            before = counters_snapshot()
            incr_profile = search.refresh(parallel=parallel)
            refresh_ops = ops_delta(before)
            assert scans_delta(before) == 0

            assert_same_profile(scratch_profile, incr_profile, EXACT)
            assert scratch_ops >= 3 * refresh_ops

            budgets = (10.0, 30.0, 60.0)
            assert render_table(budget_sweep(search, budgets)) == render_table(
                budget_sweep(scratch, budgets)
            )

    def test_delta_built_store_equals_fresh_generation(self, deployed):
        """After the append stream, block contents match a scratch build."""
        __, gen, regions, store, __ = deployed
        for month in (7, 8):
            store.apply_delta(month_append_delta(gen, regions, month))
        fresh = gen.generate(
            regions=[r for r in regions if window_end(r) <= 8]
        )
        assert set(store.regions()) == set(fresh.regions())
        assert_same_store(fresh, store, EXACT)


class TestFig9CubeEquivalence:
    """Bookstore (no planted bellwether) + cube maintainer: fig 9's config."""

    @pytest.fixture
    def deployed(self):
        ds = make_bookstore(
            n_items=60, n_months=8, seed=7,
            error_estimator=TrainingSetEstimator(),
        )
        gen, regions, store = month_split_store(ds.task, base_month=6)
        builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        maintainer = builder.incremental()
        maintainer.refresh()
        return ds, gen, regions, store, builder, maintainer

    def test_month_append_refresh_matches_scratch_cube(self, deployed):
        ds, gen, regions, store, builder, maintainer = deployed
        for month in (7, 8):
            store.apply_delta(month_append_delta(gen, regions, month))

            before = counters_snapshot()
            scratch = BellwetherCubeBuilder(
                ds.task, store, ds.hierarchies
            ).build("optimized")
            scratch_ops = ops_delta(before)

            before = counters_snapshot()
            refreshed = maintainer.refresh()
            refresh_ops = ops_delta(before)
            assert scans_delta(before) == 0

            assert_same_cube(scratch, refreshed, EXACT)
            assert scratch_ops >= 3 * refresh_ops

            for level in sorted({s.level for s in refreshed.subsets}):
                assert refreshed.crosstab_text(level) == scratch.crosstab_text(
                    level
                )
                assert refreshed.crosstab_text(
                    level, show="error"
                ) == scratch.crosstab_text(level, show="error")

    def test_random_retract_reappend_deltas(self, deployed):
        """K seeded retract-then-re-append rounds stay bit-for-bit right."""
        ds, gen, regions, store, builder, maintainer = deployed
        rng = np.random.default_rng(42)
        region_pool = store.regions()
        for __ in range(4):
            region = region_pool[rng.integers(len(region_pool))]
            block = store.read(region)
            ids = np.unique(block.item_ids)
            victims = rng.choice(ids, size=min(3, len(ids)), replace=False)
            rows = np.isin(block.item_ids, victims)
            removed = RegionBlock(
                block.item_ids[rows], block.x[rows], block.y[rows],
                None if block.weights is None else block.weights[rows],
            )
            store.apply_delta(
                StoreDelta({region: BlockDelta(retract_ids=victims)})
            )
            store.apply_delta(
                StoreDelta({region: BlockDelta(append=removed)})
            )

            refreshed = maintainer.refresh()
            scratch = BellwetherCubeBuilder(
                ds.task, store, ds.hierarchies
            ).build("optimized")
            assert_same_cube(scratch, refreshed, EXACT)

    def test_drop_region_refresh_matches_scratch(self, deployed):
        ds, gen, regions, store, builder, maintainer = deployed
        victim = store.regions()[3]
        store.apply_delta(StoreDelta({}, drop_regions=(victim,)))
        refreshed = maintainer.refresh()
        scratch = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies
        ).build("optimized")
        assert_same_cube(scratch, refreshed, EXACT)


class TestStacksAdvanceApartFromSolutions:
    """``advance()`` moves the statistics; ``refresh()`` catches the solutions up.

    The two can interleave freely — a table build advances a maintainer
    nobody asked a cube of — and the cube must come out the same.
    """

    @pytest.fixture
    def deployed(self):
        ds = make_bookstore(
            n_items=60, n_months=8, seed=7,
            error_estimator=TrainingSetEstimator(),
        )
        gen, regions, store = month_split_store(ds.task, base_month=6)
        builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        return ds, gen, regions, store, builder.incremental()

    @staticmethod
    def _resolved(before):
        return counters_snapshot().get("incr.cells_resolved", 0) - before.get(
            "incr.cells_resolved", 0
        )

    def test_there_is_one_way_of_bringing_stacks_forward(self, deployed):
        maintainer = deployed[-1]
        with pytest.raises(TypeError):
            maintainer.builder.incremental(mode="exact")
        with pytest.raises(TypeError):
            type(maintainer)(maintainer.builder, mode="merge")

    def test_stacks_advanced_before_any_cube_was_asked_for(self, deployed):
        ds, gen, regions, store, maintainer = deployed
        before = counters_snapshot()
        assert maintainer.advance() == "scan"
        store.apply_delta(month_append_delta(gen, regions, 7))
        assert maintainer.advance() == "delta"
        assert self._resolved(before) == 0
        assert scans_delta(before) == 1

        refreshed = maintainer.refresh()
        scratch = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        assert_same_cube(scratch.build("optimized_serial"), refreshed, EXACT)

    def test_stacks_advanced_between_a_cube_and_its_refresh(self, deployed):
        ds, gen, regions, store, maintainer = deployed
        before = counters_snapshot()
        maintainer.refresh()
        everything = self._resolved(before)
        store.apply_delta(month_append_delta(gen, regions, 7))
        assert maintainer.advance() == "delta"
        store.apply_delta(month_append_delta(gen, regions, 8))
        assert maintainer.advance() == "delta"
        assert self._resolved(before) == everything  # advancing solves nothing

        before = counters_snapshot()
        refreshed = maintainer.refresh()
        assert scans_delta(before) == 0
        assert 0 < self._resolved(before) < everything  # dirty problems only
        scratch = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        assert_same_cube(scratch.build("optimized_serial"), refreshed, EXACT)
