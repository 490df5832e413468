"""Tests for the basic bellwether search and budget-sweep reporting."""

import numpy as np
import pytest

from repro.core import (
    BasicBellwetherSearch,
    RandomSamplingBaseline,
    budget_sweep,
    build_store,
    render_table,
)
from repro.dimensions import Interval
from repro.storage import BlockDelta, StoreDelta


@pytest.fixture(scope="module")
def search(small_task, small_store):
    store, costs, coverage = small_store
    return BasicBellwetherSearch(small_task, store, costs=costs)


class TestEvaluateAll:
    def test_every_feasible_region_evaluated(self, search):
        results = search.evaluate_all()
        assert len(results) > 0
        for r in results:
            assert r.n_items >= search.min_examples
            assert np.isfinite(r.rmse)

    def test_cached_scan(self, search):
        before = search.store.stats.full_scans
        search.evaluate_all()
        search.evaluate_all()
        assert search.store.stats.full_scans == before or (
            search.store.stats.full_scans == before + 1
        )  # at most one scan for repeated calls

    def test_item_restriction_changes_errors(self, search, small_task):
        subset = list(np.asarray(small_task.item_ids)[:15])
        full = {r.region: r.rmse for r in search.evaluate_all()}
        sub = {r.region: r.rmse for r in search.evaluate_all(item_ids=subset)}
        common = set(full) & set(sub)
        assert common
        assert any(abs(full[r] - sub[r]) > 1e-12 for r in common)

    def test_repeated_ids_do_not_dilute_coverage(self, small_task, small_store):
        """Coverage is measured against the distinct items named — the key
        the profile is cached under — not the length of the list."""
        store, costs, __ = small_store
        ids = [int(i) for i in small_task.item_ids[:20]]
        clean = BasicBellwetherSearch(small_task, store, costs=costs)
        repeated = BasicBellwetherSearch(small_task, store, costs=costs)
        want = clean.evaluate_all(item_ids=ids)
        got = repeated.evaluate_all(item_ids=ids + ids[:10])
        assert max(r.coverage for r in got) == 1.0
        assert got == want
        # and what the deduplicated key is then served is not poisoned
        assert repeated.evaluate_all(item_ids=ids) == want


class TestRefresh:
    def test_changelog_gap_prices_a_region_the_gap_added(self, small_task):
        """The gap fallback re-evaluates by scan; a region that arrived
        inside the gap has no precomputed cost and must get one."""
        store, __, __ = build_store(small_task)
        newcomer = store.regions()[0]
        block = store.read(newcomer)
        store.apply_delta(StoreDelta({}, drop_regions=(newcomer,)))
        search = BasicBellwetherSearch(small_task, store)
        assert newcomer not in {r.region for r in search.evaluate_all()}
        store.apply_delta(StoreDelta({newcomer: BlockDelta(append=block)}))
        store._log_floor = store.version  # the history in between is gone
        by_region = {r.region: r for r in search.refresh()}
        assert by_region[newcomer].cost == small_task.cost(newcomer)
        assert search.costs[newcomer] == small_task.cost(newcomer)
        assert list(by_region) == [
            r.region for r in BasicBellwetherSearch(small_task, store).evaluate_all()
        ]


class TestRun:
    def test_budget_respected(self, search):
        result = search.run(budget=3.0)
        for r in result.feasible:
            assert r.cost <= 3.0

    def test_bellwether_is_min_error(self, search):
        result = search.run(budget=10.0)
        assert result.found
        assert result.bellwether.rmse == min(r.rmse for r in result.feasible)

    def test_impossible_budget(self, search):
        result = search.run(budget=-1.0)
        assert not result.found
        assert result.feasible == ()

    def test_larger_budget_never_worse(self, search):
        """The feasible set grows with budget, so min error is monotone."""
        errors = [search.run(budget=b).bellwether.rmse for b in (2.0, 6.0, 26.0)]
        assert errors[0] >= errors[1] >= errors[2]

    def test_sweep_matches_individual_runs(self, search):
        swept = dict(search.sweep([2.0, 6.0]))
        assert swept[2.0].bellwether.region == search.run(budget=2.0).bellwether.region

    def test_unbounded_budget_prefers_whole_space(self, search, small_task):
        """With sum-profit as both feature and target, [1-4, All] is exact."""
        result = search.run()
        assert result.bellwether.region == small_task.space.region(4, "All")
        assert result.bellwether.rmse == pytest.approx(0.0, abs=1e-6)


class TestResultStatistics:
    def test_average_error_at_least_bellwether(self, search):
        result = search.run(budget=10.0)
        assert result.average_error() >= result.bellwether.rmse

    def test_indistinguishable_fraction_bounds(self, search):
        result = search.run(budget=10.0)
        frac = result.indistinguishable_fraction(0.95)
        assert 0.0 <= frac <= 1.0

    def test_wider_confidence_more_indistinguishable(self, search):
        result = search.run(budget=10.0)
        assert result.indistinguishable_fraction(0.99) >= (
            result.indistinguishable_fraction(0.5)
        )

    def test_empty_result_nan(self, search):
        result = search.run(budget=-1.0)
        assert np.isnan(result.indistinguishable_fraction())
        assert np.isnan(result.average_error())


class TestFitModel:
    def test_model_predicts(self, search, small_task):
        result = search.run(budget=10.0)
        model = search.fit_model(result.bellwether.region)
        block = search.store.read(result.bellwether.region)
        pred = model.predict(block.x)
        assert pred.shape == (block.n_examples,)


class TestBudgetSweepReport:
    def test_points_and_table(self, search, small_task, small_generator):
        smp = RandomSamplingBaseline(
            small_task,
            {(t, s): 1.0 for t in range(1, 5) for s in ("WI", "IL", "NY", "MD")},
            generator=small_generator,
            seed=0,
        )
        points = budget_sweep(
            search, [2.0, 8.0, 20.0], sampling=smp, sampling_trials=2
        )
        assert [p.budget for p in points] == [2.0, 8.0, 20.0]
        for p in points:
            assert p.bel_err <= p.avg_err or np.isnan(p.bel_err)
        text = render_table(points)
        assert "bel_err" in text and "indist@95%" in text
        assert len(text.splitlines()) == len(points) + 2

    def test_infeasible_budget_point(self, search):
        points = budget_sweep(search, [-1.0])
        assert points[0].n_feasible == 0
        assert np.isnan(points[0].bel_err)


class TestSamplingBaseline:
    def test_error_positive_and_finite(self, small_task, small_generator):
        smp = RandomSamplingBaseline(
            small_task,
            {(t, s): 1.0 for t in range(1, 5) for s in ("WI", "IL", "NY", "MD")},
            generator=small_generator,
            seed=3,
        )
        err = smp.sample_error(budget=6.0, n_trials=3)
        assert np.isfinite(err) and err > 0

    def test_zero_budget_gives_nan(self, small_task, small_generator):
        smp = RandomSamplingBaseline(
            small_task,
            {(t, s): 1.0 for t in range(1, 5) for s in ("WI", "IL", "NY", "MD")},
            generator=small_generator,
        )
        assert np.isnan(smp.sample_error(budget=0.0, n_trials=2))
