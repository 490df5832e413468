"""Coverage for the degenerate paths the fuzzer rarely lands on exactly:

* singular design matrices going through the stacked solver's pinv
  fallback (bit-identical to the per-problem fallback),
* empty feasible-region sets in :class:`BasicBellwetherSearch`,
* :class:`StaleCacheError` recovery — a table build warm-starting from
  statistics written at an older store version must patch them forward,
  not serve them.
"""

import numpy as np
import pytest

from repro.core import (
    AggregateTargetQuery,
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTask,
    Criterion,
    FactAggregate,
    build_store,
)
from repro.dimensions import (
    HierarchicalDimension,
    IntervalDimension,
    ItemHierarchies,
    ProductCostModel,
    RegionSpace,
)
from repro.incremental import build_cube_tables
from repro.ml import LinearSuffStats, TrainingSetEstimator, add_intercept
from repro.ml.suffstats import StackedSuffStats
from repro.storage import (
    BlockDelta,
    CubeTableStore,
    StaleCacheError,
    StoreDelta,
)
from repro.table import Database, Table
from repro.verify import (
    EXACT,
    assert_same_cube,
    assert_same_stacks,
    counters_snapshot,
)

N_ITEMS = 16
N_WEEKS = 3
STATES = ("WI", "IL", "NY", "MD")


@pytest.fixture(scope="module")
def singular_task() -> BellwetherTask:
    """A task whose item feature ``rd`` is constant zero, so every design
    matrix carries a zero column next to the intercept — singular X'WX."""
    rng = np.random.default_rng(17)
    n = 600
    fact = Table(
        {
            "item": rng.integers(1, N_ITEMS + 1, n),
            "week": rng.integers(1, N_WEEKS + 1, n),
            "state": rng.choice(STATES, n).astype(object),
            "profit": rng.lognormal(2.0, 0.6, n),
        }
    )
    time = IntervalDimension("week", N_WEEKS, unit="week")
    loc = HierarchicalDimension.from_spec(
        "state",
        {"MW": ["WI", "IL"], "NE": ["NY", "MD"]},
        level_names=("All", "Division", "State"),
    )
    space = RegionSpace([time, loc])
    items = Table(
        {
            "item": np.arange(1, N_ITEMS + 1),
            "category": rng.choice(["a", "b"], N_ITEMS).astype(object),
            "rd": np.zeros(N_ITEMS),
        }
    )
    return BellwetherTask(
        Database(fact, []),
        space,
        items,
        "item",
        target=AggregateTargetQuery("sum", "profit", "item"),
        regional_features=[FactAggregate("sum", "profit", "reg_profit")],
        item_feature_attrs=("category", "rd"),
        cost_model=ProductCostModel(
            space, {s: 1.0 for s in STATES}
        ),
        criterion=Criterion(min_coverage=0.2),
        error_estimator=TrainingSetEstimator(),
    )


@pytest.fixture(scope="module")
def singular_hierarchies() -> ItemHierarchies:
    return ItemHierarchies(
        [
            HierarchicalDimension.from_spec(
                "category", ["a", "b"], level_names=("Any", "Category")
            )
        ]
    )


class TestSingularDesigns:
    def test_stacked_pinv_matches_per_problem_pinv(self):
        """The batched solver's singular fallback is the scalar fallback."""
        rng = np.random.default_rng(23)
        x = add_intercept(rng.normal(size=(12, 2)))
        x[:, 2] = x[:, 1]  # duplicated column: rank-deficient design
        y = rng.normal(size=12)
        singular = LinearSuffStats.from_data(x, y)
        regular = LinearSuffStats.from_data(
            add_intercept(rng.normal(size=(12, 2))), rng.normal(size=12)
        )
        assert np.linalg.matrix_rank(singular.xtwx) < singular.p
        stack = StackedSuffStats.from_stats([singular, regular])
        batched = stack.solve()
        assert np.array_equal(batched[0], singular.solve())
        assert np.array_equal(batched[1], regular.solve())
        assert np.array_equal(stack.sse(), np.array(
            [singular.sse(), regular.sse()]
        ))

    def test_singular_cube_batched_equals_serial(
        self, singular_task, singular_hierarchies
    ):
        """A cube full of singular designs: optimized == serial, bit for bit."""
        store, __, __ = build_store(singular_task)
        builder = BellwetherCubeBuilder(
            singular_task,
            store,
            singular_hierarchies,
            min_subset_size=2,
            min_examples=2,
        )
        before = counters_snapshot()
        serial = builder.build("optimized_serial")
        batched = builder.build("optimized")
        solved = counters_snapshot()["ml.linear.batched_problems"] - before.get(
            "ml.linear.batched_problems", 0
        )
        assert solved > 0
        assert any(
            batched.entry(s).error is not None for s in batched.subsets
        )
        assert_same_cube(serial, batched, EXACT)


class TestEmptyFeasibleSets:
    def test_impossible_budget_finds_nothing(self, singular_task):
        store, costs, coverage = build_store(singular_task)
        search = BasicBellwetherSearch(
            singular_task, store, costs=costs, coverage=coverage
        )
        result = search.run(budget=0.0)
        assert not result.found
        assert result.bellwether is None
        assert result.feasible == ()
        assert np.isnan(result.average_error())

    def test_feasibility_returns_at_a_workable_budget(self, singular_task):
        store, costs, coverage = build_store(singular_task)
        search = BasicBellwetherSearch(
            singular_task, store, costs=costs, coverage=coverage
        )
        assert search.run(budget=max(costs.values())).found


class TestStaleCacheRecovery:
    def test_stale_cache_raises(self, singular_task, singular_hierarchies, tmp_path):
        store, __, __ = build_store(singular_task)
        builder = BellwetherCubeBuilder(
            singular_task,
            store,
            singular_hierarchies,
            min_subset_size=2,
            min_examples=2,
        )
        build_cube_tables(builder, tmp_path)
        with pytest.raises(StaleCacheError):
            CubeTableStore(tmp_path).load(
                builder.geometry_signature(), store.version + 1
            )

    def test_recovery_patches_instead_of_serving_stale(
        self, singular_task, singular_hierarchies, tmp_path
    ):
        """After a store delta, a fresh table build must never serve the
        on-disk statistics as-is: it adopts the base-cell table as a warm
        start, patches the dirty cells forward through the changelog (cache
        hit, **no full scan**, one read per touched region, nothing solved),
        and agrees with a scratch build bit for bit."""
        store, __, __ = build_store(singular_task)

        def make_builder():
            return BellwetherCubeBuilder(
                singular_task,
                store,
                singular_hierarchies,
                min_subset_size=2,
                min_examples=2,
            )

        build_cube_tables(make_builder(), tmp_path)

        region = next(iter(store.regions()))
        victim = store.read(region).item_ids[:1]
        store.apply_delta(StoreDelta({region: BlockDelta(retract_ids=victim)}))

        before = counters_snapshot()
        io0 = store.stats.snapshot()
        cold = make_builder()
        tables = build_cube_tables(cold, tmp_path)
        after = counters_snapshot()
        io = store.stats - io0
        assert after["incr.cache_hits"] - before.get("incr.cache_hits", 0) == 1
        assert after.get("incr.cache_misses", 0) == before.get("incr.cache_misses", 0)
        assert after.get("incr.cells_resolved", 0) == before.get(
            "incr.cells_resolved", 0
        )
        assert (io.full_scans, io.region_reads) == (0, 1)

        scratch_builder = make_builder()
        assert_same_cube(
            scratch_builder.build("optimized_serial"),
            cold.build_from_tables(tables),
            EXACT,
        )

        version, base = CubeTableStore(tmp_path).load_base(
            cold.geometry_signature()
        )
        assert version == store.version
        assert_same_stacks(scratch_builder.scan_stacks(), base, EXACT)
