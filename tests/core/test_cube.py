"""Tests for bellwether cube construction, crosstab views and prediction."""

import numpy as np
import pytest

from repro.core import BellwetherCubeBuilder, CubePredictor, SearchError, TaskError
from repro.dimensions import CubeSubset, HierarchicalDimension, ItemHierarchies


@pytest.fixture(scope="module")
def hierarchies() -> ItemHierarchies:
    cat = HierarchicalDimension.from_spec(
        "category", {"Either": ["a", "b"]},
        level_names=("Any", "Side", "Category"), root_name="Any",
    )
    return ItemHierarchies([cat])


@pytest.fixture(scope="module")
def cube_builder(small_task, small_store, hierarchies):
    store, __, __ = small_store
    return BellwetherCubeBuilder(
        small_task, store, hierarchies, min_subset_size=5
    )


@pytest.fixture(scope="module")
def cube(cube_builder):
    return cube_builder.build(method="optimized")


class TestSignificance:
    def test_significant_subsets_have_enough_items(self, cube_builder, small_task, hierarchies):
        for subset in cube_builder.significant_subsets:
            n = int(hierarchies.member_mask(small_task.item_table, subset).sum())
            assert n >= cube_builder.min_subset_size

    def test_top_subset_always_significant(self, cube_builder, small_task):
        top = [s for s in cube_builder.significant_subsets if s.level == (0,)]
        assert len(top) == 1
        assert top[0].nodes == ("Any",)

    def test_threshold_excludes_small_subsets(self, small_task, small_store, hierarchies):
        store, __, __ = small_store
        big_k = BellwetherCubeBuilder(
            small_task, store, hierarchies, min_subset_size=10_000
        )
        assert big_k.significant_subsets == []


class TestBuild:
    def test_every_entry_resolved(self, cube):
        assert len(cube) > 0
        for subset in cube.subsets:
            entry = cube.entry(subset)
            assert entry.found
            assert np.isfinite(entry.error.rmse)

    def test_contains_and_len(self, cube):
        assert cube.subsets[0] in cube
        assert len(cube) == len(cube.subsets)

    def test_unknown_subset_rejected(self, cube):
        with pytest.raises(SearchError):
            cube.entry(CubeSubset(("Mars",), (0,)))

    def test_unknown_method_rejected(self, cube_builder):
        with pytest.raises(TaskError):
            cube_builder.build(method="bogus")

    def test_missing_hierarchy_attr_rejected(self, small_task, small_store):
        store, __, __ = small_store
        bad = ItemHierarchies(
            [
                HierarchicalDimension.from_spec(
                    "ghost", {"X": ["p"]}, level_names=("Any", "S", "L"),
                    root_name="Any",
                )
            ]
        )
        with pytest.raises(Exception):
            BellwetherCubeBuilder(small_task, store, bad)


class TestViews:
    def test_crosstab_levels(self, cube):
        finest = cube.crosstab((2,))
        coarsest = cube.crosstab((0,))
        assert len(coarsest) == 1
        assert all(e.subset.level == (2,) for e in finest)

    def test_drilldown_returns_finer_nested_entries(self, cube):
        top = cube.entry(CubeSubset(("Any",), (0,)))
        children = cube.drilldown(top.subset)
        for e in children:
            assert sum(e.subset.level) == 1


class TestPrediction:
    def test_choose_subset_prefers_low_upper_bound(self, cube):
        entry = cube.choose_subset({"category": "a"})
        candidates = [
            cube.entry(s)
            for s in cube.hierarchies.subsets_containing({"category": "a"})
            if s in cube
        ]
        best_upper = min(
            e.error.upper(cube.confidence) for e in candidates if e.found
        )
        assert entry.error.upper(cube.confidence) == pytest.approx(best_upper)

    def test_predictor_outputs_finite(self, cube, small_task, small_store):
        store, __, __ = small_store
        predictor = CubePredictor(cube, small_task, store)
        for item_id in list(small_task.item_ids)[:8]:
            assert np.isfinite(predictor.predict(item_id))

    def test_region_for(self, cube, small_task, small_store):
        store, __, __ = small_store
        predictor = CubePredictor(cube, small_task, store)
        item = small_task.item_ids[0]
        assert predictor.region_for(item) in set(store.regions())

    def test_no_candidates_raises(self, cube):
        with pytest.raises(Exception):
            cube.choose_subset({"category": "not-a-leaf"})


class TestSubsetRestriction:
    def test_item_ids_subset_changes_significance(
        self, small_task, small_store, hierarchies
    ):
        store, __, __ = small_store
        subset_ids = list(np.asarray(small_task.item_ids)[:12])
        builder = BellwetherCubeBuilder(
            small_task, store, hierarchies, min_subset_size=5,
            item_ids=subset_ids,
        )
        for __, __, keep in builder._levels:
            for __, ___, n_items in keep:
                assert n_items <= 12

    def test_unknown_item_ids_rejected(self, small_task, small_store, hierarchies):
        store, __, __ = small_store
        with pytest.raises(TaskError):
            BellwetherCubeBuilder(
                small_task, store, hierarchies, item_ids=[424242]
            )


class TestScalarFallbackCount:
    """``ml.linear.scalar_fallbacks``: problems the batched kernel re-solved
    one by one (ROADMAP item 4(a) — counted before anyone reduces it)."""

    @staticmethod
    def _build(ds, store, monkeypatch, min_subset_size):
        """(counter delta, problems riding in refused batches, rank-deficient)."""
        from repro.ml import StackedSuffStats
        from repro.obs import get_registry

        batches: list[np.ndarray] = []
        solve = StackedSuffStats.solve

        def spy(self, ridge=0.0):
            batches.append(self.xtwx.copy())
            return solve(self, ridge)

        counter = get_registry().counter("ml.linear.scalar_fallbacks")
        before = counter.value
        with monkeypatch.context() as patched:
            patched.setattr(StackedSuffStats, "solve", spy)
            BellwetherCubeBuilder(
                ds.task, store, ds.hierarchies, min_subset_size=min_subset_size
            ).build("optimized")
        assert "ml.linear.scalar_fallbacks" in get_registry().counter_values()
        refused = deficient = 0
        for xtwx in batches:
            ranks = np.linalg.matrix_rank(xtwx)
            deficient += int((ranks < xtwx.shape[-1]).sum())
            try:
                np.linalg.solve(xtwx, np.ones(xtwx.shape[:2] + (1,)))
            except np.linalg.LinAlgError:
                refused += len(xtwx)
        return counter.value - before, refused, deficient

    def test_zero_on_scalability_counted_on_mailorder(self, monkeypatch):
        from repro.core import build_store
        from repro.datasets import make_mailorder, make_scalability

        ds = make_scalability(n_items=400, n_regions=12, seed=0)
        assert self._build(ds, ds.store, monkeypatch, 20) == (0, 0, 0)
        # A cube subset that fixes the category makes the category one-hot
        # columns collinear with the intercept: singular by construction.
        ds = make_mailorder(n_items=60, n_months=4, seed=1)
        store, __, __ = build_store(ds.task)
        counted, refused, deficient = self._build(ds, store, monkeypatch, 5)
        # One exactly singular matrix makes stacked LAPACK refuse its whole
        # batch, so every problem riding with it is re-solved too.
        assert counted == refused >= deficient > 0


class TestOneRollup:
    """``level_tables`` (one scatter-add per level over every region handed
    in) against the per-region rollup written out below, bit for bit."""

    @staticmethod
    def _reference(builder, stacks):
        # The reference: Theorem 1's sum written out — per region, every
        # base cell added to its subset one at a time, in cell order.
        from repro.ml import StackedSuffStats

        out = []
        for level, rm, keep in builder._levels:
            keep_sidx = np.array([s_idx for s_idx, __, __ in keep])
            per = []
            for stack in stacks.values():
                rolled = StackedSuffStats.zeros(len(rm.subsets), stack.p)
                for cell, s_idx in enumerate(rm.subset_of_base.tolist()):
                    for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
                        sums = getattr(rolled, name)
                        sums[s_idx] = sums[s_idx] + getattr(stack, name)[cell]
                per.append(rolled.select(keep_sidx))
            out.append((tuple(level), keep_sidx, per))
        return out

    @classmethod
    def _assert_bit_equal(cls, builder, stacks):
        tables = builder.level_tables(stacks)
        reference = cls._reference(builder, stacks)
        assert len(tables) == len(reference) == builder.n_levels
        for table, (level, keep_sidx, per) in zip(tables, reference):
            assert table.level == level
            assert table.regions == tuple(stacks)
            assert np.array_equal(table.keep_sidx, keep_sidx)
            for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
                got = getattr(table.stats, name)
                want = np.concatenate([getattr(s, name) for s in per])
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (level, name)

    @pytest.fixture(scope="class")
    def mailorder(self):
        from repro.core import build_store
        from repro.datasets import make_mailorder

        ds = make_mailorder(n_items=60, n_months=4, seed=1)
        store, __, __ = build_store(ds.task)
        return ds, store

    @pytest.mark.parametrize("case", ["plain", "weighted", "restricted", "empty-region"])
    def test_matches_per_region_rollup(self, mailorder, case):
        from repro.dimensions import Region
        from repro.storage import MemoryStore, RegionBlock

        ds, store = mailorder
        kwargs = {"min_subset_size": 5}
        if case == "weighted":
            rng = np.random.default_rng(4)
            store = MemoryStore(
                {
                    r: RegionBlock(
                        b.item_ids, b.x, b.y, rng.uniform(0.5, 2.0, b.n_examples)
                    )
                    for r, b in ((r, store.read(r)) for r in store.regions())
                },
                store.feature_names,
            )
        elif case == "restricted":
            kwargs["item_ids"] = list(np.asarray(ds.task.item_ids)[::2])
        elif case == "empty-region":
            blocks = {r: store.read(r) for r in store.regions()}
            first = next(iter(blocks.values()))
            hollow = RegionBlock(first.item_ids[:0], first.x[:0], first.y[:0])
            store = MemoryStore(
                {Region(("nowhere", "nothing")): hollow, **blocks},
                store.feature_names,
            )
        builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies, **kwargs)
        stacks = builder.scan_stacks()
        assert len(stacks) == len(store.regions()) - (case == "empty-region")
        self._assert_bit_equal(builder, stacks)
        # Whatever regions it is handed, in whatever order: a refresh rolls
        # up only the touched ones.
        some = {r: stacks[r] for r in reversed(list(stacks)[1::3])}
        self._assert_bit_equal(builder, some)
        for table in builder.level_tables({}):
            assert (table.regions, len(table.stats)) == ((), 0)

    def test_optimized_build_is_one_scan_and_a_solve_per_level(self, mailorder):
        from repro.obs import get_registry

        ds, store = mailorder
        builder = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies, min_subset_size=5
        )
        solves = get_registry().counter("ml.linear.batched_solves")
        io0, solves0 = store.stats.snapshot(), solves.value
        cube = builder.build("optimized")
        io = store.stats - io0
        assert (io.full_scans, io.region_reads) == (1, 0)  # Lemma 2
        assert 0 < solves.value - solves0 <= builder.n_levels
        assert len(cube) == len(builder.significant_subsets)


class TestLaidOutScan:
    """``scan_stacks`` (regions laid end to end, one grouping per run) against
    ``_cell_stats_stack`` region by region, bit for bit."""

    @pytest.fixture(scope="class")
    def awkward(self):
        """A store with every kind of block the scan has to group: weighted
        and unweighted stretches, ids the item table does not know, a region
        of nothing else, a region of odd items only, a zero-row region."""
        from repro.core import build_store
        from repro.datasets import make_mailorder
        from repro.dimensions import Region
        from repro.storage import MemoryStore, RegionBlock

        ds = make_mailorder(n_items=60, n_months=4, seed=1)
        store, __, __ = build_store(ds.task)
        rng = np.random.default_rng(11)
        blocks = {}
        for k, region in enumerate(store.regions()):
            b = store.read(region)
            # weighted in stretches of three regions, unweighted in between
            w = rng.uniform(0.5, 2.0, b.n_examples) if (k // 3) % 2 else None
            blocks[region] = RegionBlock(b.item_ids, b.x, b.y, w)
        regions = list(blocks)
        b = blocks[regions[4]]
        mixed = b.item_ids.copy()
        mixed[::5] = 10_000 + np.arange(len(mixed[::5]))
        blocks[regions[4]] = RegionBlock(mixed, b.x, b.y, b.weights)
        blocks[regions[7]] = RegionBlock(b.item_ids + 20_000, b.x, b.y, b.weights)
        odd = np.asarray(ds.task.item_ids)[1::2]
        blocks[regions[9]] = blocks[regions[9]].restrict_to(odd)
        blocks = {
            Region(("nowhere", "nothing")): RegionBlock(b.item_ids[:0], b.x[:0], b.y[:0]),
            **blocks,
        }
        return ds, MemoryStore(blocks, store.feature_names)

    @staticmethod
    def _per_region(builder):
        out = {}
        n_cells = len(builder._cells)
        for region in builder.store.regions():
            block = builder.store.read(region).restrict_to(builder._ids)
            if block.n_examples:
                cells = builder._cell_of_item[builder._index.rows_of(block.item_ids)]
                out[region] = builder._cell_stats_stack(block, cells, n_cells)
        return out

    @pytest.mark.parametrize("budget", [1, 97, "two-regions", 10**9])
    @pytest.mark.parametrize("items", ["all", "even"])
    def test_matches_the_one_block_case(self, awkward, monkeypatch, budget, items):
        from repro.core import cube as cube_module

        ds, store = awkward
        kwargs = {"min_subset_size": 5}
        if items == "even":
            kwargs["item_ids"] = list(np.asarray(ds.task.item_ids)[::2])
        builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies, **kwargs)
        want = self._per_region(builder)
        if budget == "two-regions":  # a run that ends exactly on the budget
            budget = sum(
                int(np.isin(store.read(r).item_ids, builder._ids).sum())
                for r in list(want)[:2]
            )
        monkeypatch.setattr(cube_module, "SCAN_ROWS", budget)
        got = builder.scan_stacks()
        assert list(got) == list(want)
        # strangers only, odd items only (for the even builder), no rows
        regions = store.regions()
        assert regions[0] not in got and regions[8] not in got
        assert (regions[10] in got) == (items == "all")
        for region in want:
            for name in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
                a, b = getattr(got[region], name), getattr(want[region], name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes(), (region, name)
