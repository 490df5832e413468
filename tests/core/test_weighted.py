"""WLS end-to-end: per-item weights flow from task to models (Section 6.4)."""

import numpy as np
import pytest

from repro.core import (
    AggregateTargetQuery,
    BasicBellwetherSearch,
    BellwetherTask,
    BellwetherTreeBuilder,
    FactAggregate,
    TaskError,
    TrainingDataGenerator,
)
from repro.ml import (
    LinearRegression,
    LinearSuffStats,
    TrainingSetEstimator,
    add_intercept,
)
from repro.table import Table


@pytest.fixture(scope="module")
def weighted_task(small_db, small_space):
    rng = np.random.default_rng(9)
    items = Table(
        {
            "item": np.arange(1, 31),
            "rd": rng.normal(size=30),
            "importance": rng.uniform(0.5, 3.0, 30),
        }
    )
    return BellwetherTask(
        small_db,
        small_space,
        items,
        "item",
        target=AggregateTargetQuery("sum", "profit", "item"),
        regional_features=[FactAggregate("sum", "profit", "reg_profit")],
        item_feature_attrs=("rd",),
        error_estimator=TrainingSetEstimator(),
        weight_column="importance",
    )


class TestWeightPlumbing:
    def test_weights_exposed(self, weighted_task):
        w = weighted_task.item_weights
        assert w is not None and (w > 0).all()

    def test_blocks_carry_weights(self, weighted_task):
        gen = TrainingDataGenerator(weighted_task)
        store = gen.generate(regions=gen.all_regions()[:3])
        for region in store.regions():
            block = store._fetch(region)
            assert block.weights is not None
            assert block.weights.shape == (block.n_examples,)

    def test_restrict_keeps_alignment(self, weighted_task):
        gen = TrainingDataGenerator(weighted_task)
        region = gen.all_regions()[0]
        block = gen.generate(regions=[region])._fetch(region)
        sub = block.restrict_to(block.item_ids[:5])
        w_of = dict(zip(block.item_ids, block.weights))
        for item, w in zip(sub.item_ids, sub.weights):
            assert w == w_of[item]

    def test_search_uses_weighted_errors(self, weighted_task):
        """Weighted and unweighted searches disagree on region errors."""
        gen = TrainingDataGenerator(weighted_task)
        store = gen.generate()
        weighted = {
            r.region: r.rmse
            for r in BasicBellwetherSearch(weighted_task, store).evaluate_all()
        }
        # same data, unit weights
        unweighted_task = BellwetherTask(
            weighted_task.db,
            weighted_task.space,
            weighted_task.item_table,
            "item",
            target=weighted_task.target,
            regional_features=weighted_task.regional_features,
            item_feature_attrs=weighted_task.item_feature_attrs,
            error_estimator=TrainingSetEstimator(),
        )
        store_u = TrainingDataGenerator(unweighted_task).generate()
        unweighted = {
            r.region: r.rmse
            for r in BasicBellwetherSearch(unweighted_task, store_u).evaluate_all()
        }
        diffs = [
            abs(weighted[r] - unweighted[r])
            for r in set(weighted) & set(unweighted)
        ]
        assert max(diffs) > 1e-9

    def test_weighted_error_matches_manual_wls(self, weighted_task):
        gen = TrainingDataGenerator(weighted_task)
        region = weighted_task.space.region(4, "All")
        block = gen.generate(regions=[region])._fetch(region)
        stats = LinearSuffStats.from_data(
            add_intercept(block.x), block.y, block.weights
        )
        est = weighted_task.error_estimator.estimate(
            block.x, block.y, block.weights
        )
        assert est.rmse == pytest.approx(stats.rmse())

    def test_nonpositive_weights_rejected(self, small_db, small_space):
        items = Table({"item": [1, 2], "w": [1.0, 0.0]})
        with pytest.raises(TaskError):
            BellwetherTask(
                small_db,
                small_space,
                items,
                "item",
                target=AggregateTargetQuery("sum", "profit", "item"),
                regional_features=[FactAggregate("sum", "profit", "f")],
                weight_column="w",
            )

    def test_direct_task_weights_validated(self):
        from repro.core import DirectTask

        items = Table({"item": [1, 2]})
        with pytest.raises(TaskError):
            DirectTask(items, "item", targets=np.ones(2), weights=np.array([1.0, -1.0]))
        task = DirectTask(
            items, "item", targets=np.ones(2), weights=np.array([1.0, 2.0])
        )
        assert list(task.item_weights) == [1.0, 2.0]


class TestWeightedPruning:
    @pytest.fixture()
    def grown(self, weighted_task):
        """A tree that splits, its builder, store and held-out items."""
        gen = TrainingDataGenerator(weighted_task)
        # without the full-period regions, whose feature *is* the target
        store = gen.generate(
            regions=[r for r in gen.all_regions() if not str(r).startswith("[1-4")]
        )
        builder = BellwetherTreeBuilder(
            weighted_task, store, min_items=6, max_depth=2,
            max_numeric_splits=4, min_relative_goodness=0.0,
        )
        ids = np.asarray(weighted_task.item_ids)
        tree = builder.build("rf", item_ids=ids[:22])
        nodes, stack = [], [tree.root]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].children)
        assert len(nodes) > 1
        return builder, store, tree, nodes, ids[22:]

    def test_prune_fits_and_reads_a_node_once(self, grown, monkeypatch):
        """Not once per (node, held-out item): a visited node is read and
        fit once, a collapsed one once more for its error estimate."""
        builder, store, tree, nodes, held_out = grown
        fits = []
        real_fit = LinearRegression.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(self)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(LinearRegression, "fit", counting_fit)
        before = store.stats.snapshot()
        builder.prune(tree, held_out)
        assert len(fits) <= len(nodes)
        assert (store.stats - before).region_reads <= 2 * len(nodes)

    def test_prune_scores_a_node_with_the_model_it_keeps(self, grown, monkeypatch):
        """The held-out predictions that decide a prune come from each
        node's own weighted model — the one a surviving leaf is served with —
        not from an unweighted refit per (node, item)."""
        builder, store, tree, nodes, held_out = grown
        scored = []  # (model, x, prediction) of every predict during prune
        real_predict = LinearRegression.predict

        def recording_predict(self, x):
            out = real_predict(self, x)
            scored.append((self, np.array(x), out))
            return out

        monkeypatch.setattr(LinearRegression, "predict", recording_predict)
        builder.prune(tree, held_out)
        monkeypatch.undo()
        kept = {id(node.model) for node in nodes if node.model is not None}
        assert scored and all(id(model) in kept for model, __, __ in scored)
        for leaf in tree.leaves():
            block = store.read(leaf.region).restrict_to(leaf.item_ids)
            assert block.weights is not None
            served = LinearRegression().fit(block.x, block.y, block.weights)
            assert np.array_equal(leaf.model.coef, served.coef)
            mine = [(x, out) for model, x, out in scored if model is leaf.model]
            assert mine, "no held-out item was scored with the leaf's own model"
            for x, out in mine:
                assert np.array_equal(out, leaf.model.predict(x))
