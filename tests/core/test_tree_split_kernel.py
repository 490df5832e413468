"""The RF tree's one-pass split kernel.

Every (candidate, partition) of a node — both sides of a numeric threshold,
each category of a categorical attribute — is evaluated on a block from one
design matrix (``StackedSuffStats.from_binary_splits``).  Three referees: a
per-mask :meth:`LinearSuffStats.from_data`, the operation counters the bench
journal gates two-sided, and Lemma 1 (``naive`` refits every subproblem) on a
data set where the tree really splits on numeric attributes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BellwetherTreeBuilder, DirectTask
from repro.datasets import make_scalability, make_simulation
from repro.ml import LinearSuffStats, StackedSuffStats, TrainingSetEstimator, add_intercept
from repro.obs import get_registry
from repro.storage import MemoryStore, RegionBlock
from repro.table import Table
from repro.verify import assert_same_tree

MIN_EXAMPLES = 4


@st.composite
def split_problems(draw):
    n = draw(st.integers(0, 40))
    p = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=(n, p))
    y = rng.normal(scale=5.0, size=n)
    w = rng.uniform(0.25, 4.0, size=n) if draw(st.booleans()) else None
    masks = []
    for __ in range(draw(st.integers(1, 3))):
        # few distinct values: ties on both sides of most thresholds
        values = rng.integers(0, 6, size=n).astype(np.float64)
        # midpoints, plus thresholds that leave the left / right side empty
        for b in (-1.0, 0.5, 1.5, 2.5, 4.5, 9.0):
            masks.append(values < b)
    for __ in range(draw(st.integers(0, 2))):
        # a k-way categorical candidate: one mask row per category, skewed
        # so that some categories stay empty or below MIN_EXAMPLES
        k = draw(st.integers(2, 5))
        category = rng.choice(k, size=n, p=rng.dirichlet(np.full(k, 0.5)))
        masks.extend(category == c for c in range(k))
    return x, y, w, np.array(masks).reshape(len(masks), n)


@settings(max_examples=60, deadline=None)
@given(split_problems())
def test_one_pass_sides_equal_from_data_on_each_mask(problem):
    x, y, w, left = problem
    z = add_intercept(x)
    sides = StackedSuffStats.from_binary_splits(z, y, w, left)
    t = len(left)
    assert len(sides) == 2 * t
    total = LinearSuffStats.from_data(z, y, w)
    scale = 1e-9 * max(1.0, float(np.abs(total.xtwx).max()), abs(total.ytwy))
    for k, mask in enumerate(np.concatenate([left, ~left])):
        got = sides.row(k)
        want = LinearSuffStats.from_data(
            z[mask], y[mask], None if w is None else w[mask]
        )
        assert got.n == want.n == int(mask.sum())
        # the rule of the mask path: the same sides are dropped
        assert (got.n >= MIN_EXAMPLES) == (mask.sum() >= MIN_EXAMPLES)
        assert np.allclose(got.xtwx, want.xtwx, rtol=1e-9, atol=scale)
        assert np.allclose(got.xtwy, want.xtwy, rtol=1e-9, atol=scale)
        assert got.ytwy == pytest.approx(want.ytwy, rel=1e-9, abs=scale)
        assert got.sum_w == pytest.approx(want.sum_w, rel=1e-9, abs=1e-9)


# What the commit before the kernel counted on the configurations the bench
# journal gates two-sided (fig11c, fig12b, the ablation fixture): the kernel
# changed how a split is evaluated, never how many are.
JOURNALED = {
    "fig11c": (
        dict(n_items=1_200, n_regions=32, seed=0, hierarchy_leaves=3),
        dict(min_items=100, max_depth=3, max_numeric_splits=4),
        dict(split_evals=480, nodes_split=0, problems=750),
    ),
    "fig12b": (
        dict(n_items=1_000, n_regions=16, n_numeric_features=8, seed=0),
        dict(min_items=150, max_depth=2, max_numeric_splits=4),
        dict(split_evals=512, nodes_split=0, problems=784),
    ),
    "ablation": (
        dict(n_items=1_500, n_regions=16, n_numeric_features=6, seed=0),
        dict(min_items=150, max_depth=2, max_numeric_splits=8),
        dict(split_evals=768, nodes_split=0, problems=1360),
    ),
}


@pytest.mark.parametrize("config", sorted(JOURNALED))
def test_operation_counters_read_what_the_parent_reads(config):
    data, tree_kwargs, want = JOURNALED[config]
    ds = make_scalability(**data)
    registry = get_registry()
    before = registry.counter_values()
    tree = BellwetherTreeBuilder(
        ds.task,
        ds.store,
        split_attrs=ds.task.item_feature_attrs,
        **tree_kwargs,
    ).build("rf")
    moved = {
        name: value - before.get(name, 0)
        for name, value in registry.counter_values().items()
    }
    assert moved["tree.split_evals"] == want["split_evals"]
    assert moved["tree.nodes_split"] == want["nodes_split"]
    assert moved["ml.linear.batched_problems"] == want["problems"]
    # one batched solve per level, one scan per level (Lemma 1)
    assert moved["ml.linear.batched_solves"] == tree.n_levels
    assert moved["store.full_scans"] == tree.n_levels


@pytest.fixture(scope="module")
def numeric_simulation():
    """The Section 7.3 simulation with its planted bits read as numbers.

    ``make_simulation`` plants a tree over eight binary *categorical* item
    features, which the numeric kernel never sees; the same bits packed into
    two numeric attributes (heavy ties, up to seven thresholds each) make
    the tree split on thresholds, several levels deep.  The store keeps
    only the regional features: the stock blocks also carry the bits one-hot,
    which a node that fixes a bit makes collinear with the intercept, and the
    error of a singular design is decided by the last bits of its statistics
    (ROADMAP item 4) — no two evaluation orders agree there, at any commit.
    """
    ds = make_simulation(n_items=400, n_tree_nodes=9, noise=0.2, n_regions=8, seed=3)
    items = ds.task.item_table
    bits = np.column_stack(
        [np.asarray(items[f"b{j}"]).astype(np.float64) for j in range(8)]
    )
    table = Table(
        {
            "item": np.asarray(items["item"]),
            "hi": bits[:, 0] * 4 + bits[:, 1] * 2 + bits[:, 2],
            "lo": bits[:, 3] * 4 + bits[:, 4] * 2 + bits[:, 5],
            "b6": items["b6"],
        }
    )
    task = DirectTask(
        table,
        "item",
        targets=ds.task.target_values(),
        item_feature_attrs=("hi", "lo", "b6"),
        error_estimator=TrainingSetEstimator(),
    )
    blocks = {}
    for region in ds.store.regions():
        block = ds.store.read(region)
        blocks[region] = RegionBlock(
            block.item_ids, np.ascontiguousarray(block.x[:, -4:]), block.y
        )
    return task, MemoryStore(blocks, ds.store.feature_names[-4:])


def test_lemma_1_where_the_tree_splits_on_thresholds(numeric_simulation):
    task, store = numeric_simulation
    kwargs = dict(min_items=30, max_depth=4, max_numeric_splits=7)
    builder = BellwetherTreeBuilder(task, store, **kwargs)
    rf = builder.build("rf")
    assert rf.n_levels >= 4  # root + three levels of splits
    assert any(
        node.split is not None and node.split.kind == "num"
        for node in _internal_nodes(rf.root)
    )
    scans = store.stats.full_scans
    builder.build("rf")
    assert store.stats.full_scans - scans == rf.n_levels
    for other in (
        builder.build("naive"),
        builder.build("hybrid", memory_budget_rows=400),
    ):
        assert_same_tree(rf.root, other.root)


def _internal_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack.extend(node.children)
