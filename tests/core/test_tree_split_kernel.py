"""The RF tree's split kernel: every split side from sorted value bins.

Per (node, block) every item gets one bin code per split attribute — the
number of a numeric attribute's thresholds at or below its value, or its
category's index — and ``StackedSuffStats.from_bins`` takes one Gram matrix
per bin of the laid rows ``[1 | x | y]``; a threshold's left side is the sum
of the bins below it and its right side the total − left
(``StackedSuffStats.cuts``), a category's side is its bin.  Three referees:
:meth:`LinearSuffStats.from_data` of the masked rows (the same bits for a
bin, close for a cut, which is a running sum), the operation counters the
bench journal gates two-sided, and Lemma 1
(``naive`` refits every subproblem) on data sets where the tree really
splits — on numeric thresholds, on categories, and on both.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BellwetherTreeBuilder, DirectTask, TreeNode, build_store
from repro.core.tree import _ActiveNode
from repro.datasets import make_mailorder, make_scalability, make_simulation
from repro.dimensions import Region
from repro.ml import (
    FitError,
    LinearSuffStats,
    StackedSuffStats,
    TrainingSetEstimator,
    add_intercept,
    design_rows,
)
from repro.obs import get_registry
from repro.storage import FilteredStore, MemoryStore, RegionBlock
from repro.table import Table
from repro.verify import assert_same_tree


def _assert_stats_equal(got, want):
    """A bin is one Gram matrix of its rows, as from_data takes it: the same bits."""
    assert (got.n, got.p) == (want.n, want.p)
    for name in ("ytwy", "xtwx", "xtwy", "sum_w"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(
            getattr(want, name)
        ).tobytes(), name


def _assert_stats_close(got, want, scale):
    assert got.n == want.n
    assert np.allclose(got.xtwx, want.xtwx, rtol=1e-9, atol=scale)
    assert np.allclose(got.xtwy, want.xtwy, rtol=1e-9, atol=scale)
    assert got.ytwy == pytest.approx(want.ytwy, rel=1e-9, abs=scale)
    assert got.sum_w == pytest.approx(want.sum_w, rel=1e-12)


def _rows(z, y, w, mask):
    return LinearSuffStats.from_data(z[mask], y[mask], None if w is None else w[mask])


def _scale(z, y, w):
    total = LinearSuffStats.from_data(z, y, w)
    return 1e-9 * max(1.0, float(np.abs(total.xtwx).max()), abs(total.ytwy))


@st.composite
def binned_blocks(draw):
    """A design block and the bin codes of 1–3 attributes, laid out as the
    tree lays them: attribute r's bins in a run of ``width`` starting at
    ``r·width``.  An attribute uses 1..width of its bins, skewed so that
    some bins stay empty and some hold every row."""
    n = draw(st.integers(0, 40))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.normal(scale=3.0, size=(n, p))
    y = rng.normal(scale=5.0, size=n)
    w = rng.uniform(0.25, 4.0, size=n) if draw(st.booleans()) else None
    width = draw(st.integers(1, 6))
    codes = []
    for r in range(draw(st.integers(1, 3))):
        used = draw(st.integers(1, width))
        share = rng.dirichlet(np.full(used, 0.5))
        codes.append(r * width + rng.choice(used, size=n, p=share))
    return x, y, w, np.array(codes, dtype=np.uint8).reshape(len(codes), n), width


@settings(max_examples=80, deadline=None)
@given(binned_blocks())
@example((np.zeros((0, 2)), np.zeros(0), None, np.zeros((2, 0), np.uint8), 3))
@example((np.ones((5, 1)), np.arange(5.0), np.ones(5), np.zeros((1, 5), np.uint8), 4))
def test_bins_and_cuts_equal_from_data_on_the_masked_rows(block):
    x, y, w, codes, width = block
    z = add_intercept(x)
    scale = _scale(z, y, w)
    bins = StackedSuffStats.from_bins(
        design_rows(x, y), w, codes, codes.shape[0] * width
    )
    assert len(bins) == codes.shape[0] * width
    for b in range(len(bins)):
        # a bin's weights are summed in block order, as from_data sums them
        _assert_stats_equal(bins.row(b), _rows(z, y, w, (codes == b).any(axis=0)))
    # every cut of every run: the bins below it, and the total − those
    left, right = bins.cuts(width)
    assert len(left) == len(right) == codes.shape[0] * (width - 1)
    for r, run in enumerate(codes):
        for j in range(width - 1):
            on_left = run <= r * width + j
            k = r * (width - 1) + j
            _assert_stats_close(left.row(k), _rows(z, y, w, on_left), scale)
            _assert_stats_close(right.row(k), _rows(z, y, w, ~on_left), scale)


def test_more_than_255_bins_take_16_bit_codes():
    rng = np.random.default_rng(0)
    n, n_bins = 900, 300
    z = add_intercept(rng.normal(size=(n, 2)))
    y = rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    codes = rng.integers(0, n_bins - 1, size=n).astype(np.uint16)  # last bin empty
    bins = StackedSuffStats.from_bins(design_rows(z[:, 1:], y), w, codes[None], n_bins)
    for b in range(n_bins):
        _assert_stats_equal(bins.row(b), _rows(z, y, w, codes == b))
    assert bins.n[-1] == 0 and bins.n.sum() == n


def test_the_kernel_refuses_codes_it_cannot_read():
    a = np.ones((3, 3))
    with pytest.raises(FitError, match="unsigned"):
        StackedSuffStats.from_bins(a, None, np.zeros((1, 3), dtype=np.int64), 2)
    with pytest.raises(FitError, match=r"\[0, 2\)"):
        StackedSuffStats.from_bins(a, None, np.array([[0, 1, 2]], np.uint8), 2)
    with pytest.raises(FitError, match="runs of 4"):
        StackedSuffStats.zeros(6, 2).cuts(4)


@pytest.fixture(scope="module")
def many_categories():
    """600 items in 300 categories and a threshold attribute over 3 regions:
    a node's bin codes no longer fit 8 bits."""
    rng = np.random.default_rng(5)
    n_items = 600
    items = np.arange(1, n_items + 1)
    category = np.array([f"c{k:03d}" for k in rng.permutation(n_items) % 300], dtype=object)
    value = rng.integers(0, 20, size=n_items).astype(np.float64)
    target = np.where(value < 10, 2.0, -1.0) + rng.normal(scale=0.1, size=n_items)
    task = DirectTask(
        Table({"item": items, "category": category, "value": value}),
        "item",
        targets=target,
        item_feature_attrs=("category", "value"),
        error_estimator=TrainingSetEstimator(),
    )
    blocks = {}
    for r in range(3):
        held = np.sort(rng.choice(items, size=400, replace=False))
        x = rng.normal(size=(len(held), 2))
        blocks[Region((f"r{r}",))] = RegionBlock(held, x, target[held - 1] + x[:, 0])
    return task, MemoryStore(blocks, ("f0", "f1"))


def test_a_node_with_more_than_255_bins_widens_its_codes(many_categories):
    task, store = many_categories
    builder = BellwetherTreeBuilder(
        task, store, min_items=10, max_depth=1, max_numeric_splits=3, min_examples=3
    )
    root = TreeNode(item_ids=np.asarray(task.item_ids), depth=0)
    plan, attrs = builder._plan(root)
    state = _ActiveNode(0, root, plan, attrs, width=4)
    assert state.n_bins == 300 + 4
    assert state.keys.dtype == np.uint16
    rf = builder.build("rf")
    assert str(rf.root.split) == "<value >= 9.5>"
    assert_same_tree(rf.root, builder.build("naive").root)
    assert_same_tree(rf.root, builder.build("hybrid", memory_budget_rows=10**6).root)


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


def _categorical_workload(name):
    """Trees whose candidates are mostly or only categories.

    Mail order with ``category`` + ``rdexpense`` over the regions a 10.0
    budget affords (fig 8's setting): seed 3 splits the root by category,
    seed 1 twice by thresholds with the categorical candidate beside them.
    The Section 7.3 simulation: eight binary categorical features, a planted
    tree the RF tree recovers five levels deep.
    """
    if name == "simulation-7.3":
        ds = make_simulation(n_items=400, n_regions=8, seed=3)
        return ds.task, ds.store, dict(min_items=30, max_depth=4)
    ds = make_mailorder(
        n_items=60,
        seed=int(name[-1]),
        heterogeneous=True,
        error_estimator=TrainingSetEstimator(),
    )
    store, costs, __ = build_store(ds.task)
    affordable = [r for r in store.regions() if costs[r] <= 10.0]
    return ds.task, FilteredStore(store, affordable), dict(
        split_attrs=("category", "rdexpense"),
        min_items=20,
        max_depth=3,
        max_numeric_splits=4,
    )


@pytest.mark.parametrize(
    "workload", ["mailorder-seed1", "mailorder-seed3", "simulation-7.3"]
)
def test_lemma_1_where_the_tree_splits_on_categories(workload):
    task, store, kwargs = _categorical_workload(workload)
    builder = BellwetherTreeBuilder(task, store, **kwargs)
    rf = builder.build("rf")
    assert rf.n_levels >= 2
    assert_same_tree(rf.root, builder.build("naive").root)
    assert_same_tree(rf.root, builder.build("hybrid", memory_budget_rows=10**9).root)


def _internal_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            yield node
            stack.extend(node.children)
