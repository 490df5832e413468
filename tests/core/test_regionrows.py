"""RegionRows.evaluate is evaluate_all(item_ids=...) without the scan — bit for bit.

Random stores with everything the raw path has to cope with: weighted
blocks, two rows for one item, item ids outside the item table (in the
blocks and in the question), one-hot columns collinear with the intercept,
regions under ``min_examples``; then a delta stream that reorders rows by
retract-and-reappend, drops a region and adds one, with the rows carried
forward region by region.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BasicBellwetherSearch, DirectTask
from repro.core.regionrows import RegionRows
from repro.dimensions import Region
from repro.ml import TrainingSetEstimator
from repro.storage import MemoryStore, RegionBlock
from repro.storage.delta import BlockDelta, StoreDelta
from repro.table import Table

FEATURES = ("f0", "f1", "cat_a", "cat_b", "cat_c")


def _block(rng, n_items, n_rows, weighted):
    # ids past n_items are outside the item table; repeats are allowed
    ids = rng.integers(1, n_items + 4, n_rows)
    onehot = np.eye(3)[rng.integers(0, 3, n_rows)]
    x = np.hstack([rng.normal(size=(n_rows, 2)), onehot])
    y = x[:, 0] * 2.0 + rng.normal(size=n_rows)
    weights = rng.uniform(0.5, 2.0, n_rows) if weighted else None
    return RegionBlock(ids, x, y, weights)


@st.composite
def deployments(draw):
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    n_items = draw(st.integers(6, 30))
    weighted = draw(st.booleans())
    regions = [Region((f"r{k}",)) for k in range(draw(st.integers(1, 6)))]
    blocks = {
        region: _block(rng, n_items, int(rng.integers(0, 3 * n_items)), weighted)
        for region in regions
    }
    return rng, n_items, weighted, MemoryStore(blocks, FEATURES)


def _questions(rng, n_items):
    """Item lists: a random subset, one with repeats, one naming strangers."""
    table = np.arange(1, n_items + 1)
    subset = rng.choice(table, size=int(rng.integers(1, n_items + 1)), replace=False)
    return [
        subset.tolist(),
        subset.tolist() + subset[: len(subset) // 2].tolist(),
        subset.tolist() + [n_items + 1, n_items + 3, n_items + 50],
        table.tolist(),
    ]


def _bits(results):
    return [
        (
            str(r.region),
            r.cost,
            r.coverage,
            r.n_items,
            r.error.kind,
            float(r.error.rmse).hex(),
            float(r.error.sse).hex(),
            r.error.dof,
        )
        for r in results
    ]


def _assert_equals_raw_path(rng, n_items, store, rows, min_examples):
    assert rows.regions == tuple(store.regions())
    task = DirectTask(
        Table({"item": np.arange(1, n_items + 1)}),
        "item",
        targets=np.zeros(n_items),
        error_estimator=TrainingSetEstimator(),
    )
    costs = {region: float(k) for k, region in enumerate(store.regions())}
    for ids in _questions(rng, n_items):
        raw = BasicBellwetherSearch(
            task, store, costs=costs, min_examples=min_examples
        )
        want = raw.evaluate_all(item_ids=ids)
        assert _bits(rows.evaluate(ids, costs, min_examples)) == _bits(want)


@given(deployments(), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_evaluate_equals_evaluate_all_bit_for_bit(deployment, min_examples):
    rng, n_items, weighted, store = deployment
    items = np.arange(1, n_items + 1)
    rows = RegionRows.from_store(store, items)
    _assert_equals_raw_path(rng, n_items, store, rows, min_examples)

    regions = store.regions()
    victim = regions[int(rng.integers(len(regions)))]
    block = store.read(victim)
    moved = np.unique(block.item_ids)[::2]
    mask = np.isin(block.item_ids, moved)
    stream = [
        # retract-and-reappend: the same rows, in another order
        StoreDelta(
            {
                victim: BlockDelta(
                    append=RegionBlock(
                        block.item_ids[mask],
                        block.x[mask],
                        block.y[mask],
                        None if block.weights is None else block.weights[mask],
                    ),
                    retract_ids=moved,
                )
            }
        ),
        # a new region, and the victim dropped
        StoreDelta(
            {Region(("new",)): BlockDelta(append=_block(rng, n_items, 2 * n_items, weighted))},
            drop_regions=(victim,),
        ),
        # the victim comes back (last in store order now), smaller
        StoreDelta({victim: BlockDelta(append=_block(rng, n_items, 5, weighted))}),
    ]
    for delta in stream:
        version = store.version
        store.apply_delta(delta)
        io = store.stats.snapshot()
        carried = rows.advance(store, store.deltas_since(version))
        io = store.stats - io
        assert (io.full_scans, io.region_reads) == (0, len(delta.blocks))
        before = dict(zip(rows.regions, rows.blocks))
        for region, held in zip(carried.regions, carried.blocks):
            if region not in delta.touched_regions:
                assert held is before[region]
        rows = carried
        _assert_equals_raw_path(rng, n_items, store, rows, min_examples)
