"""RegionRows.evaluate is evaluate_all(item_ids=...) without the scan — bit for bit.

Random stores with everything the raw path has to cope with: weighted
blocks, two rows for one item, item ids outside the item table (in the
blocks and in the question), one-hot columns collinear with the intercept,
regions under ``min_examples``; then a delta stream that reorders rows by
retract-and-reappend, drops a region and adds one, with the rows carried
forward region by region.  Then the corners of the flat table: a region
with no rows or no *selected* rows between two populated ones (the
``np.add.reduceat`` trap: an empty segment returns the element at its
index, not 0), a store that mixes weighted and unweighted blocks, and a
region that grows and shrinks under ``advance``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BasicBellwetherSearch, DirectTask
from repro.core.basic import RegionProfile
from repro.core.regionrows import TABLE_REGIONS, RegionRows
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


def _bits(profile):
    """The regions a profile's entries name, then every column's bytes."""
    return (
        [str(profile.region(k)) for k in range(len(profile))],
        *(
            (column.dtype.str, column.tobytes())
            for column in (
                profile.cost, profile.coverage, profile.n_items,
                profile.rmse, profile.sse, profile.dof,
            )
        ),
    )


def _raw(task, store, costs, min_examples, ids):
    """The reference: the raw path's results, as columns."""
    search = BasicBellwetherSearch(task, store, costs=costs, min_examples=min_examples)
    results = search.evaluate_all(item_ids=ids)
    assert all(r.error.kind == "training" for r in results)
    return RegionProfile.of(results)


def _cost(rows, costs):
    """``costs`` aligned with the rows' regions, as ``evaluate`` takes them."""
    return np.array([costs[region] for region in rows.regions])


def _task_and_costs(n_items, store):
    task = DirectTask(
        Table({"item": np.arange(1, n_items + 1)}),
        "item",
        targets=np.zeros(n_items),
        error_estimator=TrainingSetEstimator(),
    )
    return task, {region: float(k) for k, region in enumerate(store.regions())}


def _assert_equals_raw_path(rng, n_items, store, rows, min_examples):
    assert rows.regions == tuple(store.regions())
    task, costs = _task_and_costs(n_items, store)
    for ids in _questions(rng, n_items):
        want = _raw(task, store, costs, min_examples, ids)
        got = rows.evaluate(ids, _cost(rows, costs), min_examples)
        assert got.regions is rows.regions
        assert _bits(got) == _bits(want)


def _slices(rows):
    """Region -> its slice of every column of the table that holds it."""
    return {
        region: table.slice(k)
        for table in rows.tables
        for k, region in enumerate(table.regions)
    }


def _sizes(rows):
    return [len(columns[0]) for columns in _slices(rows).values()]


def _assert_untouched_slices_equal(before, after, touched):
    old, new = _slices(before), _slices(after)
    for region in after.regions:
        if region in touched:
            continue
        for was, now in zip(old[region], new[region]):
            if was is None:
                assert now is None
            else:
                assert was.dtype == now.dtype and was.tobytes() == now.tobytes()


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
        _assert_untouched_slices_equal(rows, carried, delta.touched_regions)
        rows = carried
        _assert_equals_raw_path(rng, n_items, store, rows, min_examples)


def _block_of(rng, ids, weighted=False):
    ids = np.asarray(ids)
    x = rng.normal(size=(len(ids), len(FEATURES)))
    y = x[:, 0] - x[:, 1] + rng.normal(size=len(ids))
    return RegionBlock(ids, x, y, rng.uniform(0.5, 2.0, len(ids)) if weighted else None)


def test_a_region_without_rows_or_without_selected_rows_counts_zero():
    rng = np.random.default_rng(5)
    n_items = 12
    low, high = np.arange(1, 7), np.arange(7, 13)
    names = ["empty_first", "a", "empty", "b", "none_selected", "c", "empty_last"]
    held = {
        "a": np.tile(low, 3), "b": np.tile(low, 2), "c": np.tile(low, 4),
        # populated, but only with items the questions below never name
        "none_selected": np.tile(high, 3),
    }
    store = MemoryStore(
        {Region((n,)): _block_of(rng, held.get(n, [])) for n in names}, FEATURES
    )
    rows = RegionRows.from_store(store, np.arange(1, n_items + 1))
    assert _sizes(rows) == [0, 18, 0, 12, 18, 24, 0]
    task, costs = _task_and_costs(n_items, store)
    for min_examples in (1, 7, 13):
        for ids in (low.tolist(), low[:3].tolist(), np.arange(1, 13).tolist()):
            want = _raw(task, store, costs, min_examples, ids)
            got = rows.evaluate(ids, _cost(rows, costs), min_examples)
            assert _bits(got) == _bits(want)
            evaluated = set(_bits(got)[0])
            assert not evaluated & {"[empty_first]", "[empty]", "[empty_last]"}
            if max(ids) <= 6:
                assert "[none_selected]" not in evaluated
    assert rows.evaluate([7, 8], _cost(rows, costs), 1).region(0) == Region(
        ("none_selected",)
    )


def test_weighted_and_unweighted_regions_in_one_store():
    rng = np.random.default_rng(11)
    n_items = 10
    ids = np.tile(np.arange(1, n_items + 1), 3)
    store = MemoryStore(
        {
            Region((f"r{k}",)): _block_of(rng, ids, weighted=flag)
            for k, flag in enumerate([True, False, False, True, False])
        },
        FEATURES,
    )
    rows = RegionRows.from_store(store, np.arange(1, n_items + 1))
    assert [w is not None for __, w, __, __ in _slices(rows).values()] == [
        True, False, False, True, False
    ]
    _assert_equals_raw_path(rng, n_items, store, rows, 3)


def test_advance_over_a_region_that_grows_and_shrinks():
    rng = np.random.default_rng(23)
    n_items = 15
    regions = [Region((f"r{k}",)) for k in range(5)]
    store = MemoryStore(
        {r: _block(rng, n_items, 40, weighted=False) for r in regions}, FEATURES
    )
    rows = RegionRows.from_store(store, np.arange(1, n_items + 1))
    victim = regions[2]
    gone = np.unique(store.read(victim).item_ids)[:6]
    stream = [
        # grows: 25 more rows
        StoreDelta({victim: BlockDelta(append=_block(rng, n_items, 25, False))}),
        # shrinks: every row of six items leaves
        StoreDelta({victim: BlockDelta(retract_ids=gone)}),
        # both at once, beside a second region
        StoreDelta(
            {
                victim: BlockDelta(
                    append=_block(rng, n_items, 3, False),
                    retract_ids=np.unique(store.read(victim).item_ids)[6:9],
                ),
                regions[4]: BlockDelta(append=_block(rng, n_items, 7, False)),
            }
        ),
    ]
    sizes = [_sizes(rows)[2]]
    for delta in stream:
        version = store.version
        store.apply_delta(delta)
        carried = rows.advance(store, store.deltas_since(version))
        _assert_untouched_slices_equal(rows, carried, delta.touched_regions)
        rows = carried
        sizes.append(_sizes(rows)[2])
        fresh = RegionRows.from_store(store, np.arange(1, n_items + 1))
        assert _slices(rows).keys() == _slices(fresh).keys()
        _assert_untouched_slices_equal(fresh, rows, ())
        _assert_equals_raw_path(rng, n_items, store, rows, 4)
        task, costs = _task_and_costs(n_items, store)
        for ids in _questions(rng, n_items):
            assert _bits(rows.evaluate(ids, _cost(rows, costs), 4)) == _bits(
                fresh.evaluate(ids, _cost(fresh, costs), 4)
            )
    assert sizes[1] > sizes[0] and sizes[2] < sizes[1]


def test_advance_shares_the_tables_a_delta_does_not_touch():
    """More regions than one table holds: a delta lays out again only the
    tables holding a region it names; a dropped region, a region that comes
    back last and new regions regroup the rest in store order."""
    rng = np.random.default_rng(31)
    n_items = 12
    regions = [Region((f"r{k:02d}",)) for k in range(3 * TABLE_REGIONS + 5)]
    store = MemoryStore(
        {r: _block(rng, n_items, 20, weighted=False) for r in regions}, FEATURES
    )
    items = np.arange(1, n_items + 1)
    rows = RegionRows.from_store(store, items)
    assert [len(t.regions) for t in rows.tables] == [TABLE_REGIONS] * 3 + [5]

    def step(delta):
        nonlocal rows
        version = store.version
        store.apply_delta(delta)
        io = store.stats.snapshot()
        carried = rows.advance(store, store.deltas_since(version))
        io = store.stats - io
        assert (io.full_scans, io.region_reads) == (0, len(delta.blocks))
        assert carried.regions == tuple(store.regions())
        assert all(0 < len(t.regions) <= TABLE_REGIONS for t in carried.tables)
        _assert_untouched_slices_equal(rows, carried, delta.touched_regions)
        fresh = RegionRows.from_store(store, items)
        _assert_untouched_slices_equal(fresh, carried, ())
        before = {id(t) for t in rows.tables}
        shared = [t for t in carried.tables if id(t) in before]
        assert all(
            set(t.regions).isdisjoint(delta.touched_regions) for t in shared
        )
        rows = carried
        _assert_equals_raw_path(rng, n_items, store, rows, 4)
        return len(shared)

    # two regions of the second table: the other three tables are shared
    second = regions[TABLE_REGIONS:2 * TABLE_REGIONS]
    assert step(
        StoreDelta(
            {
                second[1]: BlockDelta(append=_block(rng, n_items, 9, False)),
                second[7]: BlockDelta(retract_ids=np.array([1, 2, 3])),
            }
        )
    ) == 3
    # a region of the first table dropped: its table shrinks, the rest stand
    assert step(StoreDelta({}, drop_regions=(regions[3],))) == 3
    # it comes back, last in store order now, beside two new regions
    assert step(
        StoreDelta(
            {
                regions[3]: BlockDelta(append=_block(rng, n_items, 6, False)),
                Region(("new-a",)): BlockDelta(append=_block(rng, n_items, 30, False)),
                Region(("new-b",)): BlockDelta(append=_block(rng, n_items, 0, False)),
            }
        )
    ) == 4
    # one region in every table: nothing is shared, everything still equal
    assert step(
        StoreDelta(
            {
                t.regions[0]: BlockDelta(append=_block(rng, n_items, 2, False))
                for t in rows.tables
            }
        )
    ) == 0
