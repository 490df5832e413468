"""The snapshot invariant, stated as behaviour.

(a) A query the published snapshot can answer never waits on the writer:
    with ``apply_delta`` parked mid-build, warm /bellwether, warm /predict
    and /healthz answer at the old version; once the delta lands, the next
    answers carry the new version and equal the in-process reference.
(b) A :class:`Snapshot` cannot be edited, and successive snapshots share
    what did not change.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

import repro.serve.state as state_module
from repro.core import BasicBellwetherSearch
from repro.incremental import month_append_delta, month_split_store
from repro.obs import get_registry
from repro.serve import ServeClient, ServerState, serve_in_thread
from repro.serve.snapshot import Snapshot
from repro.storage import BlockDelta, RegionBlock, StoreDelta
from repro.verify import EXACT, assert_same_cube

from .conftest import SUBSET

BASE_MONTH = 3
BUDGET = 60.0
OTHER_SUBSET = list(range(5, 19))


@pytest.fixture()
def live(dataset, tmp_path):
    gen, regions, store = month_split_store(dataset.task, BASE_MONTH)
    state = ServerState(
        dataset.task,
        store,
        dataset.hierarchies,
        tables_dir=tmp_path / "tables",
        min_subset_size=3,
    )
    with serve_in_thread(state) as handle:
        yield handle, month_append_delta(gen, regions, BASE_MONTH + 1)


def _timed(call):
    start = time.monotonic()
    return call(), time.monotonic() - start


def test_reads_do_not_wait_for_a_delta_in_flight(live, monkeypatch, lockcheck):
    handle, delta = live
    state = handle.state
    entered, release = threading.Event(), threading.Event()
    real_build = state_module.build_cube_tables

    def parked_build(*args, **kwargs):
        entered.set()
        assert release.wait(30), "test never released the parked delta"
        return real_build(*args, **kwargs)

    with ServeClient(handle.host, handle.port) as client:
        warm_bellwether = client.bellwether(budget=BUDGET, items=SUBSET)
        warm_predict = client.predict(items=SUBSET, budget=BUDGET)
        version = warm_bellwether["store_version"]

        monkeypatch.setattr(state_module, "build_cube_tables", parked_build)
        applied: dict = {}
        writer = threading.Thread(
            target=lambda: applied.update(state.apply_delta(delta))
        )
        writer.start()
        try:
            assert entered.wait(30), "apply_delta never reached the table build"
            # The store has moved; the published snapshot has not.
            assert int(state.store.version) == version + 1
            for call, want in (
                (lambda: client.bellwether(budget=BUDGET, items=SUBSET), warm_bellwether),
                (lambda: client.predict(items=SUBSET, budget=BUDGET), warm_predict),
            ):
                got, elapsed = _timed(call)
                assert elapsed < 1.0
                assert got == want
            health, elapsed = _timed(client.healthz)
            assert elapsed < 1.0
            assert (health["status"], health["store_version"]) == ("ok", version)
        finally:
            release.set()
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert applied == {"store_version": version + 1}

        # apply_delta has returned: every later request answers at v+1.
        assert client.healthz()["store_version"] == version + 1
        got = client.bellwether(budget=BUDGET, items=SUBSET)
        predicted = client.predict(items=SUBSET, budget=BUDGET)

    direct = BasicBellwetherSearch(state.task, state.store)
    expected = direct.run(budget=BUDGET, item_ids=SUBSET)
    assert got["store_version"] == predicted["store_version"] == version + 1
    assert got["bellwether"]["region_str"] == str(expected.bellwether.region)
    assert got["bellwether"]["rmse"] == float(expected.bellwether.rmse)
    assert [e["region_str"] for e in got["feasible"]] == [
        str(r.region) for r in expected.feasible
    ]
    assert predicted["region_str"] == str(expected.bellwether.region)
    model = direct.fit_model(expected.bellwether.region, item_ids=SUBSET)
    assert predicted["coef"] == [float(c) for c in model.coef]
    assert lockcheck.snapshot()["violations"] == []


def test_snapshot_is_frozen_and_its_mappings_read_only(live):
    handle, __ = live
    snap = handle.state._snapshot
    assert isinstance(snap, Snapshot)
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.version = 99
    with pytest.raises(TypeError):
        snap.profiles[frozenset({1})] = []
    with pytest.raises(TypeError):
        snap.models[("r", (1,))] = None
    assert isinstance(snap.regions, tuple) and isinstance(snap.tables, tuple)


def test_cold_subset_build_shares_the_old_profiles(live):
    handle, __ = live
    state = handle.state
    with ServeClient(handle.host, handle.port) as client:
        client.bellwether(budget=BUDGET, items=SUBSET)
        before = state._snapshot
        client.bellwether(budget=BUDGET, items=OTHER_SUBSET)  # cold build
        after = state._snapshot
    assert after is not before and after.version == before.version
    assert frozenset(OTHER_SUBSET) not in before.profiles  # old one untouched
    assert set(after.profiles) == set(before.profiles) | {frozenset(OTHER_SUBSET)}
    for key, profile in before.profiles.items():
        assert after.profiles[key] is profile
    assert after.tables is before.tables


def test_successor_snapshots_keep_read_only_mappings_as_they_are(live):
    """``dataclasses.replace`` re-runs ``__post_init__``: what is already a
    read-only mapping of a predecessor is kept, not copied again; a plain
    dict handed in is still copied, so the builder's cannot alias in."""
    handle, delta = live
    state = handle.state
    with ServeClient(handle.host, handle.port) as client:
        before = state._snapshot
        client.bellwether(budget=BUDGET, items=OTHER_SUBSET)  # a new profile
        after = state._snapshot
    assert after is not before
    assert after.cost is before.cost and after.heads is before.heads
    assert after.models is before.models

    mine = {frozenset({1}): next(iter(after.profiles.values()))}
    copied = dataclasses.replace(after, profiles=mine)
    mine.clear()
    assert len(copied.profiles) == 1
    with pytest.raises(ValueError):
        copied.cost[0] = 1.0
    # a cost array handed in writable is copied, read-only
    cost = np.array(after.cost)
    priced = dataclasses.replace(after, cost=cost)
    assert priced.cost is not cost and not priced.cost.flags.writeable

    # A delta that brings regions prices them and renders their heads ...
    state.apply_delta(delta)
    grown = state._snapshot
    assert grown.version == after.version + 1
    assert len(grown.heads) == len(grown.cost) == len(grown.regions)
    assert len(grown.regions) > len(after.regions)
    # ... and one that leaves regions and costs standing shares both.
    region = grown.regions[0]
    block = state.store.read(region)
    moved = block.item_ids[:3]
    keep = np.isin(block.item_ids, moved)
    state.apply_delta(
        StoreDelta(
            {
                region: BlockDelta(
                    append=RegionBlock(block.item_ids[keep], block.x[keep], block.y[keep]),
                    retract_ids=moved,
                )
            }
        )
    )
    adopted = state._snapshot
    assert adopted.version == grown.version + 1
    assert adopted.cost is grown.cost and adopted.heads is grown.heads


def test_start_up_and_a_delta_solve_no_cube(dataset, tmp_path):
    """Adoption needs statistics, not solutions: the tables are scanned or
    patched, rolled up and saved; the only solves are the profile's."""
    gen, regions, store = month_split_store(dataset.task, BASE_MONTH)
    resolved = get_registry().counter("incr.cells_resolved")
    before = resolved.value
    state = ServerState(
        dataset.task,
        store,
        dataset.hierarchies,
        tables_dir=tmp_path / "tables",
        min_subset_size=3,
    )
    scans0 = store.stats.full_scans
    state.apply_delta(month_append_delta(gen, regions, BASE_MONTH + 1))
    assert resolved.value == before
    assert store.stats.full_scans == scans0
    assert sorted(f.name for f in (tmp_path / "tables").iterdir()) == [
        "cube_tables.dat",
        "cube_tables_meta.json",
    ]
    cube = state.builder.build_from_tables(state._snapshot.tables)
    assert_same_cube(state.builder.build("optimized"), cube, EXACT)
