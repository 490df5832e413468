"""Never-seen item subsets: answered from the snapshot's region rows.

(a) Any number of never-seen subsets at a deployment cost one store scan
    in total — the one that builds the rows, on the first ask, not at
    start-up — and exactly one cache miss each, whichever route computed
    them; every answer equals the raw-path reference bit for bit.
(b) A delta carries the rows forward: no scan, region reads proportional
    to the regions it touched, every other region's arrays shared with the
    previous snapshot.  A changelog gap drops them; the next ask rebuilds.
(c) With a delta parked mid-build, a never-seen subset still answers, at
    the old version, without waiting for the writer.
(d) Readers computing subsets while deltas land never publish a profile
    onto a snapshot it was not computed from; once no writer is active, a
    reader's offer is published.
(e) Rows answer the training-set estimator only, so a task with any other
    estimator is refused at construction, with or without tables.
"""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

import repro.serve.state as state_module
from repro.core import BasicBellwetherSearch, build_store
from repro.datasets import make_mailorder
from repro.exceptions import ConfigError
from repro.incremental import month_append_delta, month_split_store
from repro.ml import CrossValidationEstimator
from repro.obs import catalog
from repro.serve import ServeClient, ServerState, serve_in_thread
from repro.serve.state import MAX_SUBSET_PROFILES
from repro.storage import MemoryStore, RegionBlock, StorageError
from repro.storage.delta import BlockDelta, StoreDelta

from .conftest import N_ITEMS

BASE_MONTH = 3
BUDGET = 60.0
# 20-choose-3 ways to leave three items out: distinct 17-item subsets
SUBSETS = [
    sorted(set(range(1, N_ITEMS + 1)) - set(out))
    for out in itertools.combinations(range(1, N_ITEMS + 1), 3)
]


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


def _reshuffle(store, n_regions: int) -> StoreDelta:
    """Retract and re-append half the rows of the first ``n_regions`` regions."""
    blocks = {}
    for region in store.regions()[:n_regions]:
        block = store.read(region)
        ids = np.unique(block.item_ids)[::2]
        mask = np.isin(block.item_ids, ids)
        blocks[region] = BlockDelta(
            append=RegionBlock(block.item_ids[mask], block.x[mask], block.y[mask]),
            retract_ids=ids,
        )
    return StoreDelta(blocks)


def _counters(state) -> tuple[float, float]:
    metrics = state.metricsz()["metrics"]
    return metrics[catalog.SERVE_CACHE_MISSES], metrics[catalog.SERVE_CACHE_HITS]


def _entry(r) -> tuple:
    return (str(r.region), float(r.rmse), float(r.error.sse), int(r.error.dof),
            float(r.coverage), int(r.n_items))


def _entries(c) -> list[tuple]:
    """A published profile's entries as :func:`_entry` reads a result, from
    its columns."""
    return list(
        zip(
            [str(c.region(k)) for k in range(len(c))],
            c.rmse.tolist(), c.sse.tolist(), c.dof.tolist(),
            c.coverage.tolist(), c.n_items.tolist(),
        )
    )


def _reference(state, ids, store=None) -> tuple:
    """The raw path's answer on ``store`` (default: the server's, as it is
    now): the winner, then the feasible set."""
    search = BasicBellwetherSearch(
        state.task, store or state.store, min_examples=state.search.min_examples
    )
    result = search.run(budget=BUDGET, item_ids=ids)
    return _entry(result.bellwether), [_entry(r) for r in result.feasible]


def _answer(payload) -> tuple:
    def entry(e):
        return (e["region_str"], e["rmse"], e["sse"], e["dof"],
                e["coverage"], e["n_examples"])

    return entry(payload["bellwether"]), [entry(e) for e in payload["feasible"]]


# ------------------------------------------- (a) one scan, one miss a subset


def test_never_seen_subsets_cost_one_scan_in_total_and_one_miss_each(live):
    handle, __ = live
    state = handle.state
    assert state._snapshot.rows is None  # nothing is built at start-up
    io = state.store.stats.snapshot()
    misses, hits = _counters(state)
    asked = SUBSETS[:12]
    with ServeClient(handle.host, handle.port) as client:
        answers = [
            client.bellwether(budget=BUDGET, items=ids, explain=True)
            for ids in asked
        ]
    io = state.store.stats - io
    assert (io.full_scans, io.region_reads) == (1, 0)
    assert _counters(state) == (misses + len(asked), hits)
    assert set(state.search.profiles) == {None}
    assert {frozenset(ids) for ids in asked} < set(state._snapshot.profiles)
    for ids, got in zip(asked, answers):
        assert _answer(got) == _reference(state, ids)


def test_a_never_seen_predict_is_one_miss_and_its_profile_is_kept(live):
    handle, __ = live
    state = handle.state
    state.bellwether(budget=BUDGET, items=SUBSETS[0])  # the rows exist
    misses, hits = _counters(state)
    predicted = state.predict(items=SUBSETS[1], budget=BUDGET)
    assert _counters(state) == (misses + 1, hits)
    got = state.bellwether(budget=BUDGET, items=SUBSETS[1], explain=True)
    assert _counters(state) == (misses + 1, hits + 1)
    assert _answer(got) == _reference(state, SUBSETS[1])
    assert predicted["region_str"] == got["bellwether"]["region_str"]


def test_repeated_ids_name_the_same_subset(live):
    handle, __ = live
    state = handle.state
    ids = SUBSETS[0]
    once = state.bellwether(budget=BUDGET, items=ids)
    misses, hits = _counters(state)
    assert state.bellwether(budget=BUDGET, items=ids + ids[:5]) == once
    assert _counters(state) == (misses, hits + 1)
    assert once["bellwether"]["coverage"] <= 1.0


# --------------------------------------------------- (b) carried across deltas


def _tables(rows):
    return {table.regions: table for table in rows.tables}


def test_a_delta_carries_the_rows_forward_without_a_scan(live):
    handle, month = live
    state = handle.state
    state.bellwether(budget=BUDGET, items=SUBSETS[0])
    reads = []
    asked = iter(SUBSETS[1:])
    for delta in (_reshuffle(state.store, 1), _reshuffle(state.store, 3), month):
        old = state._snapshot
        io = state.store.stats.snapshot()
        state.apply_delta(delta)
        new = state._snapshot
        ids = next(asked)
        got = state.bellwether(budget=BUDGET, items=ids, explain=True)
        io = state.store.stats - io
        assert io.full_scans == 0
        reads.append(io.region_reads)
        assert got["store_version"] == new.version == old.version + 1
        assert _answer(got) == _reference(state, ids)
        # a table none of whose regions moved is shared as it is; a touched
        # region's table was laid out again
        assert new.rows.regions == tuple(state.store.regions())
        held = _tables(old.rows)
        shared = 0
        for regions, table in _tables(new.rows).items():
            if set(regions).isdisjoint(delta.touched_regions) and regions in held:
                assert table is held[regions]
                shared += 1
            else:
                assert table is not held.get(regions)
        assert 0 < shared < len(new.rows.tables)
    # one region re-read, then three: the reads follow the delta, not the store
    assert reads[1] == 3 * reads[0] > 0
    assert reads[2] < len(state.store.regions())


def test_a_changelog_gap_drops_the_rows_and_the_next_ask_rebuilds(live, monkeypatch):
    handle, __ = live
    state = handle.state
    state.bellwether(budget=BUDGET, items=SUBSETS[0])
    assert state._snapshot.rows is not None

    def gone(version):
        raise StorageError("delta history is gone")

    with monkeypatch.context() as patch:
        patch.setattr(state.store, "deltas_since", gone)
        state.apply_delta(_reshuffle(state.store, 2))
    assert state._snapshot.rows is None
    io = state.store.stats.snapshot()
    got = state.bellwether(budget=BUDGET, items=SUBSETS[1], explain=True)
    assert (state.store.stats - io).full_scans == 1
    assert state._snapshot.rows.regions == tuple(state.store.regions())
    assert _answer(got) == _reference(state, SUBSETS[1])


# ------------------------------------------- (c) no waiting on a parked delta


def test_a_never_seen_subset_does_not_wait_for_a_delta_in_flight(
    live, monkeypatch, lockcheck
):
    handle, delta = live
    state = handle.state
    entered, release = threading.Event(), threading.Event()
    real_build = state_module.build_cube_tables

    def parked_build(*args, **kwargs):
        entered.set()
        assert release.wait(30), "test never released the parked delta"
        return real_build(*args, **kwargs)

    with ServeClient(handle.host, handle.port) as client:
        version = client.bellwether(budget=BUDGET, items=SUBSETS[0])["store_version"]
        want = _reference(state, SUBSETS[1])  # at the version about to be left

        monkeypatch.setattr(state_module, "build_cube_tables", parked_build)
        writer = threading.Thread(target=lambda: state.apply_delta(delta))
        writer.start()
        try:
            assert entered.wait(30), "apply_delta never reached the table build"
            assert int(state.store.version) == version + 1
            misses, hits = _counters(state)
            start = time.monotonic()
            got = client.bellwether(budget=BUDGET, items=SUBSETS[1], explain=True)
            assert time.monotonic() - start < 1.0
            assert got["store_version"] == version
            assert _answer(got) == want
            assert _counters(state) == (misses + 1, hits)
            # computed for this reply only: the writer was busy
            assert frozenset(SUBSETS[1]) not in state._snapshot.profiles
        finally:
            release.set()
            writer.join(timeout=60)
        assert not writer.is_alive()
        got = client.bellwether(budget=BUDGET, items=SUBSETS[1], explain=True)
        assert got["store_version"] == version + 1
        assert _answer(got) == _reference(state, SUBSETS[1])
    assert lockcheck.snapshot()["violations"] == []


def test_an_offer_never_queues_behind_a_writer(live, monkeypatch):
    """A writer that took the mutex after the reader last looked costs the
    reader nothing: the offer is one non-blocking attempt."""
    handle, __ = live
    state = handle.state
    state.bellwether(budget=BUDGET, items=SUBSETS[0])
    snap = state._snapshot
    key = frozenset(SUBSETS[1])
    profile = snap.evaluate(key)
    monkeypatch.setattr(state._writer, "locked", lambda: False)  # the lost race
    offer = threading.Thread(target=state._offer, args=(snap, key, profile))
    with state._writer:
        offer.start()
        offer.join(timeout=10)
        assert not offer.is_alive()
    assert key not in state._snapshot.profiles
    state._offer(snap, key, profile)  # nobody writing: kept for reuse
    assert state._snapshot.profiles[key] is profile


# --------------------------------------- (d) readers beside a writer, stressed


def test_readers_computing_subsets_beside_deltas_publish_nothing_stale(
    live, lockcheck, monkeypatch
):
    handle, month = live
    state = handle.state
    n_threads, per_thread = 8, 40
    asked = [
        SUBSETS[t * per_thread : (t + 1) * per_thread] for t in range(n_threads)
    ]
    assert n_threads * per_thread > MAX_SUBSET_PROFILES  # eviction runs too
    state.bellwether(budget=BUDGET, items=SUBSETS[-1])
    misses, hits = _counters(state)
    base = int(state.store.version)
    answers: dict[tuple, dict] = {}
    failures: list[BaseException] = []

    def reader(mine):
        try:
            for ids in mine:
                answers[tuple(ids)] = state.bellwether(
                    budget=BUDGET, items=ids, explain=True
                )
        except Exception as exc:  # surfaced on the main thread below
            failures.append(exc)

    def twin():
        """The store's content now, safe from the deltas still to come."""
        store = state.store
        return MemoryStore(
            {region: store.read(region) for region in store.regions()},
            store.feature_names,
        )

    published = []
    publish = state._publish
    monkeypatch.setattr(
        state, "_publish", lambda snap: published.append(snap) or publish(snap)
    )
    twins = [twin()]
    threads = [threading.Thread(target=reader, args=(mine,)) for mine in asked]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        # deltas for as long as anybody is still asking (at least two)
        while len(twins) < 3 or (
            len(twins) < 12 and any(thread.is_alive() for thread in threads)
        ):
            k = len(twins)
            state.apply_delta(month if k == 2 else _reshuffle(state.store, 1 + k % 3))
            twins.append(twin())
            time.sleep(0.02)  # a spell with no writer: offers may get through
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    # Whether a reader above ever found the writer free is the scheduler's
    # call.  One more round, every delta landed and nobody writing: each of
    # its offers finds the mutex free and its own snapshot still current.
    start = n_threads * per_thread
    last = SUBSETS[start : start + 4]
    reader(last)
    assert not failures
    assert len(answers) == n_threads * per_thread + len(last)
    assert _counters(state) == (misses + len(answers), hits)
    assert {frozenset(ids) for ids in last} <= set(state._snapshot.profiles)
    for ids, got in answers.items():
        at = twins[got["store_version"] - base]
        assert _answer(got) == _reference(state, list(ids), at), ids
    # every profile ever published sat beside the rows it was computed from
    assert state._snapshot.version == base + len(twins) - 1
    offered = {}
    for snap in published:
        assert len(snap.profiles) <= MAX_SUBSET_PROFILES + 1
        for key, profile in snap.profiles.items():
            if key is not None and key != frozenset(SUBSETS[-1]):
                offered[snap.version, key] = profile
    assert offered
    for (version, key), profile in offered.items():
        raw = BasicBellwetherSearch(
            state.task, twins[version - base], min_examples=state.search.min_examples
        )
        assert _entries(profile) == [
            _entry(r) for r in raw.evaluate_all(item_ids=sorted(key))
        ], (version, sorted(key))
    assert lockcheck.snapshot()["violations"] == []


# ------------------------------------------------- (e) one estimator per server


@pytest.mark.parametrize("with_tables", [False, True])
def test_a_task_with_another_estimator_is_refused(tmp_path, with_tables):
    """All-items answers from a CV search beside subset answers from
    training-set rows would mix two estimators in one server."""
    ds = make_mailorder(
        n_items=N_ITEMS, n_months=4, seed=0,
        error_estimator=CrossValidationEstimator(n_folds=3),
    )
    store, costs, __ = build_store(ds.task)
    tables = {"tables_dir": tmp_path / "tables"} if with_tables else {}
    with pytest.raises(ConfigError, match="training-set estimator only"):
        ServerState(ds.task, store, costs=costs, **tables)
