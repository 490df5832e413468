"""32-thread hammer on the approx tier's model swap.

Clients pound ``mode=approx`` while the main thread lands deltas (each
one forces fallback-then-retrain, i.e. a model swap under the writer
mutex).  Every response must be internally consistent — version stamps
never mix, approx rmse stays within its declared tolerance of the exact
answer *at that exact store version*, and each thread observes
monotonically non-decreasing (store_version, model_version) pairs.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import BasicBellwetherSearch
from repro.incremental import month_append_delta, month_split_store
from repro.serve import (
    ServeClient,
    ServeHTTPError,
    ServerState,
    serve_in_thread,
)

from .conftest import N_MONTHS, SUBSET

BASE_MONTH = 3
BUDGET = 60.0
N_THREADS = 32
FALLBACK_REASONS = {
    "no_model", "unseen_key", "uncovered_region", "tolerance",
    "version_drift", "journal_error",
}


def _exact_rmse_by_version(dataset):
    """region_str -> exact rmse, per store version of the delta stream."""
    refs = {}
    gen, regions, store = month_split_store(dataset.task, BASE_MONTH)

    def snap():
        # A fresh search per version: a delta can surface brand-new
        # regions the old search never costed.
        result = BasicBellwetherSearch(dataset.task, store).run(
            budget=BUDGET, item_ids=SUBSET
        )
        refs[int(store.version)] = {
            str(rr.region): float(rr.rmse) for rr in result.feasible
        }

    snap()
    for month in range(BASE_MONTH + 1, N_MONTHS + 1):
        store.apply_delta(month_append_delta(gen, regions, month))
        snap()
    return refs


def test_32_threads_hammer_model_swaps(dataset, tmp_path, lockcheck):
    _run_hammer(dataset, tmp_path, delta_pause_s=0.25)


@pytest.mark.slow
def test_long_hammer_model_swaps(dataset, tmp_path, lockcheck):
    """Nightly-scale variant: longer windows around every model swap."""
    _run_hammer(dataset, tmp_path, delta_pause_s=2.0, extra_trains=10)


def _run_hammer(dataset, tmp_path, delta_pause_s, extra_trains=0):
    refs = _exact_rmse_by_version(dataset)

    gen, regions, store = month_split_store(dataset.task, BASE_MONTH)
    state = ServerState(
        dataset.task,
        store,
        dataset.hierarchies,
        tables_dir=tmp_path / "tables",
        dataset_name="mailorder",
        min_subset_size=3,
        aqp_dir=tmp_path / "aqp",
    )
    stop = threading.Event()
    errors: list[str] = []
    seen: list[dict] = []
    record_lock = threading.Lock()

    def hammer(handle, index: int):
        last = (0, 0)
        with ServeClient(handle.host, handle.port) as client:
            while not stop.is_set():
                try:
                    got = client.bellwether(
                        budget=BUDGET, items=SUBSET, mode="approx"
                    )
                except ServeHTTPError as exc:
                    if exc.status != 409:
                        with record_lock:
                            errors.append(
                                f"thread {index}: HTTP {exc.status} "
                                f"{exc.payload}"
                            )
                    continue
                problems = []
                version = got.get("store_version")
                if version not in refs:
                    problems.append(f"unknown store version {version}")
                if got["mode"] == "approx":
                    stamp = (version, got["model_version"])
                    if stamp < last:
                        problems.append(
                            f"stamps went backwards: {last} -> {stamp}"
                        )
                    last = stamp
                    bw = got["bellwether"]
                    exact = refs.get(version, {}).get(bw["region_str"])
                    if exact is None:
                        problems.append(
                            f"winner {bw['region_str']} not feasible "
                            f"at version {version}"
                        )
                    elif abs(bw["rmse"] - exact) > got["tolerance"]:
                        problems.append(
                            f"|{bw['rmse']} - {exact}| > "
                            f"tolerance {got['tolerance']}"
                        )
                    if got["estimated_error"] > got["tolerance"]:
                        problems.append("estimate exceeds declared tolerance")
                elif got["mode"] == "exact":
                    if got.get("requested_mode") != "approx":
                        problems.append("fallback lost requested_mode")
                    if got.get("fallback_reason") not in FALLBACK_REASONS:
                        problems.append(
                            f"bad fallback_reason "
                            f"{got.get('fallback_reason')!r}"
                        )
                    exact = refs.get(version, {}).get(
                        got["bellwether"]["region_str"]
                    )
                    if exact is not None and got["bellwether"]["rmse"] != exact:
                        problems.append("exact fallback rmse mismatch")
                else:
                    problems.append(f"bad mode {got['mode']!r}")
                with record_lock:
                    seen.append(got)
                    for problem in problems:
                        errors.append(f"thread {index}: {problem}")

    with serve_in_thread(state) as handle:
        # Train an initial surface so the hammer starts on the warm path.
        with ServeClient(handle.host, handle.port) as client:
            client.bellwether(budget=BUDGET, items=SUBSET)
            client.aqp_train()
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [
                pool.submit(hammer, handle, i) for i in range(N_THREADS)
            ]
            for month in range(BASE_MONTH + 1, N_MONTHS + 1):
                time.sleep(delta_pause_s)
                state.apply_delta(month_append_delta(gen, regions, month))
            # The long variant keeps swapping models after the last delta:
            # every explicit retrain bumps the version under the write
            # lock while the hammer reads.
            with ServeClient(handle.host, handle.port) as trainer:
                for __ in range(extra_trains):
                    time.sleep(delta_pause_s / 4)
                    trainer.aqp_train()
            time.sleep(delta_pause_s)
            stop.set()
            for future in futures:
                future.result(timeout=60)

    assert not errors, "\n".join(errors[:20])
    assert seen, "hammer threads recorded no responses"
    modes = {got["mode"] for got in seen}
    # The hammer must actually exercise both paths: warm approx answers
    # and the fallback window around each model swap.
    assert modes == {"approx", "exact"}, modes
    versions = {got["store_version"] for got in seen}
    assert len(versions) > 1, "no delta landed during the hammer"
