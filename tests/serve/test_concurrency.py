"""Concurrent-client correctness: 32 threads, bit-identical to serial.

A mixed query stream is answered once serially (which also warms every
profile), then replayed by 32 concurrent clients.  Every concurrent
response must equal the serial payload exactly — same winner, same float
bits, same feasible ordering — i.e. the shared snapshot never bleeds a
partially-updated answer.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.incremental import month_append_delta, month_split_store
from repro.serve import ServeClient, ServeHTTPError, ServerState, serve_in_thread

from .conftest import N_MONTHS, SUBSET

N_THREADS = 32
SUBSET2 = list(range(5, 19))

STREAM = (
    ("bellwether", 30.0, None),
    ("bellwether", 30.0, SUBSET),
    ("bellwether", 70.0, SUBSET),
    ("bellwether", 70.0, SUBSET2),
    ("predict", 90.0, SUBSET),
    ("predict", 90.0, SUBSET2),
    ("regions", None, None),
    ("model", None, None),
)


def _issue(client, query):
    kind, budget, items = query
    if kind == "bellwether":
        return client.bellwether(budget=budget, items=items)
    if kind == "predict":
        return client.predict(items=items, budget=budget)
    if kind == "regions":
        return client.regions()
    return client.model()


def test_32_concurrent_clients_match_serial_bits(served, lockcheck):
    with ServeClient(served.host, served.port) as probe:
        expected = [_issue(probe, q) for q in STREAM]

    def worker(index: int) -> list:
        with ServeClient(served.host, served.port) as client:
            # Stagger the walk so different threads hit different
            # endpoints at the same instant.
            n = len(STREAM)
            return [_issue(client, STREAM[(index + k) % n]) for k in range(n)]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        all_answers = list(pool.map(worker, range(N_THREADS)))

    for index, answers in enumerate(all_answers):
        n = len(STREAM)
        for k, got in enumerate(answers):
            want = expected[(index + k) % n]
            assert got == want, f"thread {index} query {(index + k) % n}"


@pytest.mark.slow
def test_lockcheck_hammer_under_delta_stream(dataset, tmp_path, lockcheck):
    """Nightly race detector: 32 readers race writers under the checker.

    A mixed endpoint storm runs while the main thread lands month-append
    deltas (each adoption takes the writer mutex, the caches' IO locks and
    the instrument lock).  The strict checker raises out of any handler
    on an inversion / re-acquire, so the pass criterion is simply: every
    request answers and the checker recorded zero violations across the
    full lock-acquisition graph it observed.
    """
    base_month = 3
    gen, regions, store = month_split_store(dataset.task, base_month)
    state = ServerState(
        dataset.task,
        store,
        dataset.hierarchies,
        tables_dir=tmp_path / "tables",
        dataset_name="mailorder",
        min_subset_size=3,
    )
    stop = threading.Event()
    failures: list[str] = []
    record = threading.Lock()

    def storm(handle, index):
        with ServeClient(handle.host, handle.port) as client:
            k = index
            while not stop.is_set():
                query = STREAM[k % len(STREAM)]
                k += 1
                try:
                    _issue(client, query)
                except ServeHTTPError as exc:
                    # Infeasible-at-this-version is a legal outcome of a
                    # racing delta; anything else (especially the 500 a
                    # LockCheckError would surface as) fails the hammer.
                    if exc.status != 409:
                        with record:
                            failures.append(
                                f"thread {index}: HTTP {exc.status} "
                                f"{exc.payload}"
                            )

    with serve_in_thread(state) as handle:
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [
                pool.submit(storm, handle, i) for i in range(N_THREADS)
            ]
            for month in range(base_month + 1, N_MONTHS + 1):
                time.sleep(0.5)
                state.apply_delta(month_append_delta(gen, regions, month))
            time.sleep(0.5)
            stop.set()
            for future in futures:
                future.result(timeout=120)

    assert failures == []
    snapshot = lockcheck.snapshot()
    assert snapshot["violations"] == []
    observed = {(e["from"], e["to"]) for e in snapshot["edges"]}
    # The serve stack's one sanctioned nesting must have been exercised.
    assert ("serve.state.writer", "serve.instrument") in observed
