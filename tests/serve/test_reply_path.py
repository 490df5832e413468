"""The reply path: one write, bytes rendered once, bounded profiles, timed stages.

(a) Every reply — 200, 400, 404, http.server's own refusal of a ``PUT`` —
    leaves in exactly one write on a ``TCP_NODELAY`` socket.
(b) Back-to-back keep-alive requests therefore do not sit on the 40 ms
    delayed-ACK timer.
(c) The bodies assembled from fragments the snapshot holds and the entries
    a reply renders equal, byte for byte, ``json.dumps`` of the payload
    dicts the server used to build per request (kept here as the reference
    renderer); a /bellwether reply is that dict without ``feasible``
    unless the request asks to ``explain``.
(d) Subset profiles are capped; an evicted subset is an ordinary miss.
(e) ``Server-Timing`` and the ``serve.stage.*`` histograms say where a
    request's latency went.
"""

import dataclasses
import http.client
import itertools
import json
import re
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serve.app as app_module
import repro.serve.snapshot as snapshot_module
from repro.core import BasicBellwetherSearch
from repro.core.basic import RegionProfile, RegionResult, select_bellwether
from repro.dimensions import Interval, Region, region_to_json
from repro.exceptions import ReproError
from repro.incremental import month_append_delta, month_split_store
from repro.obs import catalog
from repro.ml import ErrorEstimate
from repro.serve import ServerState, serve_in_thread
from repro.serve.snapshot import render_entries, render_heads
from repro.serve.state import MAX_SUBSET_PROFILES

from .conftest import N_ITEMS, SUBSET

BASE_MONTH = 3
BUDGETS = (None, 45.0, 60, 90.0)


def _exchange(conn, method, path, payload=None):
    """``(status, headers, raw body)`` of one request on ``conn``."""
    body = None if payload is None else json.dumps(payload).encode()
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.headers, response.read()


@pytest.fixture()
def conn(served):
    connection = http.client.HTTPConnection(served.host, served.port, timeout=30)
    yield connection
    connection.close()


@pytest.fixture()
def live(dataset, tmp_path):
    """A private server on a store that can still take a month of deltas."""
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


# ------------------------------------------------------------- (a) one write


class _RecordingWfile:
    """The handler's ``wfile`` with every ``write`` noted."""

    def __init__(self, wfile, writes):
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(len(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


@pytest.mark.parametrize(
    "method, path, payload, status",
    [
        ("POST", "/bellwether", {"budget": 60.0, "items": SUBSET}, 200),
        ("POST", "/bellwether", {"budget": "cheap"}, 400),
        ("GET", "/nope", None, 404),
        ("PUT", "/bellwether", {"budget": 60.0}, 405),
    ],
    ids=["200", "400", "404", "PUT"],
)
def test_a_reply_is_one_write_on_a_nodelay_socket(
    served, monkeypatch, method, path, payload, status
):
    writes: list[int] = []
    nodelay: list[int] = []
    real_setup = app_module._Handler.setup

    def setup(handler):
        real_setup(handler)
        nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = _RecordingWfile(handler.wfile, writes)

    monkeypatch.setattr(app_module._Handler, "setup", setup)
    connection = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        got, headers, body = _exchange(connection, method, path, payload)
    finally:
        connection.close()
    assert got == status
    assert nodelay and all(nodelay)
    assert len(writes) == 1
    assert int(headers["Content-Length"]) == len(body)
    # head + body left together
    assert writes[0] > len(body) > 0


# ------------------------------------------------- (b) no delayed-ACK stall


def test_back_to_back_keepalive_requests_do_not_wait_on_a_timer(conn):
    """Two writes a reply cost 43-44 ms a request here; the delayed-ACK
    timer they waited on cannot go below 40."""
    query = {"budget": 60.0, "items": SUBSET}
    _exchange(conn, "POST", "/bellwether", query)  # cold profile build
    elapsed = []
    for __ in range(30):
        start = time.perf_counter()
        status, __, __ = _exchange(conn, "POST", "/bellwether", query)
        elapsed.append(time.perf_counter() - start)
        assert status == 200
    assert statistics.median(elapsed) < 0.020


# ------------------------------------------ (c) byte-identical to the dicts
#
# The reference renderer: the payload dicts ``Snapshot`` built per request
# before bodies were assembled from rendered fragments.


def _region_result_json(r) -> dict:
    return {
        "region": region_to_json(r.region),
        "region_str": str(r.region),
        "cost": float(r.cost),
        "coverage": float(r.coverage),
        "n_examples": int(r.n_items),
        "rmse": float(r.rmse),
        "sse": None if r.error.sse is None else float(r.error.sse),
        "dof": int(r.error.dof),
        "error_kind": r.error.kind,
    }


def _criterion(state, budget):
    criterion = state.task.criterion
    return criterion if budget is None else criterion.with_budget(budget)


def _profile(state, ids):
    """All items: the server's tables-rolled profile.  A subset: a fresh
    raw-path evaluation, which the rows-evaluated answer must equal."""
    if ids is None:
        return state.search.profiles[None]
    reference = BasicBellwetherSearch(
        state.task, state.store, min_examples=state.search.min_examples
    )
    return reference.evaluate_all(item_ids=ids)


def _reference_bellwether(state, budget, ids, explain=True) -> dict:
    result = select_bellwether(_profile(state, ids), _criterion(state, budget))
    reply = {
        "store_version": int(state.store.version),
        "mode": "exact",
        "budget": budget,
        "items": ids,
        "found": True,
        "bellwether": _region_result_json(result.bellwether),
        "n_feasible": len(result.feasible),
        "feasible": [_region_result_json(r) for r in result.feasible],
    }
    if not explain:
        del reply["feasible"]
    return reply


def _reference_predict(state, budget, ids) -> dict:
    region = select_bellwether(
        _profile(state, ids), _criterion(state, budget)
    ).bellwether.region
    model = state.search.fit_model(region, item_ids=ids)
    block = state.store.read(region)
    train = block.restrict_to(np.asarray(ids))
    train_mean = float(train.y.mean()) if train.n_examples else 0.0
    predictions = []
    total = 0.0
    for item in ids:
        hit = np.flatnonzero(block.item_ids == item)
        value = (
            train_mean if not hit.size else float(model.predict(block.x[hit[0]])[0])
        )
        total += value
        predictions.append(
            {"item": int(item), "value": value, "fallback": not hit.size}
        )
    return {
        "store_version": int(state.store.version),
        "mode": "exact",
        "budget": budget,
        "items": ids,
        "region": region_to_json(region),
        "region_str": str(region),
        "coef": [float(c) for c in model.coef],
        "predictions": predictions,
        "aggregate": float(total),
    }


def _reference_regions(state) -> dict:
    by_region = {r.region: r for r in _profile(state, None)}
    entries = []
    for index, region in enumerate(state.store.regions()):
        rr = by_region.get(region)
        entries.append(
            {
                "index": index,
                "key": region_to_json(region),
                "region": str(region),
                "cost": float(rr.cost if rr else state.task.cost(region)),
                "evaluable": rr is not None,
                "coverage": None if rr is None else float(rr.coverage),
                "n_examples": None if rr is None else int(rr.n_items),
                "rmse": None if rr is None else float(rr.rmse),
            }
        )
    return {
        "store_version": int(state.store.version),
        "n_regions": len(entries),
        "regions": entries,
    }


def _reference_cube(state, level) -> dict:
    cube = state.builder.build_from_tables(state._tables)
    levels = sorted({s.level for s in cube.subsets})
    version = int(state.store.version)
    if level is None:
        counts = {
            lv: sum(1 for s in cube.subsets if s.level == lv) for lv in levels
        }
        return {
            "store_version": version,
            "n_subsets": len(cube),
            "levels": [
                {"level": list(lv), "n_subsets": counts[lv]} for lv in levels
            ],
        }
    entries = [
        {
            "nodes": [str(n) for n in e.subset.nodes],
            "n_items": int(e.n_items),
            "found": e.found,
            "region": None if e.region is None else region_to_json(e.region),
            "region_str": None if e.region is None else str(e.region),
            "rmse": None if e.error is None else float(e.error.rmse),
        }
        for e in cube.crosstab(level)
    ]
    return {
        "store_version": version,
        "level": list(level),
        "n_subsets": len(entries),
        "subsets": entries,
    }


def _reference_model(state) -> dict:
    return {
        **state._model_static,
        "store_version": int(state.store.version),
        "n_regions": len(state.store.regions()),
        "n_examples_total": int(state.store.n_examples_total),
    }


def _assert_bodies_match_reference(handle):
    state = handle.state
    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    checked = 0

    def check(method, path, payload, reference):
        nonlocal checked
        status, headers, body = _exchange(connection, method, path, payload)
        assert status == 200, body
        assert body == json.dumps(reference()).encode(), (path, payload)
        assert int(headers["Content-Length"]) == len(body)
        checked += 1

    try:
        for budget, ids in itertools.product(BUDGETS, (None, sorted(SUBSET))):
            query = {} if budget is None else {"budget": budget}
            echoed = None if budget is None else float(budget)
            if ids is not None:
                query["items"] = ids
            check(
                "POST", "/bellwether", query,
                lambda: _reference_bellwether(state, echoed, ids, explain=False),
            )
            check(
                "POST", "/bellwether", {**query, "explain": True},
                lambda: _reference_bellwether(state, echoed, ids),
            )
            # /predict needs items: name every item where /bellwether names none
            ids = ids or list(range(1, N_ITEMS + 1))
            check(
                "POST", "/predict", {**query, "items": ids},
                lambda: _reference_predict(state, echoed, ids),
            )
        check("GET", "/model", None, lambda: _reference_model(state))
        check("GET", "/regions", None, lambda: _reference_regions(state))
        check("GET", "/cube", None, lambda: _reference_cube(state, None))
        for entry in _reference_cube(state, None)["levels"]:
            level = tuple(entry["level"])
            check(
                "GET", "/cube?level=" + ",".join(map(str, level)), None,
                lambda: _reference_cube(state, level),
            )
    finally:
        connection.close()
    return checked


def test_bodies_equal_the_reference_renderer_byte_for_byte(live):
    handle, delta = live
    before = _assert_bodies_match_reference(handle)
    handle.state.apply_delta(delta)
    assert _assert_bodies_match_reference(handle) == before >= 3 * 8 + 4


# An entry is its region's head, rendered once per snapshot, plus six
# fields of the subset, rendered for the entries a reply returns in one
# pass: together the bytes json.dumps gives the dict.

_SPECIAL_FLOATS = (
    0.0, -0.0, 1.0, 3.0, 1e16, 1e-7, 1e22, 1e-5, 123456789012345680.0,
    5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e308, -1e-320, float("nan"),
    float("inf"), float("-inf"),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_SPECIAL_FLOATS),
    st.integers(-10**6, 10**6).map(float),
)
_numbers = st.one_of(
    _floats, _floats.map(np.float64), st.integers(0, 10**9), st.integers(0, 10**9).map(np.int64)
)
_counts = st.integers(0, 10**9).flatmap(lambda n: st.sampled_from([n, np.int64(n)]))
_REGIONS = tuple(
    Region(key)
    for key in (
        (Interval(1, 8), "MD"),
        ("All",),
        (Interval(2, 2), 'quo"te\\', "caf\u00e9"),
        (Interval(3, 4), "new\nline"),
        *((f"r{k}",) for k in range(12)),
    )
)


@given(st.lists(_floats))
@example([-0.0, 5e-324, 1e16, 1e22, 123456789012345680.0, float("nan"), float("-inf")])
@settings(max_examples=300, deadline=None)
def test_one_dumps_of_a_column_spells_each_value_as_json_dumps_does(values):
    spelled = snapshot_module._spelled(np.array(values, dtype=np.float64))
    if values:
        assert spelled == [json.dumps(v).encode() for v in values]
    counts = np.arange(len(values), dtype=np.int64) * 10**9
    if values:
        assert snapshot_module._spelled(counts) == [
            json.dumps(int(n)).encode() for n in counts
        ]
        # several columns of mixed dtypes: one dumps, column after column
        assert snapshot_module._spelled(
            np.array(values, dtype=np.float64), counts
        ) == [json.dumps(v).encode() for v in [*values, *counts.tolist()]]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(_REGIONS), _numbers, _numbers, _numbers, _numbers,
            _counts, _counts,
        ),
        max_size=len(_REGIONS),
        unique_by=lambda row: row[0],
    ),
    st.randoms(use_true_random=False),
)
@example(
    [(_REGIONS[0], np.float64(1e16), -0.0, float("nan"), 5e-324, np.int64(7), 3)],
    None,
)
@settings(max_examples=300, deadline=None)
def test_rendered_entries_equal_json_dumps_of_the_reference_dict(rows, rng):
    results = [
        RegionResult(
            region=region,
            cost=cost,
            coverage=coverage,
            n_items=n_items,
            error=ErrorEstimate(rmse=rmse, kind="training", sse=sse, dof=dof),
        )
        for region, cost, coverage, rmse, sse, n_items, dof in rows
    ]
    # the profile indexes a region list of its own order, as a snapshot's
    regions = list(_REGIONS)
    if rng is not None:
        rng.shuffle(regions)
    regions = tuple(regions)
    priced = {r.region: r.cost for r in results}
    heads = render_heads(
        regions, np.array([priced.get(region, 0.0) for region in regions], dtype=float)
    )
    columns = RegionProfile.of(results, regions)
    wants = [json.dumps(_region_result_json(r)).encode() for r in results]
    entries = render_entries(columns, heads, np.arange(len(columns)))
    assert entries == wants
    for k, want in zip(columns.at.tolist(), wants):
        assert want.startswith(heads[k])
    # any picks, in the picks' order — a reply's winner first, then its list
    picks = list(range(len(results)))
    if rng is not None:
        rng.shuffle(picks)
        picks = picks[: rng.randint(0, len(picks))]
    assert render_entries(columns, heads, np.array(picks, dtype=np.intp)) == [
        wants[k] for k in picks
    ]
    if picks:
        assert render_entries(columns, heads, picks[:1]) == [wants[picks[0]]]


def test_in_process_payloads_parse_the_same_bytes(served, conn):
    state = served.state
    query = {"budget": 60.0, "items": SUBSET}
    for path, payload, in_process in (
        ("/bellwether", query, lambda: state.bellwether(**query)),
        ("/predict", query, lambda: state.predict(**query)),
        ("/model", None, state.model_info),
        ("/regions", None, state.regions_info),
        ("/cube", None, state.cube_info),
    ):
        method = "GET" if payload is None else "POST"
        __, __, body = _exchange(conn, method, path, payload)
        assert in_process() == json.loads(body), path


def test_warm_replies_equal_select_under_racing_readers(served, client):
    """A warm reply reads its winner off the held profile's by-cost table
    and takes its entry and echo from ``Snapshot.replies``, which readers
    fill without a lock.  Eight readers racing over fresh tables and an
    empty memo, at every cost and one ulp either side, each get the body
    ``select()`` renders (``bellwether_of``), and each winner's entry is
    kept once."""
    client.bellwether(budget=60.0, items=SUBSET)  # a held subset profile
    state = served.state
    snap = state._snapshot
    fresh = dataclasses.replace(
        snap, profiles={key: dataclasses.replace(p) for key, p in snap.profiles.items()}
    )
    budgets = sorted(
        {None}
        | {
            float(b)
            for cost in snap.cost.tolist()
            for b in (cost, np.nextafter(cost, -np.inf), np.nextafter(cost, np.inf))
        },
        key=lambda b: -1.0 if b is None else b,
    )
    asked = [(ids, budget) for ids in (None, SUBSET) for budget in budgets]

    def answer(call):
        try:
            return call()
        except ReproError as exc:
            return type(exc)

    failures = []

    def reader(seed):
        for k in np.random.default_rng(seed).permutation(len(asked)).tolist():
            ids, budget = asked[k]
            criterion = state._criterion(budget)
            key = None if ids is None else frozenset(ids)
            got = answer(lambda: fresh.bellwether(criterion, budget, ids))
            want = answer(
                lambda: fresh.bellwether_of(fresh.profiles[key], criterion, budget, ids)
            )
            if got != want:
                failures.append((ids, budget, got, want))

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]
    for key, held in fresh.replies.items():
        assert held.profile is fresh.profiles[key]
        for best, entry in held.entries.items():
            assert entry == render_entries(held.profile, fresh.heads, [best])[0]
    assert fresh.replies[None].entries  # the all-items profile was asked


# ------------------------------------------------------- (d) bounded profiles


def _counter(state, name):
    return state.metricsz()["metrics"][name]


def test_subset_profiles_are_capped_and_eviction_is_an_ordinary_miss(live):
    handle, __ = live
    state = handle.state
    everyone = range(1, N_ITEMS + 1)
    # 20-choose-3 ways to leave three items out: distinct 17-item subsets
    subsets = [
        sorted(set(everyone) - set(out))
        for out in itertools.islice(
            itertools.combinations(everyone, 3), MAX_SUBSET_PROFILES + 3
        )
    ]
    first = state.bellwether(budget=60.0, items=subsets[0])
    state.predict(items=subsets[0], budget=60.0)
    assert any(key[1] == tuple(subsets[0]) for key in state._snapshot.models)
    for ids in subsets[1:]:
        state.bellwether(budget=60.0, items=ids)

    snap = state._snapshot
    assert len(snap.profiles) == MAX_SUBSET_PROFILES + 1
    assert None in snap.profiles
    # subsets are evaluated from the snapshot's rows, never on the search
    assert set(state.search.profiles) == {None}
    # the three oldest left, their /predict models with them
    for ids in subsets[:3]:
        assert frozenset(ids) not in snap.profiles
    assert not any(key[1] == tuple(subsets[0]) for key in snap.models)

    misses = _counter(state, catalog.SERVE_CACHE_MISSES)
    assert state.bellwether(budget=60.0, items=subsets[0]) == first
    assert _counter(state, catalog.SERVE_CACHE_MISSES) == misses + 1

    scans = _counter(state, catalog.STORE_FULL_SCANS)
    hits = _counter(state, catalog.SERVE_CACHE_HITS)
    zero_scan = _counter(state, catalog.SERVE_ZERO_SCAN_QUERIES)
    state.bellwether(budget=60.0)
    assert _counter(state, catalog.STORE_FULL_SCANS) == scans
    assert _counter(state, catalog.SERVE_CACHE_HITS) == hits + 1
    assert _counter(state, catalog.SERVE_ZERO_SCAN_QUERIES) == zero_scan + 1


# ------------------------------------------------------------ (e) stage times

STAGES = (
    catalog.SERVE_STAGE_PARSE,
    catalog.SERVE_STAGE_ANSWER,
    catalog.SERVE_STAGE_WRITE,
)


def test_stage_histograms_are_catalogued():
    for name in STAGES:
        assert name in catalog.HISTOGRAMS


def test_server_timing_and_stage_histograms_split_the_latency(served, conn):
    state = served.state
    latency = catalog.SERVE_LATENCY_BELLWETHER
    before = state.metricsz()["metrics"]
    status, headers, __ = _exchange(conn, "POST", "/bellwether", {"budget": 60.0})
    assert status == 200
    timing = re.fullmatch(
        r"parse;dur=(\d+\.\d+), answer;dur=(\d+\.\d+)", headers["Server-Timing"]
    )
    assert timing, headers["Server-Timing"]

    # the request is recorded after its reply is written: wait for it
    deadline = time.monotonic() + 10
    while True:
        after = state.metricsz()["metrics"]
        if after.get(f"{latency}.count", 0) > before.get(f"{latency}.count", 0):
            break
        assert time.monotonic() < deadline, "request never recorded"
        time.sleep(0.01)

    def moved(name, field):
        return after[f"{name}.{field}"] - before.get(f"{name}.{field}", 0.0)

    assert [moved(name, "count") for name in (latency, *STAGES)] == [1, 1, 1, 1]
    parse, answer, write = (moved(name, "sum") for name in STAGES)
    assert parse + answer + write <= moved(latency, "sum") + 1e-9
    # the header carries the same two stages, in milliseconds
    assert float(timing[1]) == pytest.approx(parse * 1e3, abs=2e-3)
    assert float(timing[2]) == pytest.approx(answer * 1e3, abs=2e-3)

    # an error reply is timed too
    __, headers, __ = _exchange(conn, "POST", "/bellwether", {"budget": "cheap"})
    assert "parse;dur=" in headers["Server-Timing"]

    # the parse stage starts at the request line: a head that arrives
    # 100 ms after it is read inside the stage, and inside the latency
    # (the bound leaves room for the server's wake-up after the line)
    before = state.metricsz()["metrics"]
    with socket.create_connection((served.host, served.port), timeout=30) as sock:
        sock.sendall(b"POST /bellwether HTTP/1.1\r\n")
        time.sleep(0.1)
        sock.sendall(
            b"Host: x\r\nConnection: close\r\nContent-Length: 16\r\n\r\n"
            b'{"budget": 60.0}'
        )
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    assert raw.startswith(b"HTTP/1.1 200 ")
    late = re.search(rb"Server-Timing: parse;dur=(\d+\.\d+)", raw)
    assert float(late[1]) >= 50.0
    deadline = time.monotonic() + 10
    while True:
        after = state.metricsz()["metrics"]
        if after.get(f"{latency}.count", 0) > before.get(f"{latency}.count", 0):
            break
        assert time.monotonic() < deadline, "request never recorded"
        time.sleep(0.01)
    assert 0.05 <= moved(catalog.SERVE_STAGE_PARSE, "sum") <= moved(latency, "sum")
