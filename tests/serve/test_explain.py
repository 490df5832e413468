"""/bellwether answers with the winner; the feasible list comes on request.

(a) A default reply is the ``"explain": true`` reply with
    ``, "feasible": [...]`` cut out, byte for byte: warm all-items replies
    at every serve budget, pooled and never-seen subsets, reads after a
    delta, ``mode="approx"`` answers and exact fallbacks alike.
(b) ``explain`` takes a JSON boolean and nothing else; anything else is a
    structured 400 and the connection stays usable.
(c) On the benchmark's deployment (mail-order 300 items x 4 months) a
    default all-items reply fits in 1 KiB, and an ``explain`` reply lists
    exactly ``n_feasible`` entries.
"""

import http.client
import json

import numpy as np
import pytest

from repro.core import build_store
from repro.datasets import make_mailorder
from repro.ml import TrainingSetEstimator
from repro.serve import ServerState, serve_in_thread
from repro.storage import BlockDelta, RegionBlock, StoreDelta

#: The serve benchmark's budgets, all feasible on this deployment.
BUDGETS = (10.0, 20.0, 50.0, 90.0)
N_ITEMS = 300


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    ds = make_mailorder(
        n_items=N_ITEMS, n_months=4, seed=0, error_estimator=TrainingSetEstimator()
    )
    store, costs, __ = build_store(ds.task)
    root = tmp_path_factory.mktemp("explain")
    state = ServerState(
        ds.task,
        store,
        ds.hierarchies,
        tables_dir=root / "tables",
        costs=costs,
        min_subset_size=5,
        aqp_dir=root / "aqp",
    )
    with serve_in_thread(state) as handle:
        yield handle


def _subsets(seed: int, n: int) -> list[list[int]]:
    """``n`` item subsets of N/4 to N/2 items, as the serve benchmark asks."""
    rng = np.random.default_rng(seed)
    ids = np.arange(1, N_ITEMS + 1)
    return [
        sorted(int(i) for i in rng.choice(ids, size, replace=False))
        for size in rng.integers(N_ITEMS // 4, N_ITEMS // 2 + 1, size=n)
    ]


def _cut(explained: bytes) -> bytes:
    """``explained`` with its ``, "feasible": [...]`` taken out, once."""
    listed = json.dumps(json.loads(explained)["feasible"]).encode()
    field = b', "feasible": ' + listed
    assert explained.count(field) == 1
    return explained.replace(field, b"")


def _assert_default_is_cut(state, budget, items=None, explain_first=False, **knobs):
    """Both replies to one question, asked in the given order."""
    ask = [
        lambda: state.bellwether_body(budget, items, **knobs),
        lambda: state.bellwether_body(budget, items, explain=True, **knobs),
    ]
    if explain_first:
        explained, default = ask[1](), ask[0]()
    else:
        default, explained = ask[0](), ask[1]()
    assert default == _cut(explained)
    assert b'"feasible"' not in default
    reply = json.loads(explained)
    assert len(reply["feasible"]) == reply["n_feasible"] >= 1
    listed = [entry["region_str"] for entry in reply["feasible"]]
    assert reply["bellwether"]["region_str"] in listed
    return default


def _retract_and_reappend(state, k: int) -> StoreDelta:
    """A delta that moves the version and leaves every answer where it was."""
    region = state.store.regions()[k]
    block = state.store.read(region)
    moved = block.item_ids[:5]
    keep = np.isin(block.item_ids, moved)
    return StoreDelta(
        {
            region: BlockDelta(
                append=RegionBlock(block.item_ids[keep], block.x[keep], block.y[keep]),
                retract_ids=moved,
            )
        }
    )


# ----------------------------------------- (a) the default reply is the cut


def test_exact_default_replies_are_the_explain_replies_without_the_list(deployment):
    state = deployment.state
    pool = _subsets(1, 4)
    for budget in BUDGETS:
        _assert_default_is_cut(state, budget)
        for k, items in enumerate(pool):
            # the first ask of a pooled subset is cold, the second warm
            _assert_default_is_cut(state, budget, items, explain_first=k % 2 == 0)
            _assert_default_is_cut(state, budget, items)
    for k, items in enumerate(_subsets(2, 8)):  # never seen: cold each
        _assert_default_is_cut(
            state, BUDGETS[k % len(BUDGETS)], items, explain_first=k % 2 == 1
        )
    for step in range(2):
        before = state._snapshot.version
        state.apply_delta(_retract_and_reappend(state, 3 * step))
        assert state._snapshot.version == before + 1
        for budget in BUDGETS:
            _assert_default_is_cut(state, budget, explain_first=step == 1)
            _assert_default_is_cut(state, budget, pool[step])
        for items in _subsets(10 + step, 2):
            _assert_default_is_cut(state, BUDGETS[step], items)


def test_approx_replies_and_fallbacks_obey_the_same_flag(deployment):
    state = deployment.state
    pool = _subsets(3, 2)
    for budget in BUDGETS[:2]:
        for items in (None, *pool):
            state.bellwether(budget=budget, items=items)  # the journal
    state.aqp_train()
    for budget in BUDGETS[:2]:
        for items in (None, *pool):
            approx = _assert_default_is_cut(state, budget, items, mode="approx")
            assert json.loads(approx)["mode"] == "approx"
    # an untrained subset falls back to the exact answer, annotated
    fallback = _assert_default_is_cut(
        state, BUDGETS[0], _subsets(4, 1)[0], mode="approx"
    )
    assert json.loads(fallback)["requested_mode"] == "approx"


# ------------------------------------------- (b) explain is a JSON boolean


def _exchange(conn, payload) -> tuple[int, bytes]:
    conn.request("POST", "/bellwether", body=json.dumps(payload).encode())
    response = conn.getresponse()
    return response.status, response.read()


@pytest.mark.parametrize("value", [1, "yes", None], ids=["one", "yes", "null"])
def test_explain_that_is_not_a_boolean_is_a_structured_400(deployment, value):
    conn = http.client.HTTPConnection(deployment.host, deployment.port, timeout=30)
    try:
        status, body = _exchange(conn, {"budget": 50.0, "explain": value})
        assert status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "BadRequestError" and error["status"] == 400
        assert "explain" in error["message"]
        # the same connection answers the next request
        status, body = _exchange(conn, {"budget": 50.0, "explain": False})
        assert status == 200
        assert body == deployment.state.bellwether_body(50.0)
    finally:
        conn.close()


# ----------------------------------------------------- (c) the reply's size


def test_a_default_all_items_reply_fits_in_1_kib(deployment):
    conn = http.client.HTTPConnection(deployment.host, deployment.port, timeout=30)
    try:
        for budget in BUDGETS:
            status, body = _exchange(conn, {"budget": budget})
            assert status == 200 and len(body) < 1024, (budget, len(body))
            status, explained = _exchange(conn, {"budget": budget, "explain": True})
            reply = json.loads(explained)
            assert status == 200
            assert len(reply["feasible"]) == reply["n_feasible"] == json.loads(body)[
                "n_feasible"
            ]
    finally:
        conn.close()
