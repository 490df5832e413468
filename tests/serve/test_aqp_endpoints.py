"""HTTP blitz for the approximate tier: /aqp, /aqp/train, mode=approx.

Schema of approx answers (tolerance + model/store version stamps),
parameter validation (400s), infeasibility agreement (409s), and the
mid-flight ``apply_delta`` contract: the first approx query after a
delta falls back to exact with consistent version stamps, the adaptive
retrain restores the approx path at a bumped model version.
"""

import pytest

from repro.core import build_store
from repro.incremental import month_append_delta, month_split_store
from repro.serve import ServeClient, ServeHTTPError, ServerState, serve_in_thread

from .conftest import N_MONTHS, SUBSET

BASE_MONTH = 3
BUDGETS = (30.0, 60.0, 90.0)


@pytest.fixture(scope="module")
def aqp_served(dataset, tmp_path_factory):
    store, costs, __ = build_store(dataset.task)
    root = tmp_path_factory.mktemp("aqp-serve")
    state = ServerState(
        dataset.task,
        store,
        dataset.hierarchies,
        tables_dir=root / "tables",
        costs=costs,
        dataset_name="mailorder",
        min_subset_size=3,
        aqp_dir=root / "aqp",
    )
    with serve_in_thread(state) as handle:
        yield handle


@pytest.fixture()
def aqp_client(aqp_served):
    with ServeClient(aqp_served.host, aqp_served.port) as c:
        yield c


@pytest.fixture(scope="module")
def trained(aqp_served):
    """Journal a deterministic exact workload, then train (idempotent)."""
    with ServeClient(aqp_served.host, aqp_served.port) as c:
        for budget in BUDGETS:
            for items in (None, SUBSET):
                c.bellwether(budget=budget, items=items)
            c.predict(items=SUBSET, budget=budget)
        return c.aqp_train()


# ----------------------------------------------------------- status/train


def test_aqp_status_before_training(aqp_client):
    status = aqp_client.aqp()
    assert status["enabled"] is True
    assert status["degraded"] is False
    assert "store_version" in status


def test_aqp_disabled_on_plain_server(client):
    # The shared module fixture has no aqp_dir: status still answers.
    assert client.aqp() == {
        "store_version": client.model()["store_version"],
        "enabled": False,
    }
    with pytest.raises(ServeHTTPError) as exc:
        client.aqp_train()
    assert exc.value.status == 404
    with pytest.raises(ServeHTTPError) as exc:
        client.bellwether(budget=60.0, mode="approx")
    assert exc.value.status == 400


def test_train_reports_model_and_journal_geometry(trained):
    assert trained["model_version"] >= 1
    assert trained["n_records"] >= 2 * len(BUDGETS)
    assert trained["n_trained_keys"] >= 2
    assert trained["n_artifacts"] >= 1
    assert "store_version" in trained


def test_method_mismatches_are_405(aqp_client):
    for method, path in (("POST", "/aqp"), ("GET", "/aqp/train")):
        with pytest.raises(ServeHTTPError) as exc:
            aqp_client._request(method, path, {} if method == "POST" else None)
        assert exc.value.status == 405


# ------------------------------------------------------- approx responses


def test_approx_bellwether_schema(aqp_client, trained):
    exact = aqp_client.bellwether(budget=60.0, items=SUBSET, explain=True)
    got = aqp_client.bellwether(
        budget=60.0, items=SUBSET, mode="approx", explain=True
    )
    assert got["mode"] == "approx"
    assert got["model_version"] == trained["model_version"]
    assert got["store_version"] == exact["store_version"]
    assert got["tolerance"] >= got["estimated_error"] >= 0.0
    assert got["found"] is True
    bw = got["bellwether"]
    assert bw["error_kind"] == "approx"
    assert bw["region_str"] == exact["bellwether"]["region_str"]
    assert abs(bw["rmse"] - exact["bellwether"]["rmse"]) <= got["tolerance"]
    assert got["n_feasible"] == exact["n_feasible"]
    assert [f["region_str"] for f in got["feasible"]] == [
        f["region_str"] for f in exact["feasible"]
    ]
    # Exact responses carry no fallback annotations.
    assert "fallback_reason" not in exact
    assert exact["mode"] == "exact"


def test_declared_tolerance_echoes_request(aqp_client, trained):
    got = aqp_client.bellwether(
        budget=60.0, items=SUBSET, mode="approx", tolerance=1e6
    )
    assert got["mode"] == "approx"
    assert got["tolerance"] == 1e6
    assert got["estimated_error"] <= 1e6


def test_approx_predict_is_bit_equal_exact_artifact(aqp_client, trained):
    exact = aqp_client.predict(items=SUBSET, budget=60.0)
    got = aqp_client.predict(items=SUBSET, budget=60.0, mode="approx")
    assert got["mode"] == "approx"
    assert got["model_version"] == trained["model_version"]
    for field in ("store_version", "region_str", "coef", "predictions", "aggregate"):
        assert got[field] == exact[field], field


def test_unseen_subset_falls_back_to_exact(aqp_client, trained):
    # Same size as SUBSET (so it stays feasible) but different composition
    # (so its quantized key was never journaled).
    novel = [1, 3, 5, 7, 9, 11, 13, 15, 16, 18, 19, 20]
    exact = aqp_client.bellwether(budget=60.0, items=novel)
    got = aqp_client.bellwether(budget=60.0, items=novel, mode="approx")
    assert got["mode"] == "exact"
    assert got["requested_mode"] == "approx"
    assert got["fallback_reason"] in ("unseen_key", "tolerance")
    assert got["bellwether"] == exact["bellwether"]
    assert got["store_version"] == exact["store_version"]


def test_infeasible_approx_is_409_like_exact(aqp_client, trained):
    for mode in (None, "approx"):
        with pytest.raises(ServeHTTPError) as exc:
            aqp_client.bellwether(budget=1e-6, items=SUBSET, mode=mode)
        assert exc.value.status == 409


# --------------------------------------------------------------- 400 wall


@pytest.mark.parametrize(
    "body",
    [
        {"budget": 60.0, "mode": "sorta"},
        {"budget": 60.0, "mode": 7},
        {"budget": 60.0, "tolerance": 0.5},  # tolerance without approx
        {"budget": 60.0, "mode": "exact", "tolerance": 0.5},
        {"budget": 60.0, "mode": "approx", "tolerance": 0.0},
        {"budget": 60.0, "mode": "approx", "tolerance": -1.0},
        {"budget": 60.0, "mode": "approx", "tolerance": True},
        {"budget": 60.0, "mode": "approx", "tolerance": "tight"},
    ],
    ids=[
        "bad-mode", "nonstring-mode", "tolerance-without-approx",
        "tolerance-on-exact", "zero-tolerance", "negative-tolerance",
        "bool-tolerance", "string-tolerance",
    ],
)
def test_bad_mode_or_tolerance_is_400(aqp_client, body):
    with pytest.raises(ServeHTTPError) as exc:
        aqp_client._request("POST", "/bellwether", body)
    assert exc.value.status == 400
    assert exc.value.payload["error"]["status"] == 400


# ------------------------------------------- mid-flight delta consistency


def test_midflight_delta_forces_fallback_then_retrain(dataset, tmp_path):
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
    with serve_in_thread(state) as handle:
        with ServeClient(handle.host, handle.port) as c:
            for budget in BUDGETS:
                c.bellwether(budget=budget, items=SUBSET)
            info = c.aqp_train()
            warm = c.bellwether(budget=BUDGETS[0], items=SUBSET, mode="approx")
            assert warm["mode"] == "approx"

            # Land a delta mid-flight: the model is now version-stale.
            delta = month_append_delta(gen, regions, BASE_MONTH + 1)
            applied = state.apply_delta(delta)
            new_version = applied["store_version"]
            assert new_version > warm["store_version"]

            # First approx query after the delta: exact fallback, stamped
            # with the *new* store version (never a stale mix).
            fell = c.bellwether(budget=BUDGETS[0], items=SUBSET, mode="approx")
            assert fell["mode"] == "exact"
            assert fell["requested_mode"] == "approx"
            assert fell["fallback_reason"] == "version_drift"
            assert fell["store_version"] == new_version
            exact = c.bellwether(budget=BUDGETS[0], items=SUBSET)
            assert fell["bellwether"] == exact["bellwether"]

            # The adaptive retrain already ran: approx answers again, at a
            # bumped model version, stamped with the new store version.
            again = c.bellwether(budget=BUDGETS[0], items=SUBSET, mode="approx")
            assert again["mode"] == "approx"
            assert again["store_version"] == new_version
            assert again["model_version"] > info["model_version"]
            status = c.aqp()
            assert status["degraded"] is False
            assert status["versions_behind"] == 0
