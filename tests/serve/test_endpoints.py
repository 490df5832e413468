"""Endpoint schema round-trips against a live in-process server."""

import numpy as np

from repro.core import BasicBellwetherSearch
from repro.serve import ENDPOINTS

from .conftest import N_ITEMS, SUBSET


def test_model_schema(client, dataset):
    model = client.model()
    assert model["service"] == "repro.serve"
    assert model["dataset"] == "mailorder"
    assert model["n_items"] == N_ITEMS
    assert model["item_ids"] == sorted(int(i) for i in dataset.task.item_ids)
    assert model["n_regions"] > 0
    assert model["n_examples_total"] > 0
    assert model["store_version"] >= 0
    assert list(model["endpoints"]) == list(ENDPOINTS)
    lattice = model["lattice"]
    assert lattice["n_levels"] >= 1
    assert lattice["n_significant_subsets"] >= 1
    assert lattice["min_subset_size"] == 3


def test_healthz(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0
    assert health["store_version"] >= 0


def test_metricsz_snapshots_the_registry(client):
    snapshot = client.metricsz()
    assert snapshot["store_version"] >= 0
    metrics = snapshot["metrics"]
    assert metrics["serve.requests"] >= 1
    assert "store.full_scans" in metrics


def test_regions_schema(client, served):
    payload = client.regions()
    assert payload["n_regions"] == len(payload["regions"])
    assert payload["n_regions"] == len(served.state.store.regions())
    for entry in payload["regions"]:
        assert entry["cost"] > 0
        assert isinstance(entry["region"], str)
        if entry["evaluable"]:
            assert entry["rmse"] >= 0
            assert entry["n_examples"] > 0
        else:
            assert entry["rmse"] is None
    # The key field is the wire-protocol cell address: it must round-trip
    # through /predict (cell addressing satellite).
    first = next(e for e in payload["regions"] if e["evaluable"])
    predicted = client.predict(items=SUBSET, region=first["key"])
    assert predicted["region_str"] == first["region"]


def test_cube_levels_and_crosstab(client):
    overview = client.cube()
    assert overview["n_subsets"] == sum(
        lv["n_subsets"] for lv in overview["levels"]
    )
    level = tuple(overview["levels"][0]["level"])
    table = client.cube(level=level)
    assert table["level"] == list(level)
    assert table["n_subsets"] == len(table["subsets"])
    for entry in table["subsets"]:
        assert entry["n_items"] >= 1
        if entry["found"]:
            assert entry["region_str"]
            assert entry["rmse"] >= 0


def test_bellwether_subset_matches_direct_search(client, served):
    """A restricted /bellwether equals the raw in-process search, bitwise."""
    got = client.bellwether(budget=50.0, items=SUBSET, explain=True)
    state = served.state
    direct = BasicBellwetherSearch(state.task, state.store, costs=None)
    expected = direct.run(budget=50.0, item_ids=SUBSET)
    assert got["found"] is True
    assert got["items"] == sorted(SUBSET)
    assert got["store_version"] == int(state.store.version)
    assert got["bellwether"]["region_str"] == str(expected.bellwether.region)
    assert got["bellwether"]["rmse"] == float(expected.bellwether.rmse)
    assert got["n_feasible"] == len(expected.feasible)
    assert [e["region_str"] for e in got["feasible"]] == [
        str(r.region) for r in expected.feasible
    ]


def test_predict_round_trip(client, served):
    got = client.predict(items=SUBSET, budget=90.0)
    assert got["items"] == sorted(SUBSET)
    assert len(got["predictions"]) == len(SUBSET)
    total = 0.0
    for entry, item in zip(got["predictions"], sorted(SUBSET)):
        assert entry["item"] == item
        total += entry["value"]
    assert got["aggregate"] == total

    # The per-item values come from the region model h_r on one
    # representative row each (BasicPredictor semantics).
    state = served.state
    search = BasicBellwetherSearch(state.task, state.store)
    region = next(
        r for r in state.store.regions() if str(r) == got["region_str"]
    )
    model = search.fit_model(region, item_ids=SUBSET)
    assert got["coef"] == [float(c) for c in model.coef]
    block = state.store.read(region)
    for entry in got["predictions"]:
        hit = np.flatnonzero(block.item_ids == entry["item"])
        if not entry["fallback"]:
            assert entry["value"] == float(model.predict(block.x[hit[0]])[0])
        else:
            assert hit.size == 0


def test_bellwether_without_budget_uses_task_criterion(client, served):
    got = client.bellwether()
    direct = BasicBellwetherSearch(served.state.task, served.state.store)
    direct.evaluate_from_tables(served.state._tables)
    expected = direct.run()
    assert got["budget"] is None
    assert got["bellwether"]["region_str"] == str(expected.bellwether.region)
