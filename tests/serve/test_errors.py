"""Structured JSON errors from the ReproError hierarchy, per status code."""

import http.client
import json
import socket

import pytest

from repro.serve import ServeHTTPError


def _raw(served, method, path, body=None):
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _assert_error(payload, status, error_type):
    error = payload["error"]
    assert error["type"] == error_type
    assert error["status"] == status
    assert error["message"]


def test_malformed_json_body_is_400(served):
    status, payload = _raw(served, "POST", "/bellwether", b"{not json")
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


def test_non_object_json_body_is_400(served):
    status, payload = _raw(served, "POST", "/bellwether", b"[1, 2, 3]")
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


def test_items_must_be_a_nonempty_list(served):
    for items in (123, "abc", [], {"a": 1}):
        status, payload = _raw(
            served, "POST", "/predict", json.dumps({"items": items}).encode()
        )
        assert status == 400, items
        _assert_error(payload, 400, "BadRequestError")


def test_unknown_item_ids_are_400(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.bellwether(budget=50.0, items=[9_999_999])
    assert excinfo.value.status == 400
    _assert_error(excinfo.value.payload, 400, "BadRequestError")
    assert "9999999" in excinfo.value.payload["error"]["message"]


def test_non_numeric_budget_is_400(served):
    status, payload = _raw(
        served, "POST", "/bellwether", json.dumps({"budget": "cheap"}).encode()
    )
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


# json.loads accepts NaN/Infinity and floats/bools/strings where an item id
# goes; each of these used to answer 200 for a query the caller did not
# make (or echo ``Infinity`` back as invalid JSON).
@pytest.mark.parametrize(
    "path, body",
    [
        ("/bellwether", b'{"items": [1.9, 2, 3]}'),
        ("/bellwether", b'{"items": [true, 2, 3]}'),
        ("/bellwether", b'{"items": ["3", 2, 4]}'),
        ("/predict", b'{"items": [1.0, 2, 4]}'),
        ("/bellwether", b'{"budget": NaN}'),
        ("/bellwether", b'{"budget": Infinity}'),
        ("/bellwether", b'{"budget": -Infinity}'),
        ("/bellwether", b'{"budget": 1e999}'),
        ("/bellwether", b'{"budget": 1' + b"0" * 400 + b"}"),
        ("/predict", b'{"items": [1, 2, 4], "budget": NaN}'),
        ("/bellwether", b'{"mode": "approx", "tolerance": NaN}'),
        ("/bellwether", b'{"mode": "approx", "tolerance": Infinity}'),
        ("/bellwether", b'{"budget": 50, "items": [1, 2, \xff]}'),
    ],
    ids=[
        "float-item", "bool-item", "string-item", "integral-float-item",
        "nan-budget", "inf-budget", "neg-inf-budget", "overflow-float-budget",
        "overflow-int-budget", "nan-predict-budget", "nan-tolerance",
        "inf-tolerance", "non-utf8-body",
    ],
)
def test_uncoercible_query_values_are_400(served, path, body):
    status, payload = _raw(served, "POST", path, body)
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")


@pytest.mark.parametrize(
    "length", ["abc", "-1", "-5", "1.5", "1_0", "+7"],
)
@pytest.mark.parametrize("method, path", [("POST", "/bellwether"), ("GET", "/model")])
def test_bad_content_length_is_400_and_closes(served, method, path, length):
    """A length that is not a non-negative integer loses the framing: the
    reply is a structured 400 (never a hang, a 500 or silence) and the
    server hangs up instead of guessing where the next request starts."""
    with socket.create_connection((served.host, served.port), timeout=10) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}".encode()
        )
        raw = b""
        while chunk := sock.recv(65536):  # until the server closes
            raw += chunk
    head, __, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"connection: close" in head.lower()
    _assert_error(json.loads(body), 400, "BadRequestError")


def test_unknown_endpoint_is_404(served):
    status, payload = _raw(served, "GET", "/nope")
    assert status == 404
    _assert_error(payload, 404, "NotFoundError")


def test_wrong_method_is_405(served):
    status, payload = _raw(served, "GET", "/bellwether")
    assert status == 405
    _assert_error(payload, 405, "MethodNotAllowedError")
    status, payload = _raw(served, "POST", "/model", b"{}")
    assert status == 405
    _assert_error(payload, 405, "MethodNotAllowedError")


def test_unknown_region_is_404(client):
    key = client.regions()["regions"][0]["key"]
    bogus = ["Nowhere" if isinstance(v, str) else v for v in key]
    with pytest.raises(ServeHTTPError) as excinfo:
        client.predict(items=[1, 2, 3], region=bogus)
    assert excinfo.value.status == 404
    _assert_error(excinfo.value.payload, 404, "NotFoundError")


def test_unintelligible_region_key_is_400(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.predict(items=[1, 2, 3], region=[{"bogus": 1}])
    assert excinfo.value.status == 400
    _assert_error(excinfo.value.payload, 400, "BadRequestError")


def test_infeasible_budget_is_409(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.bellwether(budget=1e-9)
    assert excinfo.value.status == 409
    _assert_error(excinfo.value.payload, 409, "InfeasibleQueryError")


def test_unknown_cube_level_is_404(client):
    with pytest.raises(ServeHTTPError) as excinfo:
        client.cube(level=(99, 99))
    assert excinfo.value.status == 404
    _assert_error(excinfo.value.payload, 404, "NotFoundError")


def test_bad_cube_level_param_is_400(served):
    status, payload = _raw(served, "GET", "/cube?level=x,y")
    assert status == 400
    _assert_error(payload, 400, "BadRequestError")
