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


# http.server refuses these itself, before any ``do_*`` runs; they used to
# get its text/html page, in two writes, uncounted.
@pytest.mark.parametrize(
    "request_bytes, status, error_type",
    [
        (
            b"PUT /bellwether HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: 14\r\n\r\n{\"budget\": 50}",
            405, "MethodNotAllowedError",
        ),
        (
            b"DELETE /model HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            405, "MethodNotAllowedError",
        ),
        (
            b"BREW /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            405, "MethodNotAllowedError",
        ),
        (b"GET\r\n\r\n", 400, "BadRequestError"),
        (b"GET /model HTTP/1.1 extra\r\n\r\n", 400, "BadRequestError"),
        (b"GET /model HTTP/one\r\n\r\n", 400, "BadRequestError"),
        (b"GET /model HTTP/9.9\r\nHost: x\r\n\r\n", 505, "BadRequestError"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, "BadRequestError"),
        (
            b"GET /model HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 200 + b"\r\n",
            431, "BadRequestError",
        ),
    ],
    ids=[
        "put", "delete", "unknown-method", "short-request-line",
        "long-request-line", "bad-version", "unsupported-version",
        "uri-too-long", "too-many-headers",
    ],
)
def test_http_server_refusals_are_structured_and_counted(
    served, request_bytes, status, error_type
):
    before = served.state.metricsz()["metrics"]
    with socket.create_connection((served.host, served.port), timeout=10) as sock:
        sock.sendall(request_bytes)
        raw = b""
        while chunk := sock.recv(65536):  # until the server closes
            raw += chunk
    head, __, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"content-type: application/json" in head.lower()
    assert b"connection: close" in head.lower()
    assert b"content-length: %d" % len(body) in head.lower()
    _assert_error(json.loads(body), status, error_type)
    after = served.state.metricsz()["metrics"]
    for counter in ("serve.requests", "serve.errors"):
        assert after[counter] == before[counter] + 1


def test_head_is_refused_with_the_head_alone(served):
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        conn.request("HEAD", "/model")
        response = conn.getresponse()
        assert response.status == 405
        assert response.getheader("Content-Type") == "application/json"
        assert int(response.getheader("Content-Length")) > 0
        assert response.read() == b""
        # no body bytes were left behind to desync the next reply
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


def test_a_refused_method_keeps_the_connection_in_sync(served):
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        conn.request("PUT", "/bellwether", body=b'{"budget": 50}')
        response = conn.getresponse()
        assert response.status == 405
        _assert_error(json.loads(response.read()), 405, "MethodNotAllowedError")
        conn.request("GET", "/healthz")  # the PUT's body was drained
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


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
