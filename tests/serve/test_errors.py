"""Structured JSON errors from the ReproError hierarchy, per status code."""

import http.client
import json
import re
import socket
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _exchange_raw(served, request_bytes) -> bytes:
    """Everything the server sends for ``request_bytes``, until it hangs up."""
    with socket.create_connection((served.host, served.port), timeout=10) as sock:
        sock.sendall(request_bytes)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    return raw


def _replies(raw: bytes) -> list[tuple[bytes, bytes]]:
    """``raw`` cut into ``(head, body)`` replies by their Content-Length."""
    replies = []
    while raw:
        head, blank, raw = raw.partition(b"\r\n\r\n")
        assert blank, f"a reply without the end of its head: {head[:200]!r}"
        length = int(re.search(rb"(?im)^content-length: *(\d+)", head)[1])
        replies.append((head, raw[:length]))
        raw = raw[length:]
    return replies


@pytest.mark.parametrize("method", ["POST", "HEAD"])
def test_a_chunked_request_gets_one_501_and_a_close(served, method):
    """Its chunk-size line used to be parsed as the next request: two
    replies, the second read on a keep-alive connection as the answer to
    the client's next request."""
    before = served.state.metricsz()["metrics"]
    raw = _exchange_raw(
        served,
        f"{method} /bellwether HTTP/1.1\r\nHost: x\r\n".encode()
        + b"Transfer-Encoding: chunked\r\n\r\n"
        + b'10\r\n{"budget": 60.0}\r\n0\r\n\r\n'
        + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    if method == "HEAD":  # the head alone: exactly one status line
        assert raw.count(b"HTTP/1.1 ") == 1 and raw.endswith(b"\r\n\r\n")
        head = raw
    else:
        [(head, body)] = _replies(raw)
        _assert_error(json.loads(body), 501, "UnsupportedFramingError")
    assert head.startswith(b"HTTP/1.1 501 ")
    assert b"connection: close" in head.lower()
    after = served.state.metricsz()["metrics"]
    for counter in ("serve.requests", "serve.errors"):
        assert after[counter] == before[counter] + 1


def test_conflicting_content_lengths_get_one_400_and_a_close(served):
    raw = _exchange_raw(
        served,
        b"POST /bellwether HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 16\r\nContent-Length: 5\r\n\r\n"
        b'{"budget": 60.0}GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n',
    )
    [(head, body)] = _replies(raw)
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"connection: close" in head.lower()
    _assert_error(json.loads(body), 400, "BadRequestError")
    assert "Content-Length" in json.loads(body)["error"]["message"]


_NAMES = st.text(string.ascii_letters + string.digits + "-", min_size=1, max_size=10)
_VALUES = st.text(string.ascii_letters + string.digits + " ,;=/", max_size=16)
_REQUESTS = [
    (b"GET", b"/healthz", b""),
    (b"POST", b"/bellwether", b'{"budget": 60.0}'),
    (b"POST", b"/bellwether", b"{not json"),
]
#: What a head may get wrong, and the status it must be refused with.
_FLAWS = {
    "none": None,
    "100-fields": None,
    "65536-byte-line": None,
    "obs-fold": 400,
    "empty-name": 400,
    "spaced-name": 400,
    "101-fields": 431,
    "65537-byte-line": 431,
}


@st.composite
def _heads(draw, last: bool):
    """One request and the status a flaw in its head must get (``None``:
    none), ``last`` asking the server to close after its reply."""
    method, path, body = draw(st.sampled_from(_REQUESTS))
    flaw = draw(st.sampled_from(sorted(_FLAWS)))
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    fields = [
        b"X-%s: %s" % (name.encode(), value.encode())
        for name, value in draw(st.lists(st.tuples(_NAMES, _VALUES), max_size=4))
    ]
    fields += [b"Host: x", b"Content-Length: %d" % len(body)]
    if last:
        fields.append(b"Connection: close")
    if flaw in ("100-fields", "101-fields"):
        fields += [b"X-Pad: %d" % k for k in range(int(flaw[:3]) - len(fields))]
    elif flaw.endswith("-byte-line"):
        pad = int(flaw[:5]) - len(b"X-Long: ") - len(eol)
        fields.insert(draw(st.integers(0, len(fields))), b"X-Long: " + b"a" * pad)
    elif flaw != "none":
        bad = {"obs-fold": b" folded", "empty-name": b": empty", "spaced-name": b"X-Bad : 1"}
        fields.insert(draw(st.integers(1, len(fields))), bad[flaw])
    head = eol.join([b"%s %s HTTP/1.1" % (method, path), *fields, b"", b""])
    return head + body, _FLAWS[flaw]


@given(st.lists(_heads(last=False), max_size=2), _heads(last=True))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_head_gets_one_reply_or_a_refusal_and_a_close(served, leading, final):
    """Random heads, pipelined: bare LF ends, folded lines, empty and
    spaced names, 100 / 101 fields, 65,536 / 65,537-byte lines.  Each
    request gets exactly one structured reply, never a 500; the first bad
    head gets its 4xx with ``Connection: close`` and nothing follows it;
    the server keeps serving."""
    requests = [*leading, final]
    raw = _exchange_raw(served, b"".join(request for request, __ in requests))
    replies = _replies(raw)
    refused = next((k for k, (__, status) in enumerate(requests) if status), None)
    answered = requests if refused is None else requests[: refused + 1]
    assert len(replies) == len(answered)
    for k, ((head, body), (__, status)) in enumerate(zip(replies, answered)):
        code = int(head.split(b" ", 2)[1])
        assert code < 500, head
        error = json.loads(body).get("error")
        assert error is None or error["status"] == code
        closes = b"connection: close" in head.lower()
        if status is not None:
            assert code == status and closes
        else:
            assert closes == (k == len(requests) - 1)
    assert served.thread.is_alive()
    assert _raw(served, "GET", "/healthz")[0] == 200


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
