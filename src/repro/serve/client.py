"""A minimal JSON client for the query service (stdlib ``http.client``).

One :class:`ServeClient` wraps one keep-alive connection, so each load-gen
or test thread owns its own instance.  Error responses raise
:class:`ServeHTTPError` carrying the HTTP status and the server's
structured ``{"error": {...}}`` payload.
"""

from __future__ import annotations

import http.client
import json

from repro.exceptions import ReproError

__all__ = ["ServeClient", "ServeHTTPError"]


class ServeHTTPError(ReproError):
    """A non-2xx response; ``status`` and the decoded ``payload`` attach."""

    def __init__(self, status: int, payload: dict):
        detail = payload.get("error", payload) if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServeClient:
    """A blocking JSON client over one keep-alive connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 80, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------- transport

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            return self._roundtrip(method, path, payload, headers)
        except (http.client.HTTPException, ConnectionError, BrokenPipeError):
            # The server closed an idle keep-alive connection; retry once
            # on a fresh one.
            self.close()
            return self._roundtrip(method, path, payload, headers)

    def _roundtrip(self, method, path, payload, headers) -> dict:
        conn = self._connection()
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        decoded = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise ServeHTTPError(response.status, decoded)
        return decoded

    # ------------------------------------------------------------- endpoints

    def model(self) -> dict:
        return self._request("GET", "/model")

    def regions(self) -> dict:
        return self._request("GET", "/regions")

    def cube(self, level: tuple[int, ...] | None = None) -> dict:
        path = "/cube"
        if level is not None:
            path += "?level=" + ",".join(str(int(x)) for x in level)
        return self._request("GET", path)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metricsz(self) -> dict:
        return self._request("GET", "/metricsz")

    def bellwether(
        self, budget=None, items=None, mode=None, tolerance=None, explain=False
    ) -> dict:
        body: dict = {}
        if budget is not None:
            body["budget"] = budget
        if items is not None:
            body["items"] = list(items)
        if mode is not None:
            body["mode"] = mode
        if tolerance is not None:
            body["tolerance"] = tolerance
        if explain is not False:  # anything else is the server's to refuse
            body["explain"] = explain
        return self._request("POST", "/bellwether", body)

    def predict(self, items, region=None, budget=None, mode=None, tolerance=None) -> dict:
        body: dict = {"items": list(items)}
        if region is not None:
            body["region"] = region
        if budget is not None:
            body["budget"] = budget
        if mode is not None:
            body["mode"] = mode
        if tolerance is not None:
            body["tolerance"] = tolerance
        return self._request("POST", "/predict", body)

    def aqp(self) -> dict:
        return self._request("GET", "/aqp")

    def aqp_train(self) -> dict:
        return self._request("POST", "/aqp/train", {})
