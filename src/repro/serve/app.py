"""The HTTP layer: a stdlib ``ThreadingHTTPServer`` over a ServerState.

Endpoints (all JSON; see DESIGN.md §9):

* ``GET /model`` — datasets, lattice geometry, store version.
* ``GET /regions`` — region addressing for browse/drill-down.
* ``GET /cube[?level=i,j]`` — lattice levels / one level's cells.
* ``POST /bellwether`` — ``{"budget": B, "items": [ids...]}`` plus the
  approximate tier's ``"mode": "approx"`` / ``"tolerance": t`` knobs.
  The reply names the winner and ``n_feasible``; ``"explain": true`` adds
  the ``feasible`` list, every feasible region's entry.
* ``POST /predict`` — ``{"items": [...], "region": key, "budget": B}``
  (same ``mode``/``tolerance`` knobs).
* ``GET /aqp`` / ``POST /aqp/train`` — approximate-tier status / retrain.
* ``GET /healthz`` / ``GET /metricsz`` — liveness / registry snapshot.

One thread per *connection* (``ThreadingHTTPServer``); the requests of a
keep-alive connection reuse it.  :meth:`_Handler.parse_request` reads the
request line and the head itself — a split per header line under
http.client's limits, no ``email.parser`` — into a plain dict of
lower-cased names; a body is framed by ``Content-Length`` alone.  Every
request then funnels through :meth:`_Handler._dispatch`, which times its
three stages — parse (from the request line on), answer, write — maps
any :class:`~repro.exceptions.ReproError` onto the structured JSON error
payload of :mod:`repro.serve.errors` and keeps the thread alive on any
other failure; refusals of the request line or head (unknown method,
unparsable line, a head past the limits) get the same payload through
:meth:`_Handler.send_error`.  The read endpoints' bodies arrive from
:class:`ServerState` as bytes and are written straight through; every
reply leaves in one write (:meth:`_Handler._reply`).  Latency/request
counters are recorded through :func:`repro.serve.state.record_request`
under the instrument lock.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections.abc import Callable
from functools import partial
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError

from .errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    UnsupportedFramingError,
    error_payload,
)
from .snapshot import dumps
from .state import ServerState, record_request

__all__ = ["BellwetherHTTPServer", "ServerHandle", "make_server", "serve_in_thread"]

_GET_ROUTES = ("/model", "/regions", "/cube", "/aqp", "/healthz", "/metricsz")
_POST_ROUTES = ("/bellwether", "/predict", "/aqp/train")

#: http.client's limits on a request head: bytes a line (line end
#: included) and header fields a head.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: A header field name (RFC 9110 §5.1: a token).
_FIELD_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class BellwetherHTTPServer(ThreadingHTTPServer):
    """Thread-per-connection server sharing one :class:`ServerState`."""

    daemon_threads = True
    allow_reuse_address = True
    # Hold a 256-client connection burst instead of refusing at the
    # default backlog of 5.
    request_queue_size = 512

    def __init__(self, address, state: ServerState):
        super().__init__(address, _Handler)
        self.state = state
        #: ``(second, Date value)``: formatted once a second, not once a reply.
        self.date = (0, "")


def _is_number(part: str) -> bool:
    """A version component http.server reads: 1 to 10 ASCII digits."""
    return part.isascii() and part.isdigit() and len(part) <= 10


def _dumped(call: Callable[[], dict]) -> Callable[[], bytes]:
    """``call``'s dict answer serialised per request: the small or rare bodies."""
    return lambda: dumps(call())


def _error_body(exc: Exception, status: int | None = None) -> tuple[int, bytes]:
    status, payload = error_payload(exc, status)
    return status, dumps(payload)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on the accepted socket (socketserver sets it in setup()).
    disable_nagle_algorithm = True
    server: BellwetherHTTPServer
    #: The lower-cased header fields of the request in hand.
    headers: dict[str, str]

    # --------------------------------------------------------------- the head

    def parse_request(self) -> bool:
        """The request line and the header fields, without ``email.parser``.

        The request line is checked as http.server checks it (400, 505,
        HTTP/0.9); the clock of the parse stage starts here.  Header lines
        are read under http.client's limits (431 past either) into
        :attr:`headers`, a repeated field's values joined by ``", "``
        (RFC 9110 §5.3), so two ``Content-Length`` values are no integer.
        A line that is no ``name: value`` field — a folded line, an empty
        or spaced name — loses the framing: 400, and the connection
        closes.  ``Connection`` and ``Expect: 100-continue`` act as in
        http.server.  Returns ``False`` once a refusal has been sent.
        """
        self._start = time.perf_counter()
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = version[5:] if version.startswith("HTTP/") else ""
            major, dot, minor = number.partition(".")
            if not (dot and _is_number(major) and _is_number(minor)):
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            parsed = int(major), int(minor)
            if parsed >= (1, 1):
                self.close_connection = False
            if parsed >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({number})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        # http.server's guard against an open redirect: '//path' is '/path'.
        self.command, self.path = command, (
            "/" + path.lstrip("/") if path.startswith("//") else path
        )
        headers = self._read_head()
        if headers is None:
            return False
        self.headers = headers
        connection = {t.strip().lower() for t in headers.get("connection", "").split(",")}
        if "close" in connection:
            self.close_connection = True
        elif "keep-alive" in connection:
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_head(self) -> dict[str, str] | None:
        """The header fields up to the blank line; ``None`` once refused."""
        headers: dict[str, str] = {}
        fields = 0
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long")
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            fields += 1
            if fields > _MAX_HEADERS:
                self.send_error(431, "Too many headers")
                return None
            name, colon, value = line.partition(b":")
            if not (colon and _FIELD_NAME.fullmatch(name)):
                self.send_error(400, f"Bad header line ({line[:80]!r})")
                return None
            key = name.decode("ascii").lower()
            value = value.strip(b" \t\r\n").decode("iso-8859-1")
            headers[key] = f"{headers[key]}, {value}" if key in headers else value

    # ------------------------------------------------------------ dispatching

    def do_GET(self) -> None:  # noqa: N802 (http.server's naming)
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch()

    def send_error(self, code, message=None, explain=None) -> None:
        """http.server's own refusals, through the same wall as ours.

        It calls this for a method without a ``do_*`` (501: the request
        itself parsed, so it is dispatched like any other and ``_route``
        answers 405); it and :meth:`parse_request` call it for a request
        line or head they cannot parse (400, 414, 431, 505): the framing is
        lost, so the connection closes, and the request is not timed.
        """
        if code == HTTPStatus.NOT_IMPLEMENTED:
            self._dispatch()
            return
        self.close_connection = True
        refusal = BadRequestError(message or self.responses[code][0])
        self._reply(*_error_body(refusal, status=int(code)))
        record_request("unknown", 0.0, True)

    def _dispatch(self) -> None:
        start = self._start
        endpoint = "unknown"
        error = False
        parsed = None
        self._unread = 0  # request-body bytes still on the socket
        try:
            self._unread = self._content_length()
            path, params = self._split_path()
            endpoint = path.lstrip("/") or "unknown"
            call = self._route(self.command, path, params)
            parsed = time.perf_counter()
            status, body = 200, call()
        except ReproError as exc:
            error = True
            status, body = _error_body(exc)
        except Exception as exc:  # lint: ignore[RPR006] — a request thread answers 500, it must not die
            error = True
            status, body = _error_body(exc, status=500)
        # An error raised before the route read its body (405, bad level
        # param, ...) would leave the bytes on the socket and desync the
        # next keep-alive request — drain them before replying.
        self._read_body()
        answered = time.perf_counter()
        if parsed is None:  # refused while parsing: no answer stage ran
            parsed = answered
        parse, answer = parsed - start, answered - parsed
        # Milliseconds; the write cannot be known before it is sent.
        self._reply(
            status, body, f"parse;dur={parse * 1e3:.3f}, answer;dur={answer * 1e3:.3f}"
        )
        done = time.perf_counter()
        record_request(endpoint, done - start, error, (parse, answer, done - answered))

    def _route(self, method: str, path: str, params: dict) -> Callable[[], bytes]:
        """The parse stage: check method and path, read and decode the body.

        Returns the :class:`ServerState` call that answers, bound to its
        arguments; running it is the answer stage.
        """
        state = self.server.state
        if method not in ("GET", "POST"):
            raise MethodNotAllowedError(
                f"method {method} is not supported; endpoints answer GET or POST"
            )
        if path in _GET_ROUTES:
            if method != "GET":
                raise MethodNotAllowedError(f"{path} answers GET only")
            if path == "/model":
                return state.model_body
            if path == "/regions":
                return state.regions_body
            if path == "/cube":
                return partial(state.cube_body, self._level_param(params))
            if path == "/aqp":
                return _dumped(state.aqp_status)
            if path == "/healthz":
                return _dumped(state.healthz)
            return _dumped(state.metricsz)
        if path in _POST_ROUTES:
            if method != "POST":
                raise MethodNotAllowedError(f"{path} answers POST only")
            if path == "/aqp/train":
                # The journal is the input; any body is drained (keep-alive
                # connections must not leave unread bytes) and ignored.
                self._read_body()
                return _dumped(state.aqp_train)
            body = self._read_json()
            if path == "/bellwether":
                return partial(
                    state.bellwether_body,
                    budget=body.get("budget"),
                    items=body.get("items"),
                    mode=body.get("mode"),
                    tolerance=body.get("tolerance"),
                    explain=body.get("explain", False),
                )
            return partial(
                state.predict_body,
                items=body.get("items"),
                region=body.get("region"),
                budget=body.get("budget"),
                mode=body.get("mode"),
                tolerance=body.get("tolerance"),
            )
        raise NotFoundError(f"no endpoint {path!r}")

    # --------------------------------------------------------------- parsing

    def _split_path(self) -> tuple[str, dict]:
        parts = urlsplit(self.path)
        return parts.path.rstrip("/") or "/", parse_qs(parts.query)

    @staticmethod
    def _level_param(params: dict) -> tuple[int, ...] | None:
        values = params.get("level")
        if not values:
            return None
        try:
            return tuple(int(x) for x in values[0].split(",") if x != "")
        except ValueError as exc:
            raise BadRequestError(
                f"level must be comma-separated integers: {values[0]!r}"
            ) from exc

    def _content_length(self) -> int:
        """The declared body length, parsed once per request.

        Anything but one non-negative integer loses the message framing:
        answer 400 and close the connection rather than guess where the
        next request starts (``read(-1)`` would wait for the client to
        hang up).  A body framed by ``Transfer-Encoding`` is not read:
        501, and the connection closes before its chunks can be taken for
        requests.
        """
        if "transfer-encoding" in self.headers:
            self.close_connection = True
            raise UnsupportedFramingError(
                "Transfer-Encoding is not supported; frame the body with Content-Length"
            )
        raw = (self.headers.get("content-length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise BadRequestError(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        return int(raw)

    def _read_body(self) -> bytes:
        """Whatever of the request body is still on the socket."""
        length, self._unread = self._unread, 0
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> dict:
        raw = self._read_body()
        if not raw:
            raise BadRequestError("request body must be a JSON object")
        try:
            body = json.loads(raw)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise BadRequestError(f"malformed JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        return body

    # --------------------------------------------------------------- replies

    def _reply(self, status: int, body: bytes, timing: str | None = None) -> None:
        """The one send site: status line, headers and body in one write.

        Two writes would let Nagle park the second until the client's
        delayed ACK (~40 ms a keep-alive request).  A HEAD reply is the
        head alone.
        """
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self._date_value()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if self.close_connection:
            lines.append("Connection: close")
        if timing is not None:
            lines.append(f"Server-Timing: {timing}")
        head = "\r\n".join([*lines, "", ""]).encode("latin-1")
        try:
            self.wfile.write(head if self.command == "HEAD" else head + body)
        except (BrokenPipeError, ConnectionResetError):
            # Client hung up mid-reply; nothing to answer anymore.
            self.close_connection = True

    def _date_value(self) -> str:
        now = int(time.time())
        stamp = self.server.date
        if stamp[0] != now:
            stamp = self.server.date = (now, self.date_time_string(now))
        return stamp[1]

    def log_message(self, format: str, *args) -> None:
        """Silence the per-request stderr line (metrics cover it)."""


def make_server(
    state: ServerState, host: str = "127.0.0.1", port: int = 0
) -> BellwetherHTTPServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port."""
    return BellwetherHTTPServer((host, port), state)


class ServerHandle:
    """A server running in a daemon thread, for tests and the load harness."""

    def __init__(self, server: BellwetherHTTPServer):
        self.server = server
        self.thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        self.thread.start()

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def state(self) -> ServerState:
        return self.server.state

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_in_thread(
    state: ServerState, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Start an in-process server on a free port; ``close()`` when done."""
    return ServerHandle(make_server(state, host, port))
