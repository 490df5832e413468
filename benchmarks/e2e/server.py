"""Generator-side handles: the server child and one keep-alive HTTP client.

The client is plain stdlib ``http.client`` with default socket options —
no ``TCP_NODELAY``, no ``TCP_QUICKACK`` — so a request costs what it costs
a user of ``repro.serve``.  It times the three phases a caller can see
(send, wait for the status line and headers, wait for the body) and keeps
the raw body size, which is all the traced run needs from the wire.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from . import spec


class ChildError(RuntimeError):
    """The server child reported a failure or went away."""


class ServerProc:
    """The child process hosting ``ServerState`` + ``serve_in_thread``."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(spec.ROOT / "src"), str(spec.ROOT), env.get("PYTHONPATH", "")]
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.child"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=spec.ROOT,
            env=env,
            text=True,
        )
        # The delta writer thread and the main thread share the pipe.
        self._lock = threading.Lock()
        self.port: int | None = None

    def call(self, cmd: str, **kwargs) -> dict:
        with self._lock:
            self._proc.stdin.write(json.dumps({"cmd": cmd, **kwargs}) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        if not line:
            raise ChildError(f"server child exited during {cmd!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise ChildError(f"{cmd}: {reply['error']}")
        return reply

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._proc.poll() is None:
            try:
                self.call("stop")
            except (ChildError, BrokenPipeError, OSError):
                self._proc.kill()
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


@dataclass
class Reply:
    """One HTTP exchange as the caller saw it (times in seconds)."""

    status: int
    body: dict
    n_bytes: int
    t_start: float
    t_sent: float
    t_headers: float
    t_end: float


class HttpClient:
    """One keep-alive connection; ``fresh=True`` reconnects per request."""

    def __init__(self, port: int, fresh: bool = False, timeout: float = 30.0):
        self._port = port
        self._fresh = fresh
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, payload: dict | None = None) -> Reply:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        t_start = time.perf_counter()
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=self._timeout
            )
        self._conn.request(method, path, body=body, headers=headers)
        t_sent = time.perf_counter()
        response = self._conn.getresponse()
        t_headers = time.perf_counter()
        raw = response.read()
        t_end = time.perf_counter()
        if self._fresh:
            self.close()
        return Reply(
            response.status, json.loads(raw) if raw else {}, len(raw),
            t_start, t_sent, t_headers, t_end,
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
