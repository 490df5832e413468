"""Bellwether-as-a-service: a concurrent HTTP/JSON query server.

The interactive counterpart of the batch CLI: a stdlib-only
``ThreadingHTTPServer`` answering "which region predicts item subset S
under budget B" (``POST /bellwether``) and "what aggregate does region r
predict for S" (``POST /predict``) in milliseconds, plus model/region/cube
browse endpoints — all request threads answering, lock-free, from the one
immutable snapshot a versioned :class:`ServerState` publishes: warm
queries with zero fact scans from the PR 7 materialized cube tables,
store deltas adopted live through the PR 3 patch-forward path and
published with one reference swap.

Quickstart::

    python -m repro.serve --port 8000 --aqp
    curl -s localhost:8000/model
    curl -s -X POST localhost:8000/bellwether -d '{"budget": 50}'
    curl -s -X POST localhost:8000/aqp/train
    curl -s -X POST localhost:8000/bellwether \
        -d '{"budget": 50, "mode": "approx", "tolerance": 0.5}'

Load harness: :mod:`repro.serve.loadgen` /
``python -m repro.serve.loadgen --port 8000`` (fig13 journals it).
"""

from .app import BellwetherHTTPServer, ServerHandle, make_server, serve_in_thread
from .client import ServeClient, ServeHTTPError
from .errors import (
    BadRequestError,
    InfeasibleQueryError,
    MethodNotAllowedError,
    NotFoundError,
    ServeError,
)
from .loadgen import LoadgenResult, run_loadgen
from .state import ENDPOINTS, ServerState

__all__ = [
    "BadRequestError",
    "BellwetherHTTPServer",
    "ENDPOINTS",
    "InfeasibleQueryError",
    "LoadgenResult",
    "MethodNotAllowedError",
    "NotFoundError",
    "ServeClient",
    "ServeError",
    "ServeHTTPError",
    "ServerHandle",
    "ServerState",
    "make_server",
    "run_loadgen",
    "serve_in_thread",
]
