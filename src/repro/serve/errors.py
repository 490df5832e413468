"""HTTP-facing errors for the query service.

Every error a request can surface descends from
:class:`~repro.exceptions.ReproError` and maps to one structured JSON
payload::

    {"error": {"type": "<class name>", "message": "...", "status": <code>}}

Service-specific conditions get their own :class:`ServeError` subclasses
carrying an HTTP status; domain errors raised by the engine (a
:class:`~repro.core.exceptions.SearchError` on an infeasible query, a
:class:`~repro.exceptions.ConfigError` on bad parameters) are mapped onto
statuses here so handler code can simply let them propagate.
"""

from __future__ import annotations

from repro.core.exceptions import SearchError, TaskError
from repro.exceptions import ConfigError, ReproError

__all__ = [
    "BadRequestError",
    "InfeasibleQueryError",
    "MethodNotAllowedError",
    "NotFoundError",
    "ServeError",
    "UnsupportedFramingError",
    "error_payload",
    "status_of",
]


class ServeError(ReproError):
    """A request the service refuses; subclasses pin the HTTP status."""

    status = 500


class BadRequestError(ServeError):
    """Malformed request: bad JSON, missing/ill-typed fields, unknown items."""

    status = 400


class NotFoundError(ServeError):
    """Unknown endpoint, region, or lattice level."""

    status = 404


class MethodNotAllowedError(ServeError):
    """The endpoint exists but not under this HTTP method."""

    status = 405


class UnsupportedFramingError(ServeError):
    """A request body framed other than by ``Content-Length`` (chunked)."""

    status = 501


class InfeasibleQueryError(ServeError):
    """No region satisfies the query's criterion (e.g. budget too tight)."""

    status = 409


def status_of(exc: ReproError) -> int:
    """The HTTP status a :class:`ReproError` answers with."""
    if isinstance(exc, ServeError):
        return exc.status
    if isinstance(exc, (ConfigError, TaskError)):
        return 400
    if isinstance(exc, SearchError):
        # The engine's "cannot satisfy this query" outcome: infeasible
        # budget, empty training set, estimator/table mismatch.
        return 409
    return 500


def error_payload(exc: Exception, status: int | None = None) -> tuple[int, dict]:
    """``(status, body)`` for an exception escaping a request handler."""
    if status is None:
        status = status_of(exc) if isinstance(exc, ReproError) else 500
    return status, {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "status": status,
        }
    }
