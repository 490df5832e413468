"""Deliberate RPR007 violations: serve instrument globals off-lock.

``test_rules.py`` binds this file to the ``repro/serve/state.py`` entry of
``MODULE_GUARDS`` (guards are keyed by path).
"""

_INSTRUMENT_LOCK = None
_REQUESTS = None
_LATENCY = {}


def count_request():
    _REQUESTS.inc()  # expect: RPR007


def observe(endpoint, seconds):
    with _INSTRUMENT_LOCK:
        hist = _LATENCY.get(endpoint)
    if hist is None:
        hist = _LATENCY["other"]  # expect: RPR007
    hist.observe(seconds)


def peek():
    with _INSTRUMENT_LOCK:
        pass
    return _REQUESTS.value  # expect: RPR007


def count_request_properly():
    with _INSTRUMENT_LOCK:
        _REQUESTS.inc()
        return _REQUESTS.value
