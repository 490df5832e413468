"""Keeps the e2e smoke tests out of ``BENCH_figures.json``.

``benchmarks/conftest.py`` journals every test under ``benchmarks/`` through
its autouse ``_journal_bench`` fixture.  These tests time nothing worth a
journal line (two-second windows), so the fixture is shadowed by a no-op of
the same name.
"""

import pytest


@pytest.fixture(autouse=True)
def _journal_bench():
    yield
