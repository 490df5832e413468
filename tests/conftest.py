"""Suite-wide guards.

The seed-clean lint that used to live here (a regex over ``repro.verify`` /
``repro.datasets``) is now rule RPR003 of the AST-based invariant linter —
``python -m repro.analysis --rule RPR003`` — which covers all of
``src/repro`` *and* ``tests`` and catches what the regex could not (e.g. an
unseeded ``default_rng()`` call).  ``tests/analysis/test_lint_clean.py``
keeps the pytest failure mode: the suite fails if the tree is not
lint-clean.
"""

import os

import pytest


@pytest.fixture()
def lockcheck():
    """A strict runtime lock checker for the duration of one test.

    Any lock-order inversion or non-reentrant re-acquire anywhere in the
    process raises immediately — the hammer tests opt in so their thread
    storms double as race detectors.
    On teardown the observed lock graph is exported to
    ``$REPRO_LOCKGRAPH_OUT`` when set (the nightly CI failure artifact).
    """
    from repro.analysis.runtime import disable_lockcheck, enable_lockcheck

    checker = enable_lockcheck(strict=True)
    try:
        yield checker
    finally:
        out = os.environ.get("REPRO_LOCKGRAPH_OUT")
        if out:
            checker.export_graph(out)
        disable_lockcheck()
