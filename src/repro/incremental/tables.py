"""Materialized cube-table builds with ``--skip-existing`` semantics.

:func:`build_cube_tables` is the one entry point for getting warm-path cube
tables (see :mod:`repro.storage.cubetables`):

* **hit** — a persisted table set matching the builder's geometry signature
  at the store's current version loads directly (``cube.tables.hits``); no
  facts are touched.
* **miss** — anything else (absent, stale version, other geometry) falls
  through to a build (``cube.tables.misses`` then ``cube.tables.builds``).
  The build adopts the base-cell table persisted in the *same* artifact at
  whatever version it was saved (``incr.cache_hits``) and patches only the
  dirty base cells forward through the store changelog — the incremental
  ``--skip-existing`` behaviour; only a base that is absent, unreadable, of
  another geometry or behind a changelog gap (``incr.cache_misses``) pays a
  full scan.  Either way the build is statistics only — scan or patch, roll
  up, save; nothing is solved and no winner is selected.

The returned tables feed
:meth:`~repro.core.cube.BellwetherCubeBuilder.build_from_tables` (bit-for-bit
equal to ``build("optimized")``) and
:meth:`~repro.core.BasicBellwetherSearch.evaluate_from_tables`.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.cube import BellwetherCubeBuilder
from repro.obs.catalog import (
    CUBE_TABLES_BUILDS,
    CUBE_TABLES_HITS,
    CUBE_TABLES_MISSES,
    INCR_CACHE_HITS,
    INCR_CACHE_MISSES,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage import BaseCellTable, CubeTableStore, LevelTable, StorageError

__all__ = ["build_cube_tables"]

_TRACER = get_tracer()
_BUILDS = get_registry().counter(CUBE_TABLES_BUILDS)
_HITS = get_registry().counter(CUBE_TABLES_HITS)
_MISSES = get_registry().counter(CUBE_TABLES_MISSES)
_BASE_HITS = get_registry().counter(INCR_CACHE_HITS)
_BASE_MISSES = get_registry().counter(INCR_CACHE_MISSES)


def build_cube_tables(
    builder: BellwetherCubeBuilder,
    directory: str | Path,
    skip_existing: bool = True,
) -> list[LevelTable]:
    """Load-or-materialize the cube tables for ``builder`` under ``directory``.

    With ``skip_existing`` (the default), a persisted table set that matches
    the builder's geometry at the store's current version is returned as-is;
    pass ``skip_existing=False`` to roll the tables up and save them again
    regardless.
    """
    table_store = CubeTableStore(directory)
    signature = builder.geometry_signature()
    store_version = builder.store.version
    with _TRACER.span(
        "cube.tables", skip_existing=skip_existing, version=store_version
    ) as sp:
        if skip_existing:
            try:
                tables = table_store.load(signature, store_version)
                _HITS.inc()
                sp.annotate(source="tables")
                return tables
            except StorageError:
                _MISSES.inc()
        maintainer = builder.incremental()
        try:
            maintainer.adopt(*table_store.load_base(signature))
            _BASE_HITS.inc()
        except StorageError:
            _BASE_MISSES.inc()
        sp.annotate(source=maintainer.advance())
        # laid end to end once, for the rollup and for the save
        stacks = BaseCellTable.of(
            maintainer.stacks, signature["n_cells"], signature["p"]
        )
        tables = builder.level_tables(stacks)
        table_store.save(tables, signature, store_version, stacks)
        _BUILDS.inc()
    return tables
