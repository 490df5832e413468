"""Training-data storage: in-memory and disk-resident region blocks.

Stores are versioned: :meth:`TrainingDataStore.apply_delta` absorbs appended
or retracted training rows (see :mod:`repro.storage.delta`) and bumps a
monotone ``version`` that downstream statistics — the persisted cube
tables of :mod:`repro.storage.cubetables` — key on.

Two on-disk backends implement the same interface: :class:`DiskStore` (one
``.npz`` per region, pickle manifest) and
:class:`~repro.storage.columnar.ColumnarStore` (per-region raw column files,
JSON manifest, memmap-backed bounded-memory chunked scans).
:func:`open_store` sniffs which backend wrote a directory.
:mod:`repro.storage.cubetables` persists the suffstats cube tables (per
level, plus the base cells they roll up from) on top of either backend.
"""

from .block_store import (
    BlockWriter,
    DiskStore,
    FilteredStore,
    MemoryStore,
    RegionBlock,
    StorageError,
    TrainingDataStore,
    open_store,
)
from .columnar import ColumnarStore, ColumnarWriter
from .cubetables import CubeTableStore, LevelTable, StaleCacheError
from .delta import AppliedDelta, BlockDelta, StoreDelta, apply_block_delta
from .stats import IOStats

__all__ = [
    "AppliedDelta",
    "BlockDelta",
    "BlockWriter",
    "ColumnarStore",
    "ColumnarWriter",
    "CubeTableStore",
    "DiskStore",
    "FilteredStore",
    "IOStats",
    "LevelTable",
    "MemoryStore",
    "RegionBlock",
    "StaleCacheError",
    "StorageError",
    "StoreDelta",
    "TrainingDataStore",
    "apply_block_delta",
    "open_store",
]
