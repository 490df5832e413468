"""Training-data storage: in-memory and disk-resident region blocks.

Stores are versioned: :meth:`TrainingDataStore.apply_delta` absorbs appended
or retracted training rows (see :mod:`repro.storage.delta`) and bumps a
monotone ``version`` that downstream statistics — the persisted cube
tables of :mod:`repro.storage.cubetables` — key on.

Two store layers implement the same interface: :class:`MemoryStore` in
memory and :class:`DiskStore` on disk (per-region raw column files, one JSON
manifest that is a delta's single commit point, bounded-memory chunked
scans); :class:`BlockWriter` streams a :class:`DiskStore` into existence one
block at a time and :func:`open_store` opens an existing directory.
:mod:`repro.storage.cubetables` persists the suffstats cube tables (per
level, plus the base cells they roll up from) beside either.
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
from .cubetables import BaseCellTable, CubeTableStore, LevelTable, StaleCacheError
from .delta import AppliedDelta, BlockDelta, StoreDelta, apply_block_delta
from .stats import IOStats

__all__ = [
    "AppliedDelta",
    "BaseCellTable",
    "BlockDelta",
    "BlockWriter",
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
