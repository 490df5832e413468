"""Training-data stores: per-region training sets, in memory or on disk.

The *entire training data* (Section 5.2) is the collection of training sets
for all feasible regions.  Bellwether algorithms access it through one of two
patterns:

* ``read(region)`` — fetch one region's block (what the naive algorithms do
  per node/split/subset), and
* ``scan()`` — stream every region's block once (what the RF tree does per
  level and the cube algorithms do once).

Both stores count these accesses via :class:`~repro.storage.stats.IOStats`.
:class:`DiskStore` is the one on-disk store: one *raw column file* per region
(``item_ids``, ``y``, the row-major ``(rows, p)`` ``x`` and optionally
``weights`` stored back-to-back as contiguous typed buffers) plus a single
JSON manifest carrying the schema, the store version and per-column byte
offsets.  Every ``read`` / ``scan`` maps the region's file afresh — nothing
is cached — giving the "every request is a disk read" regime of Section
7.4.1 for the Figure 11(a) comparison, and :meth:`DiskStore.scan_chunks`
streams a full scan in bounded-memory sub-blocks, which is what lets fig11
run the paper's 10M-row configurations out-of-core.

Stores are *versioned*: contents start at version 0 and every
:meth:`TrainingDataStore.apply_delta` (appended / retracted training rows —
see :mod:`repro.storage.delta`) bumps the version and appends an
:class:`~repro.storage.delta.AppliedDelta` record to the store's changelog.
Callers that cached derived state (per-region error profiles, suffstats
stacks) ask :meth:`TrainingDataStore.deltas_since` what moved and refresh
only that; a changelog gap (e.g. a reopened :class:`DiskStore`, whose log is
not persisted) raises :class:`StorageError`, telling the caller to rebuild
rather than silently serving stale numbers.
"""

from __future__ import annotations

import json
import mmap
import os
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dimensions import Region, region_from_json, region_to_json
from repro.exceptions import ConfigError, ReproError
from repro.obs.catalog import (
    STORE_COLUMNAR_BYTES_WRITTEN,
    STORE_COLUMNAR_REGIONS_WRITTEN,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

from .stats import IOStats

_TRACER = get_tracer()
_BYTES_WRITTEN = get_registry().counter(STORE_COLUMNAR_BYTES_WRITTEN)
_REGIONS_WRITTEN = get_registry().counter(STORE_COLUMNAR_REGIONS_WRITTEN)

_FORMAT = "repro-columnar"
_LAYOUT_VERSION = 2
_ALIGN = 8  # every array in a raw file starts at a multiple of this offset
_CODEC = "raw"  # the one on-disk encoding; the manifest names it
_EXT = ".col"

#: Default bounded-memory chunk size for :meth:`DiskStore.scan_chunks`.
DEFAULT_CHUNK_ROWS = 65_536


class StorageError(ReproError):
    """A store was used inconsistently (unknown region, bad directory, ...)."""


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    A crash mid-write leaves either the old file or the new one, never a torn
    hybrid — the property the store manifest and the cube tables rely on.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


@dataclass(frozen=True)
class RegionBlock:
    """The training set generated from one region.

    Attributes
    ----------
    item_ids:
        Item ID per training example (one example per item in the region).
    x:
        ``(n, p)`` regional feature matrix (item-table features included).
    y:
        ``(n,)`` target values.
    weights:
        Optional per-example weights for weighted least squares
        (Section 6.4's WLS extension); ``None`` means unit weights.
    """

    item_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.item_ids)
        if self.x.shape[0] != n or self.y.shape != (n,):
            raise StorageError(
                f"inconsistent block: ids={n}, x={self.x.shape}, y={self.y.shape}"
            )
        if self.weights is not None and self.weights.shape != (n,):
            raise StorageError(
                f"inconsistent block weights: {self.weights.shape} for {n} rows"
            )

    @property
    def n_examples(self) -> int:
        return len(self.item_ids)

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def nbytes(self) -> int:
        extra = self.weights.nbytes if self.weights is not None else 0
        return self.item_ids.nbytes + self.x.nbytes + self.y.nbytes + extra

    def where(self, keep: np.ndarray) -> "RegionBlock":
        """The rows a boolean mask, an index array or a slice selects, in order.

        A slice selects views, not copies.
        """
        return RegionBlock(
            self.item_ids[keep],
            self.x[keep],
            self.y[keep],
            None if self.weights is None else self.weights[keep],
        )

    def restrict_to(self, item_ids: np.ndarray) -> "RegionBlock":
        """The sub-block for a subset of items (S_r in the paper)."""
        return self.where(np.isin(self.item_ids, item_ids))


class TrainingDataStore:
    """Interface shared by the in-memory and on-disk stores."""

    feature_names: tuple[str, ...]
    stats: IOStats
    #: Monotone content version; bumped by every applied delta.
    version: int = 0
    #: Versions ``<= _log_floor`` are not in the in-memory changelog.
    _log_floor: int = 0

    def regions(self) -> list[Region]:
        raise NotImplementedError

    def read(self, region: Region) -> RegionBlock:
        raise NotImplementedError

    # ---------------------------------------------------------- delta contract

    def apply_delta(self, delta) -> int:
        """Fold a :class:`~repro.storage.delta.StoreDelta` in; new version."""
        raise StorageError(f"{type(self).__name__} does not accept deltas")

    def deltas_since(self, version: int) -> list:
        """Changelog entries applied after ``version``, oldest first.

        Raises :class:`StorageError` when that history is unavailable (the
        caller's snapshot predates this store's in-memory log, or claims a
        version the store never reached) — the signal to rebuild from a
        full scan instead of trusting stale derived state.
        """
        if version == self.version:
            return []
        if version > self.version:
            raise StorageError(
                f"version {version} is ahead of the store (at {self.version})"
            )
        if version < self._log_floor:
            raise StorageError(
                f"delta history before version {self._log_floor} is gone; "
                "rebuild from a full scan"
            )
        changelog = getattr(self, "_changelog", [])
        return [entry for entry in changelog if entry.version > version]

    def _apply_delta_to_blocks(self, delta, blocks: dict[Region, RegionBlock]):
        """Shared apply path: mutate ``blocks`` in place.

        Returns the :class:`~repro.storage.delta.AppliedDelta` of the next
        version; the store moves to it when the caller hands it to
        :meth:`_advance`, after whatever makes the new blocks durable.
        """
        from .delta import AppliedDelta, apply_block_delta

        new_regions: list[Region] = []
        touched: dict[Region, np.ndarray] = {}
        for region in delta.drop_regions:
            if blocks.pop(region, None) is None:
                raise StorageError(f"cannot drop unknown region {region}")
        for region, bd in delta.blocks.items():
            old = blocks.get(region)
            if old is None:
                new_regions.append(region)
            new, gone = apply_block_delta(old, bd, len(self.feature_names))
            blocks[region] = new
            # Only the ids are kept: the changelog outlives the rows.
            touched[region] = np.unique(
                np.concatenate(
                    [b.item_ids for b in (bd.append, gone) if b is not None]
                )
            )
        return AppliedDelta(
            version=self.version + 1,
            touched=touched,
            drop_regions=tuple(delta.drop_regions),
            new_regions=tuple(new_regions),
        )

    def _advance(self, applied) -> None:
        """Move to ``applied.version`` and record it in the changelog."""
        self.version = applied.version
        self._changelog.append(applied)

    def scan(self) -> Iterator[tuple[Region, RegionBlock]]:
        """One pass over every region's block (counted as one full scan).

        The span covers the whole consumption of the generator: work the
        caller does between blocks is attributed to the scan, which is the
        paper's accounting (a scan's cost includes processing its blocks).
        """
        regions = self.regions()
        with _TRACER.span(
            "store.scan", store=type(self).__name__, regions=len(regions)
        ):
            self.stats.record_full_scan()
            for region in regions:
                yield region, self._fetch(region)

    def _fetch(self, region: Region) -> RegionBlock:
        raise NotImplementedError

    @property
    def n_examples_total(self) -> int:
        """Total training rows across every region.

        This fallback fetches each block just to count rows; concrete stores
        override it with manifest/metadata row counts so sizing a workload
        never costs a full scan's worth of I/O.
        """
        return sum(self._fetch(r).n_examples for r in self.regions())


class MemoryStore(TrainingDataStore):
    """All region blocks held in RAM (counts logical reads all the same)."""

    def __init__(
        self,
        blocks: Mapping[Region, RegionBlock],
        feature_names: Sequence[str],
    ):
        self._blocks = dict(blocks)
        self.feature_names = tuple(feature_names)
        self.stats = IOStats()
        self.version = 0
        self._changelog: list = []
        for block in self._blocks.values():
            if block.n_features != len(self.feature_names):
                raise StorageError(
                    f"block has {block.n_features} features, "
                    f"store declares {len(self.feature_names)}"
                )

    def regions(self) -> list[Region]:
        return list(self._blocks)

    def apply_delta(self, delta) -> int:
        """Append/retract rows (and add/drop regions); returns new version.

        New regions land after the existing ones in :meth:`regions` order,
        exactly where a regenerated store would also scan them last.
        """
        self._advance(self._apply_delta_to_blocks(delta, self._blocks))
        return self.version

    def _fetch(self, region: Region) -> RegionBlock:
        try:
            return self._blocks[region]
        except KeyError:
            raise StorageError(f"unknown region {region}") from None

    def read(self, region: Region) -> RegionBlock:
        block = self._fetch(region)
        self.stats.record_region_read(block.nbytes)
        return block

    @property
    def n_examples_total(self) -> int:
        return sum(block.n_examples for block in self._blocks.values())


class FilteredStore(TrainingDataStore):
    """A view of another store restricted to a subset of regions.

    Used for budget sweeps: one materialized store serves every budget, with
    a cheap per-budget view of the feasible regions.  I/O counts accrue to
    this view's own stats.
    """

    def __init__(self, inner: TrainingDataStore, regions: Sequence[Region]):
        known = set(inner.regions())
        missing = [r for r in regions if r not in known]
        if missing:
            raise StorageError(f"regions not in the underlying store: {missing[:3]}")
        self._inner = inner
        self._regions = list(regions)
        self._visible = set(self._regions)
        self.feature_names = inner.feature_names
        self.stats = IOStats()

    def regions(self) -> list[Region]:
        return list(self._regions)

    def _fetch(self, region: Region) -> RegionBlock:
        if region not in self._visible:
            raise StorageError(f"region {region} filtered out of this view")
        return self._inner._fetch(region)

    def read(self, region: Region) -> RegionBlock:
        block = self._fetch(region)
        self.stats.record_region_read(block.nbytes)
        return block


# ---------------------------------------------------------------- column files


def _encode_columns(block: RegionBlock) -> dict[str, np.ndarray]:
    """The block's arrays in the on-disk layout order (``x`` row-major whole)."""
    cols: dict[str, np.ndarray] = {
        "item_ids": block.item_ids,
        "y": block.y,
        "x": block.x,
    }
    if block.weights is not None:
        cols["weights"] = block.weights
    for name, arr in cols.items():
        if arr.dtype.hasobject:
            raise StorageError(
                f"column {name!r} has object dtype; the store holds "
                "fixed-width typed buffers only"
            )
    return cols


def _write_raw(path: Path, cols: Mapping[str, np.ndarray]) -> tuple[int, dict]:
    """Write arrays back-to-back, each C-contiguous and starting 8-byte aligned.

    Returns (total bytes, per-array meta: offset, dtype and element count).
    Each array's own buffer goes to the file; a non-contiguous one is laid
    out once first.
    """
    offset = 0
    meta: dict[str, dict] = {}
    # Temp file + os.replace: under its final name a file is whole or
    # absent; whether it counts is the manifest's call.
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as f:
        for name, arr in cols.items():
            arr = np.ascontiguousarray(arr)
            pad = -offset % _ALIGN
            if pad:
                f.write(bytes(pad))
                offset += pad
            meta[name] = {"offset": offset, "dtype": arr.dtype.str, "count": arr.size}
            f.write(arr.data)
            offset += arr.nbytes
    os.replace(tmp, path)
    return offset, meta


def _write_region(directory: Path, idx: int, block: RegionBlock) -> dict:
    """Write ``block`` as region file number ``idx``; returns its manifest entry."""
    name = f"region_{idx:06d}{_EXT}"
    nbytes, col_meta = _write_raw(directory / name, _encode_columns(block))
    _BYTES_WRITTEN.inc(nbytes)
    return {"file": name, "rows": block.n_examples, "columns": col_meta}


def _raw_columns(
    path: str | Path, rows: int, columns: Mapping
) -> dict[str, np.ndarray]:
    """Read-only windows over every stored column, from one mapping of the file.

    A column holds ``rows`` elements unless its entry names a ``count`` of
    its own.  The windows keep the mapping alive; it is unmapped when the
    last of them (and of every view on them) is dropped.
    """
    if not any(col.get("count", rows) for col in columns.values()):
        empty = {name: np.empty(0, dtype=col["dtype"]) for name, col in columns.items()}
        for window in empty.values():
            window.flags.writeable = False
        return empty
    fd = os.open(path, os.O_RDONLY)
    try:
        buf = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)  # the mapping keeps the file; the descriptor is not needed
    return {
        name: np.frombuffer(
            buf,
            dtype=np.dtype(col["dtype"]),
            count=int(col.get("count", rows)),
            offset=int(col["offset"]),
        )
        for name, col in columns.items()
    }


def _write_manifest(
    directory: Path,
    feature_names: Sequence[str],
    version: int,
    meta: Mapping[Region, dict],
) -> None:
    """The store's single commit point: one atomic write of the manifest.

    Region files only count once the manifest names them, so whoever dies
    before this returns leaves the directory at its previous version.
    """
    payload = json.dumps(
        {
            "format": _FORMAT,
            "layout_version": _LAYOUT_VERSION,
            "codec": _CODEC,
            "version": version,
            "feature_names": list(feature_names),
            "regions": [
                {"key": region_to_json(region), **entry}
                for region, entry in meta.items()
            ],
        }
    ).encode()
    _atomic_write(directory / DiskStore.MANIFEST, payload)


# ------------------------------------------------------------------ the store


class DiskStore(TrainingDataStore):
    """Per-region column files + a JSON manifest; a block is views on one mapping.

    Directory layout (``repro-columnar`` layout v2)::

        manifest.json          # schema, codec, version, per-column offsets
        region_000000.col      # item_ids | y | x (rows x p, row-major) | weights
        region_000001.col
        ...

    Open an existing directory with ``DiskStore(directory)`` (or
    :func:`open_store`); build a new one with :meth:`create` (all blocks in
    RAM) or :meth:`writer` (streamed, one block at a time).  Only the files
    the manifest names are part of the store; anything else matching
    ``region_*`` is a leftover of an interrupted write and is ignored.  A
    layout v1 directory (``x`` one column per feature) is refused with a
    :class:`StorageError`: write it again with :meth:`create` /
    :meth:`from_memory`.

    A read maps the region's file **once** (one ``open`` + one ``mmap``)
    and returns read-only, C-contiguous ``np.frombuffer`` views on that
    mapping — ``x`` is stored row-major, so it is one view too — and copies
    nothing.  The mapping lives exactly as long as the views on it: it is
    unmapped when the last array derived from the block is dropped.
    Nothing is cached across calls, so every ``read`` / scan maps afresh and
    I/O counts match physical behaviour: ``read`` counts a region read, a
    (chunked or whole-block) scan counts one full scan, chunks additionally
    land on ``store.columnar.chunks_read`` / ``store.bytes_read`` and writes
    on ``store.columnar.bytes_written`` / ``regions_written``.

    Long-lived views are safe because no region file is ever changed in
    place: every write goes to a temp name and is ``os.replace``-d (RPR010),
    and a delta writes the regions it touches under new names and unlinks
    the old ones.  A view keeps its file's inode, so a block fetched before
    a delta keeps reading the version it was fetched at, and no file under
    a live mapping is truncated (which would fault a read with SIGBUS).
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._dirname = str(self._dir)  # joined per read without pathlib
        manifest_path = self._dir / self.MANIFEST
        if not manifest_path.exists():
            if manifest_path.with_suffix(".pkl").exists():  # never unpickled
                raise StorageError(
                    f"{self._dir} holds a manifest.pkl: the npz block format "
                    "is retired and no longer read; write the store again "
                    "with DiskStore.create / DiskStore.from_memory"
                )
            raise StorageError(f"{self._dir} has no manifest; use DiskStore.create")
        try:
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("format") != _FORMAT:
                raise StorageError(
                    f"{manifest_path} is not a {_FORMAT} manifest "
                    f"(format={manifest.get('format')!r})"
                )
            layout = int(manifest.get("layout_version", -1))
            if layout == 1:
                raise StorageError(
                    f"{self._dir} is laid out as repro-columnar v1 (x stored "
                    "one feature column at a time), which is no longer read; "
                    "write the store again with DiskStore.create / "
                    "DiskStore.from_memory"
                )
            if layout != _LAYOUT_VERSION:
                raise StorageError(
                    f"manifest layout v{layout} unsupported "
                    f"(this build reads v{_LAYOUT_VERSION})"
                )
            if manifest["codec"] != _CODEC:
                raise StorageError(
                    f"unknown codec {manifest['codec']!r} in manifest"
                )
            self.feature_names = tuple(manifest["feature_names"])
            self.version = int(manifest["version"])
            self._meta: dict[Region, dict] = {}
            for entry in manifest["regions"]:
                region = region_from_json(entry["key"])
                self._meta[region] = {
                    "file": str(entry["file"]),
                    "rows": int(entry["rows"]),
                    "columns": dict(entry["columns"]),
                }
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(f"corrupt manifest {manifest_path}: {exc!r}") from exc
        self.stats = IOStats()
        # The persisted version survives reopening, but the delta log does
        # not: deltas_since(anything older) must fail loudly.
        self._log_floor = self.version
        self._changelog: list = []

    # -------------------------------------------------------------- creation

    @classmethod
    def create(
        cls,
        directory: str | Path,
        blocks: Mapping[Region, RegionBlock],
        feature_names: Sequence[str],
    ) -> "DiskStore":
        """Write all blocks and the manifest, then open the store."""
        with cls.writer(directory, feature_names) as w:
            for region, block in blocks.items():
                w.add(region, block)
        return w.store

    @classmethod
    def writer(
        cls, directory: str | Path, feature_names: Sequence[str]
    ) -> "BlockWriter":
        """Streaming creation: blocks added one at a time, manifest last.

        Lets out-of-core generators build stores far larger than RAM — each
        block is written and dropped before the next is generated.
        """
        return BlockWriter(directory, feature_names)

    @classmethod
    def from_memory(cls, directory: str | Path, store: MemoryStore) -> "DiskStore":
        return cls.create(
            directory,
            {r: store._fetch(r) for r in store.regions()},
            store.feature_names,
        )

    # --------------------------------------------------------------- reading

    def regions(self) -> list[Region]:
        return list(self._meta)

    def _fetch(self, region: Region) -> RegionBlock:
        """The region's block as read-only views on one mapping of its file."""
        try:
            meta = self._meta[region]
        except KeyError:
            raise StorageError(f"unknown region {region}") from None
        try:
            rows = meta["rows"]
            path = os.path.join(self._dirname, meta["file"])
            cols = _raw_columns(path, rows, meta["columns"])
            x = cols["x"].reshape(rows, len(self.feature_names))
            return RegionBlock(cols["item_ids"], x, cols["y"], cols.get("weights"))
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"unreadable column file {meta['file']} for region {region}: {exc!r}"
            ) from exc

    def read(self, region: Region) -> RegionBlock:
        block = self._fetch(region)
        self.stats.record_region_read(block.nbytes)
        return block

    def scan_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[tuple[Region, RegionBlock]]:
        """One full scan streamed as bounded-memory sub-blocks.

        Yields ``(region, chunk)`` pairs where each chunk holds at most
        ``chunk_rows`` consecutive rows of that region's block; a region
        spanning several chunks is yielded several times, in row order.
        A chunk is a window of views on the region's one mapping, so only
        the pages it touches are read in.  Counts one full scan plus
        per-chunk bytes (``store.bytes_read`` and
        ``store.columnar.chunks_read``).
        """
        if chunk_rows < 1:
            raise ConfigError(f"chunk_rows must be >= 1, got {chunk_rows}")
        with _TRACER.span(
            "store.scan",
            store=type(self).__name__,
            regions=len(self._meta),
            chunk_rows=chunk_rows,
        ):
            self.stats.record_full_scan()
            for region, meta in self._meta.items():
                block = self._fetch(region)
                rows = meta["rows"]
                for lo in range(0, max(rows, 1), chunk_rows):
                    chunk = block.where(slice(lo, lo + chunk_rows))
                    self.stats.record_chunk_read(chunk.nbytes)
                    yield region, chunk

    @property
    def n_examples_total(self) -> int:
        return sum(meta["rows"] for meta in self._meta.values())

    # ---------------------------------------------------------------- deltas

    def apply_delta(self, delta) -> int:
        """Apply a delta; the manifest write is its single commit point.

        Same semantics as :meth:`MemoryStore.apply_delta` (retract-then-append,
        new regions scan last).  Every touched region is written under a file
        name the current manifest does not use, then the manifest — bumped
        version, new names, row counts and offsets — replaces the old one
        atomically, and only then is every region file it does not name
        unlinked (superseded, dropped, or left by an interrupted attempt).
        Interrupted anywhere, the directory reopens at one version or the
        other with exactly that version's bytes, and this object has not
        moved either.
        """
        old = self._meta
        touched = {
            region: self._fetch(region)
            for region in (*delta.blocks, *delta.drop_regions)
            if region in old
        }
        applied = self._apply_delta_to_blocks(delta, touched)
        meta = dict(old)
        for region in delta.drop_regions:
            del meta[region]
        next_idx = 1 + max(
            (int(m["file"][len("region_"):-len(_EXT)]) for m in old.values()),
            default=-1,
        )
        for region in delta.blocks:
            meta[region] = _write_region(self._dir, next_idx, touched[region])
            next_idx += 1
            if region not in old:
                _REGIONS_WRITTEN.inc()
        _write_manifest(self._dir, self.feature_names, applied.version, meta)
        self._meta = meta
        self._advance(applied)
        named = {m["file"] for m in meta.values()}
        for path in self._dir.glob("region_*"):
            if path.name not in named:
                path.unlink(missing_ok=True)
        return self.version


class BlockWriter:
    """Streaming :class:`DiskStore` creation (one block in RAM at a time).

    Use as a context manager; the manifest is written (atomically) only on a
    clean exit, so an interrupted build never looks like a complete store::

        with DiskStore.writer(directory, feature_names) as w:
            for region, block in generate():
                w.add(region, block)
        store = w.store
    """

    def __init__(self, directory: str | Path, feature_names: Sequence[str]):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.feature_names = tuple(feature_names)
        self._meta: dict[Region, dict] = {}
        self.store: DiskStore | None = None

    def add(self, region: Region, block: RegionBlock) -> None:
        if self.store is not None:
            raise StorageError("writer already finished")
        if region in self._meta:
            raise StorageError(f"duplicate region {region}")
        if block.n_features != len(self.feature_names):
            raise StorageError(
                f"block has {block.n_features} features, "
                f"writer declares {len(self.feature_names)}"
            )
        self._meta[region] = _write_region(self._dir, len(self._meta), block)
        _REGIONS_WRITTEN.inc()

    def finish(self) -> DiskStore:
        if self.store is None:
            _write_manifest(self._dir, self.feature_names, 0, self._meta)
            self.store = DiskStore(self._dir)
        return self.store

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()


def open_store(directory: str | Path) -> DiskStore:
    """Open the on-disk store at ``directory``."""
    return DiskStore(directory)
