"""Columnar on-disk training-data store (the out-of-core backend).

Where :class:`~repro.storage.block_store.DiskStore` spills one ``.npz``
archive per region, this backend writes one *raw column file* per region —
``item_ids``, ``y``, each feature of ``x`` and (optionally) ``weights``
stored back-to-back as contiguous typed buffers — plus a single JSON
manifest (``manifest.json``) carrying the schema, the store version, and
per-column byte offsets.  A read maps the region's file **once** (one
``open`` + one ``mmap`` per file, every column a ``np.frombuffer`` window at
its manifest offset) and copies the rows out, so a block costs what its
bytes cost, not a fixed price per column; then

* :meth:`ColumnarStore.read` / :meth:`ColumnarStore._fetch` materialize one
  region exactly like the npz backend (bit-for-bit identical arrays), and
* :meth:`ColumnarStore.scan_chunks` streams a full scan in bounded-memory
  sub-blocks of at most ``chunk_rows`` rows without ever holding a whole
  region, which is what lets fig11 run the paper's 10M-row configurations
  out-of-core.

No mapping outlives the call (or, in ``scan_chunks``, the region) that made
it: a delta ``os.replace``s region files, so nothing is cached across calls.

Accounting stays truthful: ``read`` counts a region read, a (chunked or
whole-block) scan counts one full scan, and chunks additionally land on the
``store.columnar.chunks_read`` / ``store.bytes_read`` counters.  Writing is
streamed through :class:`ColumnarWriter` (one block in RAM at a time) and
counted on ``store.columnar.bytes_written`` / ``regions_written``.
"""

from __future__ import annotations

import json
import mmap
import os
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.dimensions import Region
from repro.dimensions.interval import Interval
from repro.exceptions import ConfigError
from repro.obs.catalog import (
    STORE_COLUMNAR_BYTES_WRITTEN,
    STORE_COLUMNAR_REGIONS_WRITTEN,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

from .block_store import (
    RegionBlock,
    StorageError,
    TrainingDataStore,
    _atomic_write,
)
from .stats import IOStats

_TRACER = get_tracer()
_BYTES_WRITTEN = get_registry().counter(STORE_COLUMNAR_BYTES_WRITTEN)
_REGIONS_WRITTEN = get_registry().counter(STORE_COLUMNAR_REGIONS_WRITTEN)

_FORMAT = "repro-columnar"
_LAYOUT_VERSION = 1
_CODEC = "raw"  # the one on-disk encoding; the manifest names it
_EXT = ".col"

#: Default bounded-memory chunk size for :meth:`ColumnarStore.scan_chunks`.
DEFAULT_CHUNK_ROWS = 65_536


# ----------------------------------------------------------- region JSON codec


def region_to_json(region: Region) -> list:
    """A JSON-stable encoding of a region (strings plain, intervals tagged)."""
    return [
        v if isinstance(v, str) else {"interval": [v.start, v.end]}
        for v in region.values
    ]


def region_from_json(values: list) -> Region:
    decoded = []
    for v in values:
        if isinstance(v, str):
            decoded.append(v)
        elif isinstance(v, dict) and "interval" in v:
            start, end = v["interval"]
            decoded.append(Interval(int(start), int(end)))
        else:
            raise StorageError(f"unintelligible region value {v!r} in manifest")
    return Region(tuple(decoded))


# ---------------------------------------------------------------- column files


def _encode_columns(block: RegionBlock) -> dict[str, np.ndarray]:
    """The block as named 1-D columns, in the on-disk layout order."""
    cols: dict[str, np.ndarray] = {
        "item_ids": np.ascontiguousarray(block.item_ids),
        "y": np.ascontiguousarray(block.y),
    }
    for j in range(block.n_features):
        cols[f"x{j}"] = np.ascontiguousarray(block.x[:, j])
    if block.weights is not None:
        cols["weights"] = np.ascontiguousarray(block.weights)
    for name, arr in cols.items():
        if arr.dtype.hasobject:
            raise StorageError(
                f"column {name!r} has object dtype; the columnar backend "
                "stores fixed-width typed buffers only"
            )
    return cols


def _write_raw(path: Path, cols: Mapping[str, np.ndarray]) -> tuple[int, dict]:
    """Write columns back-to-back; returns (total bytes, per-column meta)."""
    offset = 0
    meta: dict[str, dict] = {}
    # Temp file + os.replace: truncating the live file in place would tear
    # the memmap windows a concurrent reader holds over the old layout.
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as f:
        for name, arr in cols.items():
            payload = arr.tobytes()
            meta[name] = {"offset": offset, "dtype": arr.dtype.str}
            f.write(payload)
            offset += len(payload)
    os.replace(tmp, path)
    return offset, meta


def _raw_columns(path: Path, rows: int, columns: Mapping) -> dict[str, np.ndarray]:
    """Read-only windows over every stored column, from one mapping of the file.

    The windows keep the mapping alive; it is unmapped when the last of
    them is dropped.
    """
    if rows == 0:
        return {
            name: np.empty(0, dtype=np.dtype(col["dtype"]))
            for name, col in columns.items()
        }
    with path.open("rb") as f:
        buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return {
        name: np.frombuffer(
            buf, dtype=np.dtype(col["dtype"]), count=rows, offset=int(col["offset"])
        )
        for name, col in columns.items()
    }


# ----------------------------------------------------------------- the store


class ColumnarStore(TrainingDataStore):
    """Per-region column files + a JSON manifest; one mapping per file read.

    Directory layout::

        manifest.json          # schema, codec, version, per-column offsets
        region_000000.col      # typed buffers back-to-back
        region_000001.col
        ...

    Open an existing directory with ``ColumnarStore(directory)`` (or
    :func:`repro.storage.open_store`, which sniffs the backend); build a new
    one with :meth:`create` (all blocks in RAM) or :meth:`writer` (streamed,
    one block at a time).
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        manifest_path = self._dir / self.MANIFEST
        if not manifest_path.exists():
            raise StorageError(
                f"{self._dir} has no columnar manifest; use ColumnarStore.create"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("format") != _FORMAT:
                raise StorageError(
                    f"{manifest_path} is not a {_FORMAT} manifest "
                    f"(format={manifest.get('format')!r})"
                )
            layout = int(manifest.get("layout_version", -1))
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
        # As with DiskStore: the version survives reopening, the delta log
        # does not, so deltas_since(anything older) fails loudly.
        self._log_floor = self.version
        self._changelog: list = []

    # -------------------------------------------------------------- creation

    @classmethod
    def create(
        cls,
        directory: str | Path,
        blocks: Mapping[Region, RegionBlock],
        feature_names: Sequence[str],
    ) -> "ColumnarStore":
        with cls.writer(directory, feature_names) as w:
            for region, block in blocks.items():
                w.add(region, block)
        return w.store

    @classmethod
    def writer(
        cls,
        directory: str | Path,
        feature_names: Sequence[str],
    ) -> "ColumnarWriter":
        return ColumnarWriter(directory, feature_names)

    # --------------------------------------------------------------- reading

    def regions(self) -> list[Region]:
        return list(self._meta)

    def _columns(self, region: Region, meta: Mapping) -> dict[str, np.ndarray]:
        """Every stored column of one region, as windows on one mapping."""
        try:
            return _raw_columns(
                self._dir / meta["file"], meta["rows"], meta["columns"]
            )
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"unreadable column file {meta['file']} for region {region}: {exc!r}"
            ) from exc

    @staticmethod
    def _assemble(
        cols: Mapping[str, np.ndarray], p: int, lo: int | None = None, hi: int | None = None
    ) -> RegionBlock:
        """Copy (a slice of) mapped columns out into a normal block."""
        window = slice(lo, hi)
        item_ids = np.array(cols["item_ids"][window])
        y = np.array(cols["y"][window])
        x = np.empty((len(item_ids), p), dtype=cols["x0"].dtype if p else np.float64)
        for j in range(p):
            x[:, j] = cols[f"x{j}"][window]
        weights = np.array(cols["weights"][window]) if "weights" in cols else None
        return RegionBlock(item_ids, x, y, weights)

    def _fetch(self, region: Region) -> RegionBlock:
        try:
            meta = self._meta[region]
        except KeyError:
            raise StorageError(f"unknown region {region}") from None
        cols = self._columns(region, meta)
        try:
            return self._assemble(cols, len(self.feature_names))
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
        Counts one full scan plus per-chunk bytes (``store.bytes_read`` and
        ``store.columnar.chunks_read``) — never whole-region materialization.
        """
        if chunk_rows < 1:
            raise ConfigError(f"chunk_rows must be >= 1, got {chunk_rows}")
        p = len(self.feature_names)
        with _TRACER.span(
            "store.scan",
            store=type(self).__name__,
            regions=len(self._meta),
            chunk_rows=chunk_rows,
        ):
            self.stats.record_full_scan()
            for region, meta in self._meta.items():
                cols = self._columns(region, meta)
                rows = meta["rows"]
                for lo in range(0, max(rows, 1), chunk_rows):
                    hi = min(lo + chunk_rows, rows)
                    chunk = self._assemble(cols, p, lo, hi)
                    self.stats.record_chunk_read(chunk.nbytes)
                    yield region, chunk

    @property
    def n_examples_total(self) -> int:
        return sum(meta["rows"] for meta in self._meta.values())

    # ---------------------------------------------------------------- deltas

    def _write_manifest(self) -> None:
        entries = [
            {
                "key": region_to_json(region),
                "file": meta["file"],
                "rows": meta["rows"],
                "columns": meta["columns"],
            }
            for region, meta in self._meta.items()
        ]
        payload = json.dumps(
            {
                "format": _FORMAT,
                "layout_version": _LAYOUT_VERSION,
                "codec": _CODEC,
                "version": self.version,
                "feature_names": list(self.feature_names),
                "regions": entries,
            }
        ).encode()
        _atomic_write(self._dir / self.MANIFEST, payload)

    def _write_region(self, region: Region, block: RegionBlock, name: str) -> None:
        nbytes, col_meta = _write_raw(self._dir / name, _encode_columns(block))
        self._meta[region] = {
            "file": name,
            "rows": block.n_examples,
            "columns": col_meta,
        }
        _BYTES_WRITTEN.inc(nbytes)

    def apply_delta(self, delta) -> int:
        """Apply a delta, rewriting touched column files and the manifest.

        Same semantics as the npz backend: retract-then-append, new regions
        scan last, the bumped version persisted (atomically) in the manifest.
        """
        touched: dict[Region, RegionBlock] = {}
        for region in tuple(delta.blocks) + tuple(delta.drop_regions):
            if region in self._meta:
                touched[region] = self._fetch(region)
        self._apply_delta_to_blocks(delta, touched)
        for region in delta.drop_regions:
            meta = self._meta.pop(region)
            (self._dir / meta["file"]).unlink(missing_ok=True)
        next_idx = 1 + max(
            (
                int(meta["file"][len("region_"):-len(_EXT)])
                for meta in self._meta.values()
            ),
            default=-1,
        )
        for region in delta.blocks:
            meta = self._meta.get(region)
            if meta is None:
                name = f"region_{next_idx:06d}{_EXT}"
                next_idx += 1
                _REGIONS_WRITTEN.inc()
            else:
                name = meta["file"]
            self._write_region(region, touched[region], name)
        self._write_manifest()
        return self.version


class ColumnarWriter:
    """Streaming :class:`ColumnarStore` creation (one block in RAM at a time).

    The manifest is written (atomically) only on a clean exit, so an
    interrupted build never looks like a complete store::

        with ColumnarStore.writer(directory, feature_names) as w:
            for region, block in generate():
                w.add(region, block)
        store = w.store
    """

    def __init__(
        self,
        directory: str | Path,
        feature_names: Sequence[str],
    ):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.feature_names = tuple(feature_names)
        self._entries: list[dict] = []
        self._seen: set[Region] = set()
        self.store: ColumnarStore | None = None

    def add(self, region: Region, block: RegionBlock) -> None:
        if self.store is not None:
            raise StorageError("writer already finished")
        if region in self._seen:
            raise StorageError(f"duplicate region {region}")
        if block.n_features != len(self.feature_names):
            raise StorageError(
                f"block has {block.n_features} features, "
                f"writer declares {len(self.feature_names)}"
            )
        name = f"region_{len(self._entries):06d}{_EXT}"
        nbytes, col_meta = _write_raw(self._dir / name, _encode_columns(block))
        self._entries.append(
            {
                "key": region_to_json(region),
                "file": name,
                "rows": block.n_examples,
                "columns": col_meta,
            }
        )
        self._seen.add(region)
        _BYTES_WRITTEN.inc(nbytes)
        _REGIONS_WRITTEN.inc()

    def finish(self) -> ColumnarStore:
        if self.store is None:
            payload = json.dumps(
                {
                    "format": _FORMAT,
                    "layout_version": _LAYOUT_VERSION,
                    "codec": _CODEC,
                    "version": 0,
                    "feature_names": list(self.feature_names),
                    "regions": self._entries,
                }
            ).encode()
            _atomic_write(self._dir / ColumnarStore.MANIFEST, payload)
            self.store = ColumnarStore(self._dir)
        return self.store

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()
