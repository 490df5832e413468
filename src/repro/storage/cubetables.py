"""Materialized suffstats cube tables (Theorem 1, persisted).

A cube build's expensive part is deriving per-(region, subset) sufficient
statistics from raw facts.  Theorem 1 makes those statistics algebraic, so
they can be *materialized*.  One :class:`CubeTableStore` directory is the
one persisted statistics artifact, holding under one store version and one
geometry signature:

* the **level tables** — per lattice level, the rolled-up
  :class:`~repro.ml.StackedSuffStats` of every (region, significant subset)
  problem, the exact arrays
  :meth:`~repro.core.cube.BellwetherCubeBuilder.level_tables` computes.
  A warm cube build loads them and runs one batched solve per level without
  ever touching facts (``store.full_scans`` stays at zero);
* the **base-cell table** — every region's statistics over the finest
  lattice cells, the sums every level is a rollup of.  A later build adopts
  it at whatever version it was saved and patches only the dirty cells
  forward through the store changelog instead of rescanning.

Staleness is loud, never silent: statistics written at another store
version or for another geometry raise :class:`StaleCacheError`; unreadable
files raise :class:`~repro.storage.StorageError`.  Byte traffic lands on the
``cube.tables.bytes_written`` / ``cube.tables.bytes_read`` counters —
derived-statistics I/O, deliberately separate from the ``store.*`` scan
accounting the Lemmas are phrased in.

Use :func:`repro.incremental.build_cube_tables` to build/refresh a table
set with ``--skip-existing`` semantics.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dimensions import Region, region_from_json, region_to_json
from repro.ml import StackedSuffStats
from repro.obs.catalog import (
    CUBE_TABLES_BYTES_READ,
    CUBE_TABLES_BYTES_WRITTEN,
)
from repro.analysis.runtime import CUBE_TABLES_IO, TrackedLock
from repro.obs.metrics import get_registry

from .block_store import StorageError, _atomic_write, _raw_columns, _write_raw

_BYTES_WRITTEN = get_registry().counter(CUBE_TABLES_BYTES_WRITTEN)
_BYTES_READ = get_registry().counter(CUBE_TABLES_BYTES_READ)

_FORMAT = "repro-cube-tables"
#: v3: the statistics are one Gram matrix of laid rows per problem.  A v2
#: table holds the same sums taken as three products, which differ in the
#: last bits, so it is refused and rebuilt, never adopted.
_LAYOUT_VERSION = 3


class StaleCacheError(StorageError):
    """Cached derived statistics were written against another store version
    (or another lattice geometry) — rebuild instead of serving stale bits."""


@dataclass(frozen=True)
class LevelTable:
    """One lattice level's materialized (region, subset) statistics.

    Attributes
    ----------
    level:
        The lattice level (per-hierarchy depth tuple).
    regions:
        Regions holding data, in store-scan order.
    keep_sidx:
        Indices of the level's significant subsets, in the builder's keep
        order (``K`` entries).
    stats:
        ``len(regions) * K`` problems, region-major: problem ``r * K + j``
        is (regions[r], significant subset j) — bit-identical to the
        optimized builder's rollup of the same store.
    """

    level: tuple[int, ...]
    regions: tuple[Region, ...]
    keep_sidx: np.ndarray
    stats: StackedSuffStats

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_subsets(self) -> int:
        return len(self.keep_sidx)


class BaseCellTable(Mapping):
    """Every region's base-cell stack, held as one stack, region-major.

    A read-only ``{region: StackedSuffStats}`` in region order whose values
    are windows of :attr:`stats`: region ``k`` is problems
    ``k * n_cells:(k + 1) * n_cells``.  The rollup and the save both want the
    stacks end to end; handed this, neither lays them out again.
    """

    def __init__(
        self, regions: Sequence[Region], n_cells: int, stats: StackedSuffStats
    ):
        self.regions = tuple(regions)
        self.n_cells = int(n_cells)
        self.stats = stats
        self._at = {region: k for k, region in enumerate(self.regions)}

    @classmethod
    def of(
        cls, stacks: Mapping[Region, StackedSuffStats], n_cells: int, p: int
    ) -> "BaseCellTable":
        """``stacks`` laid end to end — itself when it already is."""
        if isinstance(stacks, cls):
            return stacks
        return cls(
            stacks,
            n_cells,
            StackedSuffStats.concatenate(
                [StackedSuffStats.zeros(0, p), *stacks.values()]
            ),
        )

    def __getitem__(self, region: Region) -> StackedSuffStats:
        k = self._at[region]
        return self.stats.select(slice(k * self.n_cells, (k + 1) * self.n_cells))

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)


def _canonical(signature: dict) -> str:
    return json.dumps(signature, sort_keys=True)


_COMPONENTS = ("ytwy", "xtwx", "xtwy", "n", "sum_w")
_STAMP = "__version__"


def _put(arrays: dict, prefix: str, stats: StackedSuffStats) -> None:
    for name in _COMPONENTS:
        arrays[f"{prefix}_{name}"] = getattr(stats, name)


class CubeTableStore:
    """Saves/loads a cube's suffstats tables in one directory.

    Layout v3: ``cube_tables.dat`` — the stacked component arrays as raw
    C-contiguous buffers back to back, ``L{i}_{component}`` per level and
    ``base_{component}`` for the base-cell table, behind an 8-byte store
    version stamp — + ``cube_tables_meta.json`` (format, store version,
    geometry signature, every member's offset, dtype and element count, each
    distinct region list once, and per level / for the base which list it
    is).  The metadata is written last and atomically — it is the commit
    point; a crash mid-save leaves the old statistics or none, never a torn
    set.  A load maps the data file once and copies out only the members it
    returns, so loading the level tables does not pay for the base.  A
    directory written in an older layout — the retired npz files (v1), or
    v2's statistics taken as three products instead of one Gram matrix — is
    refused with a :class:`~repro.storage.StorageError`; the next build
    replaces it.

    Thread safety: save/load serialize on an instance lock (the query
    service calls both from request threads), the data file is also written
    atomically, and the store version is embedded in it (``__version__``)
    and cross-checked against the metadata on load — a pair torn by a
    concurrent save raises :class:`~repro.storage.StorageError` instead of
    silently mixing versions.
    """

    _META = "cube_tables_meta.json"
    _DATA = "cube_tables.dat"
    _RETIRED_DATA = "cube_tables.npz"

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._io_lock = TrackedLock(CUBE_TABLES_IO, reentrant=True)

    @property
    def meta_path(self) -> Path:
        return self._dir / self._META

    @property
    def data_path(self) -> Path:
        return self._dir / self._DATA

    def save(
        self,
        tables: Sequence[LevelTable],
        signature: dict,
        version: int,
        base: Mapping[Region, StackedSuffStats] | None = None,
    ) -> None:
        """Persist the tables, keyed on geometry ``signature`` + ``version``.

        ``base`` is the base-cell table they were rolled up from: per
        region, one stack of ``signature["n_cells"]`` problems.
        """
        arrays: dict[str, np.ndarray] = {
            _STAMP: np.asarray([int(version)], dtype=np.int64)
        }
        p = int(signature.get("p", 0))
        # Each distinct region list is written once; a build's level tables
        # and its base all share one.
        region_lists: list[tuple[Region, ...]] = []

        def listed(regions) -> int:
            regions = tuple(regions)
            for k, known in enumerate(region_lists):
                if known is regions or known == regions:
                    return k
            region_lists.append(regions)
            return len(region_lists) - 1

        levels = []
        for i, t in enumerate(tables):
            if len(t.stats):
                p = t.stats.p
            _put(arrays, f"L{i}", t.stats)
            levels.append(
                {
                    "level": list(t.level),
                    "regions": listed(t.regions),
                    "keep_sidx": [int(s) for s in t.keep_sidx],
                }
            )
        if base:
            _put(
                arrays,
                "base",
                BaseCellTable.of(base, int(signature["n_cells"]), p).stats,
            )
        base_regions = None if base is None else listed(base)
        with self._io_lock:
            self._dir.mkdir(parents=True, exist_ok=True)
            data_bytes, columns = _write_raw(self.data_path, arrays)
            meta_payload = json.dumps(
                {
                    "format": _FORMAT,
                    "layout_version": _LAYOUT_VERSION,
                    "version": int(version),
                    "p": p,
                    "signature": signature,
                    "regions": [
                        [region_to_json(r) for r in regions]
                        for regions in region_lists
                    ],
                    "levels": levels,
                    "base_regions": base_regions,
                    "columns": columns,
                }
            ).encode()
            _atomic_write(self.meta_path, meta_payload)
            (self._dir / self._RETIRED_DATA).unlink(missing_ok=True)
            _BYTES_WRITTEN.inc(data_bytes + len(meta_payload))

    def load(
        self,
        signature: dict,
        expected_version: int,
    ) -> list[LevelTable]:
        """The persisted tables, verified against geometry and store version.

        Raises :class:`StaleCacheError` on a version or geometry mismatch
        and :class:`StorageError` when the files are missing or unreadable.
        """
        with self._io_lock:
            meta = self._read_meta(signature)
            if meta["version"] != expected_version:
                raise StaleCacheError(
                    f"cube tables are at store version {meta['version']}, "
                    f"store is at {expected_version}"
                )
            with self._data(meta) as read:
                return [
                    self._level_table(read, i, entry, meta)
                    for i, entry in enumerate(meta["levels"])
                ]

    def load_base(self, signature: dict) -> tuple[int, BaseCellTable]:
        """The base-cell table plus the store version it was saved at.

        Geometry is verified like :meth:`load` (:class:`StaleCacheError` on
        a mismatch), but any version is accepted — the caller patches an
        older table forward through the store's changelog.  Raises
        :class:`StorageError` when the files are missing or unreadable, or
        were saved without a base.
        """
        with self._io_lock:
            meta = self._read_meta(signature)
            if meta["base_regions"] is None:
                raise StorageError(f"no base-cell table at {self._dir}")
            n_cells = int(signature["n_cells"])
            with self._data(meta) as read:
                regions = meta["regions"][meta["base_regions"]]
                flat = (
                    read("base")
                    if regions
                    else StackedSuffStats.zeros(0, meta["p"])
                )
                if len(flat) != len(regions) * n_cells:
                    raise StorageError(
                        f"base-cell table has {len(flat)} problems, expected "
                        f"{len(regions) * n_cells} (p={meta['p']})"
                    )
                return meta["version"], BaseCellTable(regions, n_cells, flat)

    def _read_meta(self, signature: dict) -> dict:
        """The decoded metadata, verified against ``signature``."""
        if not self.meta_path.exists():
            raise StorageError(f"no cube tables at {self._dir}")
        try:
            payload = self.meta_path.read_bytes()
            raw = json.loads(payload)
            if raw.get("format") != _FORMAT:
                raise StorageError(
                    f"{self.meta_path} is not a {_FORMAT} file "
                    f"(format={raw.get('format')!r})"
                )
            layout = int(raw.get("layout_version", -1))
            if layout != _LAYOUT_VERSION:
                raise StorageError(
                    f"cube-table layout v{layout} unsupported "
                    f"(this build reads v{_LAYOUT_VERSION})"
                )
            meta = {
                "version": int(raw["version"]),
                "p": int(raw["p"]),
                "regions": [
                    tuple(region_from_json(key) for key in keys)
                    for keys in raw["regions"]
                ],
                "levels": list(raw["levels"]),
                "base_regions": raw.get("base_regions"),
                "columns": dict(raw["columns"]),
                "nbytes": len(payload),
            }
            saved_sig = raw["signature"]
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"corrupt cube-table metadata {self.meta_path}: {exc!r}"
            ) from exc
        if _canonical(saved_sig) != _canonical(signature):
            raise StaleCacheError(
                "cube tables were materialized for another lattice geometry; "
                "rebuild them for this builder"
            )
        return meta

    @contextmanager
    def _data(self, meta: dict):
        """``read(prefix)``: one stack copied out of the mapped data file,
        which is refused when torn from ``meta``.

        Anything that goes wrong decoding it inside the block surfaces as
        :class:`StorageError`; on a clean exit the byte counter moves by
        the metadata plus the windows that were copied out, and the
        mapping goes with the block.
        """
        copied = meta["nbytes"]
        p = meta["p"]

        def read(prefix: str) -> StackedSuffStats:
            nonlocal copied
            arrays = [np.array(windows[f"{prefix}_{name}"]) for name in _COMPONENTS]
            copied += sum(array.nbytes for array in arrays)
            ytwy, xtwx, xtwy, n, sum_w = arrays
            return StackedSuffStats(
                ytwy,
                xtwx.reshape(len(ytwy), p, p),
                xtwy.reshape(len(ytwy), p),
                n,
                sum_w,
            )

        try:
            windows = _raw_columns(self.data_path, 0, meta["columns"])
            data_version = int(windows[_STAMP][0])
            if data_version != meta["version"]:
                raise StorageError(
                    f"torn cube tables at {self._dir}: metadata says "
                    f"store version {meta['version']}, data file was "
                    f"written at {data_version}"
                )
            yield read
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"unreadable cube tables {self.data_path}: {exc!r}"
            ) from exc
        _BYTES_READ.inc(copied)

    @staticmethod
    def _level_table(read, i: int, entry: dict, meta: dict) -> LevelTable:
        regions = meta["regions"][entry["regions"]]
        keep_sidx = np.asarray(entry["keep_sidx"], dtype=np.int64)
        n_problems = len(regions) * len(keep_sidx)
        stats = read(f"L{i}")
        if len(stats) != n_problems:
            raise StorageError(
                f"cube table level {i} has {len(stats)} problems; "
                f"expected {n_problems} (p={meta['p']})"
            )
        return LevelTable(
            level=tuple(int(x) for x in entry["level"]),
            regions=regions,
            keep_sidx=keep_sidx,
            stats=stats,
        )
