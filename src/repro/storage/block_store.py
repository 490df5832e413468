"""Training-data stores: per-region training sets, in memory or on disk.

The *entire training data* (Section 5.2) is the collection of training sets
for all feasible regions.  Bellwether algorithms access it through one of two
patterns:

* ``read(region)`` — fetch one region's block (what the naive algorithms do
  per node/split/subset), and
* ``scan()`` — stream every region's block once (what the RF tree does per
  level and the cube algorithms do once).

Both stores count these accesses via :class:`~repro.storage.stats.IOStats`.
:class:`DiskStore` spills blocks to ``.npz`` files, giving the "every request
is a disk read" regime of Section 7.4.1 for the Figure 11(a) comparison.

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

import os
import pickle
import zipfile
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dimensions import Region
from repro.exceptions import ReproError
from repro.obs.trace import get_tracer

from .stats import IOStats

_TRACER = get_tracer()


class StorageError(ReproError):
    """A store was used inconsistently (unknown region, bad directory, ...)."""


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    A crash mid-write leaves either the old file or the new one, never a torn
    hybrid — the property both backends rely on for their manifests.
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

    def restrict_to(self, item_ids: np.ndarray) -> "RegionBlock":
        """The sub-block for a subset of items (S_r in the paper)."""
        mask = np.isin(self.item_ids, item_ids)
        return RegionBlock(
            self.item_ids[mask],
            self.x[mask],
            self.y[mask],
            None if self.weights is None else self.weights[mask],
        )


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
        """Shared apply path: mutate ``blocks`` in place, log, bump version.

        Returns the :class:`~repro.storage.delta.AppliedDelta` recorded.
        """
        from .delta import AppliedDelta, apply_block_delta

        removed: dict[Region, RegionBlock] = {}
        new_regions: list[Region] = []
        for region in delta.drop_regions:
            try:
                removed[region] = blocks.pop(region)
            except KeyError:
                raise StorageError(f"cannot drop unknown region {region}") from None
        for region, bd in delta.blocks.items():
            old = blocks.get(region)
            if old is None:
                new_regions.append(region)
            new, gone = apply_block_delta(old, bd, len(self.feature_names))
            blocks[region] = new
            if gone is not None and gone.n_examples:
                removed[region] = gone
        self.version += 1
        applied = AppliedDelta(
            version=self.version,
            delta=delta,
            removed=removed,
            new_regions=tuple(new_regions),
        )
        if not hasattr(self, "_changelog"):
            self._changelog = []
        self._changelog.append(applied)
        return applied

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
        self._apply_delta_to_blocks(delta, self._blocks)
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


class DiskStore(TrainingDataStore):
    """Region blocks spilled to ``.npz`` files under a directory.

    A pickle manifest maps regions to file names.  Every ``read``/``scan``
    genuinely hits the filesystem — nothing is cached — so I/O counts match
    physical behaviour.
    """

    _MANIFEST = "manifest.pkl"

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        manifest_path = self._dir / self._MANIFEST
        if not manifest_path.exists():
            raise StorageError(f"{self._dir} has no manifest; use DiskStore.create")
        try:
            with manifest_path.open("rb") as f:
                manifest = pickle.load(f)
            self._files: dict[Region, str] = manifest["files"]
            self.feature_names = tuple(manifest["feature_names"])
            # Manifests written before versioning count as version 0.
            self.version = int(manifest.get("version", 0))
            # Manifests written before row counts fall back to fetching
            # blocks in n_examples_total (None, not {}).
            self._rows: dict[Region, int] | None = manifest.get("rows")
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"corrupt manifest {manifest_path}: {exc!r}"
            ) from exc
        self.stats = IOStats()
        # The persisted version survives reopening, but the delta log does
        # not: deltas_since(anything older) must fail loudly.
        self._log_floor = self.version
        self._changelog: list = []

    @staticmethod
    def _write_block(path: Path, block: RegionBlock) -> None:
        arrays = {"item_ids": block.item_ids, "x": block.x, "y": block.y}
        if block.weights is not None:
            arrays["weights"] = block.weights
        # Through a file handle: a bare path would get ".npz" appended,
        # and writing the temp then os.replace keeps a crashed or racing
        # apply_delta from exposing a torn block to readers.
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)

    def _write_manifest(self) -> None:
        # Atomic: a crash between two block rewrites of apply_delta can leave
        # the old manifest or the new one, but never a torn pickle.
        _atomic_write(
            self._dir / self._MANIFEST,
            pickle.dumps(
                {
                    "files": self._files,
                    "feature_names": self.feature_names,
                    "version": self.version,
                    "rows": self._rows,
                }
            ),
        )

    @classmethod
    def create(
        cls,
        directory: str | Path,
        blocks: Mapping[Region, RegionBlock],
        feature_names: Sequence[str],
        backend: str = "npz",
    ) -> TrainingDataStore:
        """Write all blocks and the manifest, then open the store.

        ``backend="npz"`` (default) spills one ``.npz`` per region;
        ``backend="columnar"`` delegates to
        :class:`repro.storage.columnar.ColumnarStore` (same directory layout
        contract, different file format — see :func:`open_store`).
        """
        if backend == "columnar":
            from .columnar import ColumnarStore

            return ColumnarStore.create(directory, blocks, feature_names)
        if backend != "npz":
            raise StorageError(f"unknown storage backend {backend!r}")
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

    def apply_delta(self, delta) -> int:
        """Apply a delta, rewriting touched ``.npz`` blocks and the manifest.

        The bumped version is persisted in the manifest, so a cache written
        against an older version is detectably stale after reopening.
        """
        touched: dict[Region, RegionBlock] = {}
        for region in tuple(delta.blocks) + tuple(delta.drop_regions):
            if region in self._files:
                touched[region] = self._fetch(region)
        self._apply_delta_to_blocks(delta, touched)
        for region in delta.drop_regions:
            (self._dir / self._files.pop(region)).unlink(missing_ok=True)
            if self._rows is not None:
                self._rows.pop(region, None)
        next_idx = 1 + max(
            (int(name[len("region_"):-len(".npz")]) for name in self._files.values()),
            default=-1,
        )
        for region in delta.blocks:
            name = self._files.get(region)
            if name is None:
                name = f"region_{next_idx:06d}.npz"
                next_idx += 1
                self._files[region] = name
            self._write_block(self._dir / name, touched[region])
            if self._rows is not None:
                self._rows[region] = touched[region].n_examples
        self._write_manifest()
        return self.version

    @classmethod
    def from_memory(
        cls, directory: str | Path, store: MemoryStore, backend: str = "npz"
    ) -> TrainingDataStore:
        return cls.create(
            directory,
            {r: store._fetch(r) for r in store.regions()},
            store.feature_names,
            backend=backend,
        )

    def regions(self) -> list[Region]:
        return list(self._files)

    def _fetch(self, region: Region) -> RegionBlock:
        try:
            name = self._files[region]
        except KeyError:
            raise StorageError(f"unknown region {region}") from None
        # Truncated, corrupt, or missing block files must surface as
        # StorageError — never a raw OSError/BadZipFile, and never silently
        # wrong numbers.
        try:
            with np.load(self._dir / name) as data:
                weights = data["weights"] if "weights" in data.files else None
                return RegionBlock(data["item_ids"], data["x"], data["y"], weights)
        except StorageError:
            raise
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise StorageError(
                f"unreadable block {name} for region {region}: {exc!r}"
            ) from exc

    def read(self, region: Region) -> RegionBlock:
        block = self._fetch(region)
        self.stats.record_region_read(block.nbytes)
        return block

    @property
    def n_examples_total(self) -> int:
        if self._rows is not None:
            return sum(self._rows.values())
        # Pre-row-count manifest: the slow fallback is the only honest answer.
        return super().n_examples_total


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
        self._files: dict[Region, str] = {}
        self._rows: dict[Region, int] = {}
        self.store: DiskStore | None = None

    def add(self, region: Region, block: RegionBlock) -> None:
        if self.store is not None:
            raise StorageError("writer already finished")
        if region in self._files:
            raise StorageError(f"duplicate region {region}")
        if block.n_features != len(self.feature_names):
            raise StorageError(
                f"block has {block.n_features} features, "
                f"writer declares {len(self.feature_names)}"
            )
        name = f"region_{len(self._files):06d}.npz"
        DiskStore._write_block(self._dir / name, block)
        self._files[region] = name
        self._rows[region] = block.n_examples

    def finish(self) -> DiskStore:
        if self.store is None:
            _atomic_write(
                self._dir / DiskStore._MANIFEST,
                pickle.dumps(
                    {
                        "files": self._files,
                        "feature_names": self.feature_names,
                        "version": 0,
                        "rows": self._rows,
                    }
                ),
            )
            self.store = DiskStore(self._dir)
        return self.store

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()


def open_store(directory: str | Path) -> TrainingDataStore:
    """Open an on-disk store, sniffing which backend wrote it.

    A JSON manifest means :class:`repro.storage.columnar.ColumnarStore`; a
    pickle manifest means :class:`DiskStore`.
    """
    directory = Path(directory)
    from .columnar import ColumnarStore

    if (directory / ColumnarStore.MANIFEST).exists():
        return ColumnarStore(directory)
    if (directory / DiskStore._MANIFEST).exists():
        return DiskStore(directory)
    raise StorageError(f"{directory} holds no npz or columnar manifest")
