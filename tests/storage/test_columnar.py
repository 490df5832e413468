"""Tests for the on-disk store's raw column layout (``repro.storage.DiskStore``).

Covers byte-level round trips against the blocks the directory was written
from, the view contract (a block is read-only, C-contiguous views on one
mapping of its file, alive exactly as long as they are), streaming writers,
bounded-memory chunked scans with their dedicated counters, delta
application and its single commit point (the manifest), the retired npz
format and layout v1 being refused, and the failure modes (a foreign codec,
corrupt manifests, torn manifest writes).
"""

import json
import mmap
import pickle
import weakref

import numpy as np
import pytest

from repro.dimensions import Region
from repro.exceptions import ConfigError
from repro.obs import get_registry
from repro.storage import (
    BlockDelta,
    DiskStore,
    MemoryStore,
    RegionBlock,
    StorageError,
    StoreDelta,
    open_store,
)


def _block(n: int, p: int = 3, seed: int = 0, weighted: bool = False) -> RegionBlock:
    rng = np.random.default_rng(seed)
    return RegionBlock(
        item_ids=np.arange(1, n + 1),
        x=rng.normal(size=(n, p)),
        y=rng.normal(size=n),
        weights=rng.uniform(0.5, 2.0, size=n) if weighted else None,
    )


@pytest.fixture()
def blocks():
    return {
        Region(("a",)): _block(7, seed=1),
        Region(("b",)): _block(5, seed=2, weighted=True),
        Region(("c",)): _block(3, seed=3),
    }


@pytest.fixture()
def columnar(blocks, tmp_path):
    return DiskStore.create(tmp_path / "col", blocks, ("f0", "f1", "f2"))


class TestRoundTrip:
    def test_bit_for_bit_vs_source_blocks(self, columnar, blocks):
        for region, src in blocks.items():
            got = columnar.read(region)
            assert np.array_equal(got.item_ids, src.item_ids)
            assert np.array_equal(got.x, src.x)
            assert np.array_equal(got.y, src.y)
            if src.weights is None:
                assert got.weights is None
            else:
                assert np.array_equal(got.weights, src.weights)

    def test_reopen_preserves_everything(self, columnar, blocks, tmp_path):
        reopened = DiskStore(tmp_path / "col")
        assert reopened.feature_names == columnar.feature_names
        assert reopened.version == 0
        for region, src in blocks.items():
            assert np.array_equal(reopened.read(region).x, src.x)

    def test_unknown_region(self, columnar):
        with pytest.raises(StorageError):
            columnar.read(Region(("ghost",)))

    def test_n_examples_total_without_block_reads(self, columnar):
        before = columnar.stats.region_reads
        assert columnar.n_examples_total == 7 + 5 + 3
        assert columnar.stats.region_reads == before


class TestWriter:
    def test_streaming_writer(self, blocks, tmp_path):
        with DiskStore.writer(tmp_path / "w", ("f0", "f1", "f2")) as w:
            for region, block in blocks.items():
                w.add(region, block)
        assert w.store.n_examples_total == 15

    def test_duplicate_region_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="duplicate"):
            with DiskStore.writer(tmp_path / "w", ("f0",)) as w:
                w.add(Region(("a",)), _block(3, p=1))
                w.add(Region(("a",)), _block(3, p=1))

    def test_feature_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            with DiskStore.writer(tmp_path / "w", ("f0", "f1")) as w:
                w.add(Region(("a",)), _block(3, p=3))

    def test_aborted_writer_leaves_no_manifest(self, tmp_path):
        try:
            with DiskStore.writer(tmp_path / "w", ("f0",)) as w:
                w.add(Region(("a",)), _block(3, p=1))
                raise RuntimeError("simulated crash")
        except RuntimeError:
            pass
        assert not (tmp_path / "w" / DiskStore.MANIFEST).exists()

    def test_unknown_codec_rejected(self, tmp_path):
        """Raw column files are the one encoding; a manifest that names
        another (outside input) is refused, not misread."""
        with DiskStore.writer(tmp_path / "w", ("f0",)) as w:
            w.add(Region(("a",)), _block(3, p=1))
        manifest_path = tmp_path / "w" / DiskStore.MANIFEST
        manifest = json.loads(manifest_path.read_text())
        assert manifest["codec"] == "raw"
        manifest["codec"] = "parquet"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unknown codec 'parquet'"):
            DiskStore(tmp_path / "w")


class TestChunkedScan:
    def test_chunks_are_bounded_and_complete(self, columnar, blocks):
        seen: dict[Region, list[RegionBlock]] = {}
        for region, chunk in columnar.scan_chunks(chunk_rows=3):
            assert chunk.n_examples <= 3
            seen.setdefault(region, []).append(chunk)
        for region, src in blocks.items():
            x = np.concatenate([c.x for c in seen[region]])
            y = np.concatenate([c.y for c in seen[region]])
            assert np.array_equal(x, src.x)
            assert np.array_equal(y, src.y)

    def test_scan_counters(self, columnar):
        registry = get_registry()
        before = registry.counter_values()
        scans0 = columnar.stats.full_scans
        reads0 = columnar.stats.region_reads
        chunks = sum(1 for __ in columnar.scan_chunks(chunk_rows=2))
        after = registry.counter_values()
        # ceil(7/2) + ceil(5/2) + ceil(3/2) chunks
        assert chunks == 4 + 3 + 2
        assert columnar.stats.full_scans == scans0 + 1
        assert columnar.stats.region_reads == reads0
        delta = after.get("store.columnar.chunks_read", 0) - before.get(
            "store.columnar.chunks_read", 0
        )
        assert delta == chunks

    def test_chunk_rows_validated(self, columnar):
        with pytest.raises(ConfigError):
            list(columnar.scan_chunks(chunk_rows=0))

    def test_plain_scan_still_works(self, columnar, blocks):
        scanned = dict(columnar.scan())
        assert set(scanned) == set(blocks)
        for region, src in blocks.items():
            assert np.array_equal(scanned[region].x, src.x)


class TestDeltas:
    def test_apply_delta_matches_memory_store(self, blocks, tmp_path):
        names = ("f0", "f1", "f2")
        col = DiskStore.create(tmp_path / "c", blocks, names)
        mem = MemoryStore(dict(blocks), names)
        appended = RegionBlock(
            item_ids=np.arange(101, 105),
            x=np.random.default_rng(9).normal(size=(4, 3)),
            y=np.random.default_rng(9).normal(size=4),
        )
        delta = StoreDelta(
            blocks={
                # append + retract in an existing region
                Region(("a",)): BlockDelta(
                    append=appended, retract_ids=np.array([2, 4])
                ),
                # a brand-new region
                Region(("d",)): BlockDelta(append=_block(6, seed=10)),
            },
            drop_regions=(Region(("c",)),),
        )
        col.apply_delta(delta)
        mem.apply_delta(delta)
        assert col.version == mem.version == 1
        assert set(col.regions()) == set(mem.regions())
        for region in mem.regions():
            a, b = col.read(region), mem.read(region)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.item_ids, b.item_ids)

    def test_version_survives_reopen(self, blocks, tmp_path):
        col = DiskStore.create(tmp_path / "c", blocks, ("f0", "f1", "f2"))
        col.apply_delta(
            StoreDelta(blocks={Region(("z",)): BlockDelta(append=_block(2, seed=5))})
        )
        assert DiskStore(tmp_path / "c").version == 1

    def test_dropped_region_file_removed(self, blocks, tmp_path):
        col = DiskStore.create(tmp_path / "c", blocks, ("f0", "f1", "f2"))
        n_files_before = len(list((tmp_path / "c").glob("region_*")))
        col.apply_delta(StoreDelta(blocks={}, drop_regions=(Region(("b",)),)))
        assert len(list((tmp_path / "c").glob("region_*"))) == n_files_before - 1
        with pytest.raises(StorageError):
            col.read(Region(("b",)))


class TestOpenStore:
    def test_sniffs_columnar(self, columnar, tmp_path):
        reopened = open_store(tmp_path / "col")
        assert isinstance(reopened, DiskStore)
        assert reopened.regions() == columnar.regions()

    def test_retired_npz_directory_is_refused(self, tmp_path, monkeypatch):
        """A directory holding only the retired format's ``manifest.pkl`` is a
        ``StorageError`` that names it — and the pickle is never loaded."""
        (tmp_path / "manifest.pkl").write_bytes(
            pickle.dumps({"files": {}, "feature_names": ("f0",), "version": 0})
        )

        def never(*args, **kwargs):
            raise AssertionError("the retired manifest was unpickled")

        monkeypatch.setattr(pickle, "load", never)
        monkeypatch.setattr(pickle, "loads", never)
        for opener in (open_store, DiskStore):
            with pytest.raises(StorageError, match="npz block format is retired"):
                opener(tmp_path)

    def test_neither_backend_raises(self, tmp_path):
        with pytest.raises(StorageError, match="has no manifest"):
            open_store(tmp_path)


class TestBackendSwitch:
    """There is one on-disk layout and nothing left that selects another."""

    def test_create_dispatches_to_columnar(self, blocks, tmp_path):
        store = DiskStore.create(tmp_path / "s", blocks, ("f0", "f1", "f2"))
        assert type(store) is DiskStore
        manifest = json.loads((tmp_path / "s" / DiskStore.MANIFEST).read_text())
        assert manifest["format"] == "repro-columnar"
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "manifest.json",
            "region_000000.col",
            "region_000001.col",
            "region_000002.col",
        ]

    def test_create_rejects_unknown_backend(self, blocks, tmp_path):
        for backend in ("npz", "columnar", "tape"):
            with pytest.raises(TypeError, match="backend"):
                DiskStore.create(
                    tmp_path / "s", blocks, ("f0", "f1", "f2"), backend=backend
                )

    def test_from_memory_backend_switch(self, blocks, tmp_path):
        mem = MemoryStore(dict(blocks), ("f0", "f1", "f2"))
        with pytest.raises(TypeError, match="backend"):
            DiskStore.from_memory(tmp_path / "s", mem, backend="npz")
        store = DiskStore.from_memory(tmp_path / "s", mem)
        assert type(store) is DiskStore
        for region in mem.regions():
            _assert_same_bytes(store.read(region), mem.read(region))


class TestFaults:
    def test_corrupt_manifest(self, columnar, tmp_path):
        (tmp_path / "col" / DiskStore.MANIFEST).write_text("{not json")
        with pytest.raises(StorageError):
            DiskStore(tmp_path / "col")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            DiskStore(tmp_path / "nowhere")

    def test_wrong_format_tag(self, columnar, tmp_path):
        path = tmp_path / "col" / DiskStore.MANIFEST
        meta = json.loads(path.read_text())
        meta["format"] = "something-else"
        path.write_text(json.dumps(meta))
        with pytest.raises(StorageError):
            DiskStore(tmp_path / "col")

    def test_missing_column_file(self, columnar, tmp_path):
        region = columnar.regions()[0]
        (tmp_path / "col" / columnar._meta[region]["file"]).unlink()
        with pytest.raises(StorageError):
            columnar.read(region)

    def test_truncated_column_file(self, columnar, tmp_path):
        region = columnar.regions()[0]
        path = tmp_path / "col" / columnar._meta[region]["file"]
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(StorageError):
            columnar.read(region)


def _assert_same_bytes(a: RegionBlock, b: RegionBlock, views: bool = True) -> None:
    """dtype, shape, contiguity and every byte — not just equal values.

    With ``views`` (a block a ``DiskStore`` handed out), every array is also
    read-only: a window on the file's mapping (or, for a zero-row region,
    which has nothing to map, an empty array that is read-only all the same).
    """
    for name in ("item_ids", "x", "y", "weights"):
        got, want = getattr(a, name), getattr(b, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.flags.c_contiguous, name
        if views:
            assert not got.flags.writeable, name
        assert got.tobytes() == want.tobytes(), name


def _concat(chunks: list[RegionBlock]) -> RegionBlock:
    weights = (
        None
        if chunks[0].weights is None
        else np.concatenate([c.weights for c in chunks])
    )
    return RegionBlock(
        np.concatenate([c.item_ids for c in chunks]),
        np.concatenate([c.x for c in chunks]),
        np.concatenate([c.y for c in chunks]),
        weights,
    )


class TestOneMappingPerFile:
    """A read costs one mapping per region file, which lives exactly as long
    as the views on it."""

    @pytest.fixture()
    def mappings(self, monkeypatch):
        made: list[weakref.ref] = []
        real = mmap.mmap

        def counting(*args, **kwargs):
            mapping = real(*args, **kwargs)
            made.append(weakref.ref(mapping))
            return mapping

        monkeypatch.setattr(mmap, "mmap", counting)
        return made

    def test_scan_maps_each_non_empty_region_once(self, blocks, tmp_path, mappings):
        blocks[Region(("empty",))] = _block(0)
        store = DiskStore.create(tmp_path / "c", blocks, ("f0", "f1", "f2"))
        scanned = list(store.scan())
        assert len(scanned) == 4
        assert len(mappings) == 3  # the zero-row region has nothing to map
        # the blocks are views: every mapping lives while they do ...
        assert all(ref() is not None for ref in mappings)
        # ... and one array derived from one block keeps only its own alive
        kept = scanned[1][1].x[1:, ::2]
        del scanned
        assert [ref() is not None for ref in mappings] == [False, True, False]
        del kept
        assert all(ref() is None for ref in mappings)

    def test_read_and_chunked_scan_map_once_per_region(self, columnar, mappings):
        block = columnar.read(columnar.regions()[0])
        assert len(mappings) == 1
        chunks = list(columnar.scan_chunks(chunk_rows=2))
        assert len(chunks) == 4 + 3 + 2
        assert len(mappings) == 1 + 3
        assert all(ref() is not None for ref in mappings)
        del block, chunks
        assert all(ref() is None for ref in mappings)

    def test_views_are_read_only(self, columnar):
        block = columnar.read(Region(("b",)))
        for name in ("item_ids", "x", "y", "weights"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(block, name)[0] = 0


class TestBytesMatchNpz:
    """read / scan / scan_chunks return the arrays of the ``MemoryStore`` the
    directory was spilled from, byte for byte (the reference was an npz twin
    until that format was retired)."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("string_ids", [False, True])
    def test_every_read_path(self, tmp_path, weighted, string_ids):
        names = ("f0", "f1", "f2")
        blocks = {}
        for k, n in enumerate((23, 0, 7, 16)):
            b = _block(n, seed=k, weighted=weighted)
            ids = (
                np.array([f"item{i:02d}" for i in range(n)], dtype="<U6")
                if string_ids
                else b.item_ids
            )
            blocks[Region((f"r{k}",))] = RegionBlock(ids, b.x, b.y, b.weights)
        mem = MemoryStore(blocks, names)
        col = DiskStore.from_memory(tmp_path / "c", mem)
        chunked: dict[Region, list[RegionBlock]] = {}
        for region, chunk in col.scan_chunks(chunk_rows=7):
            chunked.setdefault(region, []).append(chunk)
        scanned = dict(col.scan())
        assert col.regions() == mem.regions()
        for region in mem.regions():
            want = mem.read(region)
            _assert_same_bytes(col.read(region), want)
            _assert_same_bytes(scanned[region], want)
            _assert_same_bytes(_concat(chunked[region]), want, views=False)
            for chunk in chunked[region]:
                for name in ("item_ids", "x", "y"):
                    array = getattr(chunk, name)
                    assert array.flags.c_contiguous and not array.flags.writeable


class TestUnreadableColumnFiles:
    """Every way a column file can be short is a StorageError on every path."""

    @staticmethod
    def _empty(store, path, meta):
        path.write_bytes(b"")

    @staticmethod
    def _cut_inside_last_column(store, path, meta):
        path.write_bytes(path.read_bytes()[:-4])

    @staticmethod
    def _offset_past_end(store, path, meta):
        last = list(meta["columns"])[-1]
        meta["columns"][last]["offset"] = path.stat().st_size + 64

    @pytest.mark.parametrize(
        "damage", ["_empty", "_cut_inside_last_column", "_offset_past_end"]
    )
    def test_read_scan_and_chunks_raise(self, columnar, tmp_path, damage):
        region = columnar.regions()[1]
        meta = columnar._meta[region]
        getattr(self, damage)(columnar, tmp_path / "col" / meta["file"], meta)
        with pytest.raises(StorageError):
            columnar.read(region)
        with pytest.raises(StorageError):
            list(columnar.scan())
        with pytest.raises(StorageError):
            list(columnar.scan_chunks(chunk_rows=2))


class TestNothingCached:
    def test_read_after_delta_returns_the_new_rows(self, columnar, blocks, tmp_path):
        region = Region(("a",))
        before = columnar.read(region)
        before_file = tmp_path / "col" / columnar._meta[region]["file"]
        appended = _block(4, seed=11)
        appended = RegionBlock(
            appended.item_ids + 100, appended.x, appended.y, appended.weights
        )
        columnar.apply_delta(
            StoreDelta(
                blocks={
                    region: BlockDelta(append=appended, retract_ids=np.array([1, 2]))
                }
            )
        )
        after = columnar.read(region)
        assert list(after.item_ids) == [3, 4, 5, 6, 7, 101, 102, 103, 104]
        assert np.array_equal(after.x[-4:], appended.x)
        # the delta unlinked the file the earlier block maps; the block keeps
        # the inode and reads the version it was fetched at
        assert not before_file.exists()
        assert list(before.item_ids) == [1, 2, 3, 4, 5, 6, 7]
        assert before.x.tobytes() == blocks[region].x.tobytes()


def _hand_written_v2(directory, src: RegionBlock) -> bytes:
    """A v2 store laid out by hand; returns the full region's file bytes."""
    columns = [("item_ids", src.item_ids), ("y", src.y), ("x", src.x)]
    if src.weights is not None:
        columns.append(("weights", src.weights))
    payload, col_meta = b"", {}
    for name, arr in columns:
        payload += bytes(-len(payload) % 8)  # every column starts 8-byte aligned
        col_meta[name] = {"offset": len(payload), "dtype": arr.dtype.str, "count": arr.size}
        payload += arr.tobytes()
    directory.mkdir()
    (directory / "region_000000.col").write_bytes(payload)
    (directory / "region_000001.col").write_bytes(b"")
    empty_meta = {
        name: {"offset": 0, "dtype": arr.dtype.str, "count": 0}
        for name, arr in columns[:3]
    }
    manifest = {
        "format": "repro-columnar",
        "layout_version": 2,
        "codec": "raw",
        "version": 3,
        "feature_names": ["f0", "f1", "f2"],
        "regions": [
            {"key": ["a", {"interval": [1, 4]}], "file": "region_000000.col",
             "rows": len(src.item_ids), "columns": col_meta},
            {"key": ["b", {"interval": [1, 4]}], "file": "region_000001.col",
             "rows": 0, "columns": empty_meta},
        ],
    }
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return payload


class TestLayoutV2:
    """A directory laid out by hand — ``item_ids | y | x (row-major) |
    weights``, each column 8-byte aligned, offsets and counts in the
    manifest — opens unchanged, and is what this build writes."""

    def test_hand_written_store_reads_equal(self, tmp_path):
        self._reads_equal_and_is_what_create_writes(
            tmp_path, _block(9, seed=4, weighted=True)
        )

    def test_narrow_ids_keep_the_next_column_aligned(self, tmp_path):
        """9 x 4-byte ids: ``y`` starts after 4 bytes of padding."""
        src = _block(9, seed=4, weighted=True)
        src = RegionBlock(src.item_ids.astype(np.int32), src.x, src.y, src.weights)
        self._reads_equal_and_is_what_create_writes(tmp_path, src)

    @staticmethod
    def _reads_equal_and_is_what_create_writes(tmp_path, src: RegionBlock) -> None:
        payload = _hand_written_v2(tmp_path / "v2", src)
        store = open_store(tmp_path / "v2")
        assert isinstance(store, DiskStore) and store.version == 3
        full, empty = store.regions()
        got = store.read(full)
        _assert_same_bytes(got, src)
        assert all(getattr(got, n).flags.aligned for n in ("item_ids", "x", "y", "weights"))
        got = store.read(empty)
        assert got.n_examples == 0 and got.x.shape == (0, 3) and got.weights is None
        assert not got.x.flags.writeable
        assert store.n_examples_total == 9
        # and what this build writes is the same bytes
        rewritten = DiskStore.create(tmp_path / "now", {full: src}, ("f0", "f1", "f2"))
        assert (tmp_path / "now" / "region_000000.col").read_bytes() == payload
        manifest = json.loads((tmp_path / "v2" / "manifest.json").read_text())
        assert rewritten._meta[full]["columns"] == manifest["regions"][0]["columns"]

    def test_layout_v1_is_refused(self, tmp_path):
        """One column per feature (``x0``, ``x1``, ...), as v1 wrote it, is no
        longer read: the directory is a StorageError that says how to write
        it again."""
        src = _block(5, seed=4)
        columns = [("item_ids", src.item_ids), ("y", src.y)]
        columns += [(f"x{j}", np.ascontiguousarray(src.x[:, j])) for j in range(3)]
        payload, col_meta = b"", {}
        for name, arr in columns:
            col_meta[name] = {"offset": len(payload), "dtype": arr.dtype.str}
            payload += arr.tobytes()
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "region_000000.col").write_bytes(payload)
        manifest = {
            "format": "repro-columnar",
            "layout_version": 1,
            "codec": "raw",
            "version": 0,
            "feature_names": ["f0", "f1", "f2"],
            "regions": [{"key": ["a", {"interval": [1, 4]}], "file": "region_000000.col",
                         "rows": 5, "columns": col_meta}],
        }
        (tmp_path / "v1" / "manifest.json").write_text(json.dumps(manifest))
        for opener in (open_store, DiskStore):
            with pytest.raises(StorageError, match="v1.*DiskStore.create / DiskStore.from_memory"):
                opener(tmp_path / "v1")


class TestAtomicManifests:
    """A torn manifest write must never corrupt the previous manifest."""

    def test_columnar_manifest_survives_failed_replace(
        self, blocks, tmp_path, monkeypatch
    ):
        col = DiskStore.create(tmp_path / "c", blocks, ("f0", "f1", "f2"))
        manifest = tmp_path / "c" / DiskStore.MANIFEST
        good = manifest.read_bytes()

        def torn_replace(src, dst):
            raise OSError("simulated crash between write and rename")

        import repro.storage.block_store as block_store_mod

        monkeypatch.setattr(block_store_mod.os, "replace", torn_replace)
        with pytest.raises(OSError):
            col.apply_delta(
                StoreDelta(
                    blocks={Region(("new",)): BlockDelta(append=_block(2, seed=7))}
                )
            )
        monkeypatch.undo()
        assert manifest.read_bytes() == good
        reopened = DiskStore(tmp_path / "c")
        assert reopened.version == 0
        assert set(reopened.regions()) == set(blocks)


def _reworked(n: int, first_id: int, seed: int) -> RegionBlock:
    b = _block(n, seed=seed)
    return RegionBlock(b.item_ids + (first_id - 1), b.x, b.y, b.weights)


_A, _B = Region(("a",)), Region(("b",))
_COMMIT_POINT_DELTAS = {
    "append": StoreDelta({_A: BlockDelta(append=_reworked(4, 101, seed=21))}),
    "retract": StoreDelta({_A: BlockDelta(retract_ids=np.array([2, 4, 7]))}),
    "retract-and-reappend": StoreDelta(
        {
            _A: BlockDelta(
                append=_reworked(3, 2, seed=22), retract_ids=np.array([2, 3, 4])
            )
        }
    ),
    "drop-region": StoreDelta({}, drop_regions=(_A,)),
}


class TestManifestIsTheCommitPoint:
    """A delta lands with the one atomic manifest write, or not at all.

    Touched regions are written under names the current manifest does not
    use, so dying before the manifest write leaves the old version over the
    old bytes — not the old row counts and offsets over new bytes.
    """

    @staticmethod
    def _assert_equals(store, mem):
        assert store.version == mem.version
        assert store.regions() == mem.regions()
        for region in mem.regions():
            _assert_same_bytes(store.read(region), mem.read(region))

    @pytest.mark.parametrize("kind", sorted(_COMMIT_POINT_DELTAS))
    def test_interrupted_delta_reopens_at_the_old_version(
        self, blocks, tmp_path, monkeypatch, kind
    ):
        import repro.storage.block_store as block_store_mod

        delta = _COMMIT_POINT_DELTAS[kind]
        directory = tmp_path / "s"
        mem = MemoryStore(dict(blocks), ("f0", "f1", "f2"))
        store = DiskStore.from_memory(directory, mem)

        def killed(path, payload):
            raise OSError("killed before the manifest landed")

        monkeypatch.setattr(block_store_mod, "_atomic_write", killed)
        with pytest.raises(OSError, match="killed"):
            store.apply_delta(delta)
        monkeypatch.undo()
        # a restart sees the pre-delta store, and so does the survivor
        self._assert_equals(open_store(directory), mem)
        self._assert_equals(store, mem)
        assert store.deltas_since(0) == []

        # the same delta, allowed to finish this time
        store = open_store(directory)
        store.apply_delta(delta)
        mem.apply_delta(delta)
        assert mem.version == 1
        self._assert_equals(store, mem)
        reopened = open_store(directory)
        self._assert_equals(reopened, mem)
        named = {m["file"] for m in reopened._meta.values()}
        assert {p.name for p in directory.iterdir()} == named | {DiskStore.MANIFEST}

    def test_unnamed_region_files_are_ignored_then_swept(self, columnar, tmp_path):
        """What an interrupted delta leaves behind is not part of the store."""
        directory = tmp_path / "col"
        (directory / "region_000007.col").write_bytes(b"half a region")
        (directory / "region_000008.col.tmp").write_bytes(b"")
        reopened = open_store(directory)
        assert reopened.regions() == columnar.regions()
        assert reopened.n_examples_total == 7 + 5 + 3
        reopened.apply_delta(_COMMIT_POINT_DELTAS["append"])
        assert sorted(p.name for p in directory.glob("region_*")) == sorted(
            m["file"] for m in reopened._meta.values()
        )
