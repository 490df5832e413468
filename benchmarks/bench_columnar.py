"""Columnar backend + materialized cube tables: warm builds must be cheap.

The fig11 out-of-core configuration, shrunk to bench scale: the entire
training data is written through both storage backends, the optimized cube
is built cold (one full fact scan), the per-level suffstats tables are
materialized once, and then the warm path — load tables + one batched solve
per level — is timed against the scratch npz build.  The warm path must
read **zero** fact rows and reproduce the scratch cube bit for bit; at the
full 10M-row fig11f scale the same path is journaled at >= 10x (see
EXPERIMENTS.md), here a conservative 3x gates regressions.
"""

import time

import numpy as np

from repro.core import BellwetherCubeBuilder
from repro.datasets import write_scalability
from repro.experiments import render_grid
from repro.incremental import build_cube_tables
from repro.obs import get_registry

from .conftest import publish


def _counter(name: str) -> int:
    return int(get_registry().counter_values().get(name, 0))


def test_bench_columnar_warm_tables_vs_scratch(benchmark, tmp_path):
    """Warm table build >= 3x faster than a scratch npz cube build."""
    times: dict[str, float] = {}
    cubes = {}
    builders = {}
    for backend in ("npz", "columnar"):
        ds = write_scalability(
            tmp_path / backend / "store",
            n_items=400,
            n_regions=48,
            seed=0,
            backend=backend,
        )
        builder = BellwetherCubeBuilder(
            ds.task, ds.store, ds.hierarchies, min_subset_size=50
        )
        builders[backend] = builder
        start = time.perf_counter()
        cubes[backend] = builder.build(method="optimized")
        times[f"scratch_{backend}_s"] = time.perf_counter() - start
        start = time.perf_counter()
        build_cube_tables(builder, tmp_path / backend / "tables")
        times[f"tables_{backend}_s"] = time.perf_counter() - start

    # warm path on the columnar backend: tables hit + batched replay
    builder = builders["columnar"]
    scans_before = _counter("store.full_scans")
    reads_before = _counter("store.region_reads")
    start = time.perf_counter()
    tables = build_cube_tables(builder, tmp_path / "columnar" / "tables")
    warm_cube = builder.build_from_tables(tables)
    times["warm_s"] = time.perf_counter() - start
    assert _counter("store.full_scans") == scans_before
    assert _counter("store.region_reads") == reads_before

    # bit-for-bit: warm == scratch, and both backends agree
    for backend in ("npz", "columnar"):
        scratch = cubes[backend]
        assert scratch.subsets == warm_cube.subsets
        for subset in scratch.subsets:
            a, b = scratch.entry(subset), warm_cube.entry(subset)
            assert a.region == b.region
            if a.error is not None:
                assert (a.error.rmse, a.error.sse, a.error.dof) == (
                    b.error.rmse, b.error.sse, b.error.dof
                )

    speedup = times["scratch_npz_s"] / times["warm_s"]
    publish(
        "columnar_warm_tables",
        render_grid(
            "Columnar backend — warm cube tables vs scratch builds (seconds)",
            ("scratch_npz_s", "scratch_columnar_s", "tables_columnar_s",
             "warm_s", "speedup_vs_npz"),
            [(times["scratch_npz_s"], times["scratch_columnar_s"],
              times["tables_columnar_s"], times["warm_s"], speedup)],
        ),
    )
    assert times["scratch_npz_s"] > 3 * times["warm_s"]

    def _one_warm_build():
        builder.build_from_tables(
            build_cube_tables(builder, tmp_path / "columnar" / "tables")
        )

    benchmark.pedantic(_one_warm_build, rounds=1, iterations=1)


def _block_scan_s(store, rows: int) -> float:
    """One whole-block full scan, timed (every row seen)."""
    start = time.perf_counter()
    assert sum(b.n_examples for __, b in store.scan()) == rows
    return time.perf_counter() - start


def test_bench_columnar_chunked_scan(benchmark, tmp_path):
    """Bounded-memory chunked scans cover every row, counted per chunk; a
    whole-block columnar scan (one mapping per region file, no archive to
    unzip) beats the npz backend's scan of the same data."""
    ds = write_scalability(
        tmp_path / "store", n_items=500, n_regions=64, seed=1,
        backend="columnar",
    )
    npz = write_scalability(
        tmp_path / "npz", n_items=500, n_regions=64, seed=1, backend="npz"
    )
    chunk_rows = 128
    chunks_before = _counter("store.columnar.chunks_read")

    def _scan_once() -> int:
        rows = 0
        for __, chunk in ds.store.scan_chunks(chunk_rows=chunk_rows):
            assert chunk.n_examples <= chunk_rows
            rows += chunk.n_examples
        return rows

    start = time.perf_counter()
    rows = _scan_once()
    chunked_s = time.perf_counter() - start
    assert rows == ds.n_examples_total
    chunks = _counter("store.columnar.chunks_read") - chunks_before
    assert chunks == 64 * int(np.ceil(500 / chunk_rows))

    block_s = _block_scan_s(ds.store, rows)
    npz_block_s = _block_scan_s(npz.store, rows)

    publish(
        "columnar_chunked_scan",
        render_grid(
            "Columnar backend — chunked vs whole-block full scan (seconds)",
            ("examples", "chunks", "chunked_s", "block_s", "npz_block_s"),
            [(rows, chunks, chunked_s, block_s, npz_block_s)],
        ),
    )
    assert block_s < npz_block_s
    benchmark.pedantic(_scan_once, rounds=1, iterations=1)
