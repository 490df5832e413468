"""The on-disk store + materialized cube tables: warm builds must be cheap.

The fig11 out-of-core configuration, shrunk to bench scale: the entire
training data is streamed to a ``DiskStore``, the optimized cube is built
cold (one full fact scan), the per-level suffstats tables are materialized
once, and then the warm path — load tables + one batched solve per level —
is timed against that scratch build.  The warm path must read **zero** fact
rows and reproduce the scratch cube bit for bit; at the full 10M-row fig11f
scale the same path is journaled at >= 10x (see EXPERIMENTS.md), here a
conservative 3x gates regressions.
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
    """Warm table build >= 3x faster than a scratch cube build."""
    times: dict[str, float] = {}
    # The paper's 2,500-item table: the scratch build is ~6x the warm one
    # here, so the 3x gate has headroom (at 400 items it sat at 3.0-3.4x).
    ds = write_scalability(tmp_path / "store", n_items=2_500, n_regions=48, seed=0)
    builder = BellwetherCubeBuilder(
        ds.task, ds.store, ds.hierarchies, min_subset_size=50
    )
    start = time.perf_counter()
    scratch = builder.build(method="optimized")
    times["scratch_s"] = time.perf_counter() - start
    start = time.perf_counter()
    build_cube_tables(builder, tmp_path / "tables")
    times["tables_s"] = time.perf_counter() - start

    # warm path: tables hit + batched replay
    scans_before = _counter("store.full_scans")
    reads_before = _counter("store.region_reads")
    start = time.perf_counter()
    tables = build_cube_tables(builder, tmp_path / "tables")
    warm_cube = builder.build_from_tables(tables)
    times["warm_s"] = time.perf_counter() - start
    assert _counter("store.full_scans") == scans_before
    assert _counter("store.region_reads") == reads_before

    # bit-for-bit: warm == scratch
    assert scratch.subsets == warm_cube.subsets
    for subset in scratch.subsets:
        a, b = scratch.entry(subset), warm_cube.entry(subset)
        assert a.region == b.region
        if a.error is not None:
            assert (a.error.rmse, a.error.sse, a.error.dof) == (
                b.error.rmse, b.error.sse, b.error.dof
            )

    publish(
        "columnar_warm_tables",
        render_grid(
            "On-disk store — warm cube tables vs scratch build (seconds)",
            ("scratch_s", "tables_s", "warm_s", "speedup"),
            [(times["scratch_s"], times["tables_s"], times["warm_s"],
              times["scratch_s"] / times["warm_s"])],
        ),
    )
    assert times["scratch_s"] > 3 * times["warm_s"]

    def _one_warm_build():
        builder.build_from_tables(build_cube_tables(builder, tmp_path / "tables"))

    benchmark.pedantic(_one_warm_build, rounds=1, iterations=1)


def test_bench_columnar_chunked_scan(benchmark, tmp_path):
    """Bounded-memory chunked scans cover every row, counted per chunk."""
    ds = write_scalability(tmp_path / "store", n_items=500, n_regions=64, seed=1)
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

    start = time.perf_counter()
    assert sum(b.n_examples for __, b in ds.store.scan()) == rows
    block_s = time.perf_counter() - start

    publish(
        "columnar_chunked_scan",
        render_grid(
            "On-disk store — chunked vs whole-block full scan (seconds)",
            ("examples", "chunks", "chunked_s", "block_s"),
            [(rows, chunks, chunked_s, block_s)],
        ),
    )
    benchmark.pedantic(_scan_once, rounds=1, iterations=1)
