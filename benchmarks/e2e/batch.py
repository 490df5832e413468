"""``batch_build``: the paper's Figure 11 pipeline, closed loop, one worker.

One operation opens the streamed scalability store and builds everything
the paper builds from it: the cube tables from scratch (scan -> suffstats
-> rollup -> solve -> persist), the cube from those tables, the basic
search profile, and the RF tree.  ``storage``, ``ml``, ``core`` and
``incremental`` do all the work and ``serve`` does none, so a serve-layer
change predicts *no change* here.  Output checks are the paper's own
contracts: Lemma 2 (the cube costs one scan), Lemma 1 (the tree costs one
scan per level) and equality of the tables cube with the cold cube.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTreeBuilder,
)
from repro.datasets import write_scalability
from repro.incremental import build_cube_tables
from repro.obs.catalog import STORE_FULL_SCANS
from repro.obs.metrics import get_registry
from repro.storage import open_store
from repro.verify import diff_cubes

from . import inputs, spec
from .checks import Op
from .harness import Workload, process_stats


def write_store(directory: Path):
    """Stream the fixed-seed scalability instance to ``directory``."""
    return write_scalability(
        directory,
        n_items=spec.BATCH_ITEMS,
        n_regions=spec.BATCH_REGIONS,
        seed=spec.DATA_SEED,
    )


def cube_builder(ds, store) -> BellwetherCubeBuilder:
    return BellwetherCubeBuilder(
        ds.task, store, ds.hierarchies, min_subset_size=spec.BATCH_MIN_SUBSET_SIZE
    )


class BatchBuild(Workload):
    def prepare(self) -> float:
        self.budgets = inputs.batch_plan(self.seed, 2_000)
        self.digest = inputs.plan_digest(self.budgets)
        self.registry = get_registry()
        return 0.0

    def setup(self, live: bool) -> tuple[float, float]:
        """``write_scalability`` + open + builder, ready for the first build."""
        directory = self.scratch.new("scal")
        with self.tracer.span("bench.setup", origin="setup"):
            start, cpu = time.perf_counter(), time.process_time()
            ds = write_store(directory)
            store = open_store(directory)
            builder = cube_builder(ds, store)
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
        if live:
            self.ds, self.directory = ds, directory
            # The cold cube every operation's tables cube must equal
            # (computed once, outside the window).
            self.cold_cube = builder.build()
        else:
            shutil.rmtree(directory)
        return elapsed, cpu

    def snapshot(self) -> dict:
        return {"cpu_s": process_stats()["cpu_s"], **self.registry.counter_values()}

    def run_slice(self, index: int, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self._operation(len(self.ops), index)

    def _operation(self, k: int, slice_index: int) -> None:
        span = self.tracer.span
        tables_dir = self.scratch.new("tables")
        scans = self.registry.counter(STORE_FULL_SCANS)
        start = time.perf_counter()
        with span("bench.op", op=k):
            with span("storage.block_store.open"):
                store = open_store(self.directory)
            builder = cube_builder(self.ds, store)
            s0 = scans.value
            with span("incremental.tables.build_scratch"):
                tables = build_cube_tables(builder, tables_dir)
            s1 = scans.value
            if self.corruptor.take():
                s1 += 1  # misread on purpose: the Lemma 2 check below must trip
            with span("core.cube.build_from_tables"):
                cube = builder.build_from_tables(tables)
            search = BasicBellwetherSearch(self.ds.task, store)
            with span("core.basic.evaluate_all"):
                search.evaluate_all()
            result = search.run(budget=self.budgets[k % len(self.budgets)])
            s2 = scans.value
            with span("core.tree.build_rf"):
                tree = BellwetherTreeBuilder(
                    self.ds.task, store, **spec.BATCH_TREE
                ).build()
            s3 = scans.value
        end = time.perf_counter()
        op = Op(k, "build", start, end, slice_index)
        # what the harness adds between two builds: checks and clean-up
        op.late_s = start - self.ops[-1].t_end if self.ops else 0.0
        with span("bench.check", origin="bench", op=k):
            if s1 - s0 != 1:
                op.errors.append(f"Lemma 2: cube tables took {s1 - s0} scans, not 1")
            if s2 - s1 != 1:
                op.errors.append(f"basic search took {s2 - s1} scans, not 1")
            if s3 - s2 != tree.n_levels:
                op.errors.append(
                    f"Lemma 1: {s3 - s2} scans for a {tree.n_levels}-level tree"
                )
            mismatches = diff_cubes(self.cold_cube, cube)
            if mismatches:
                op.errors.append(f"tables cube != cold cube: {mismatches[0]}")
            if result.bellwether is None:
                op.errors.append("no bellwether under a feasible budget")
            self.tree_scans = (s3 - s2, tree.n_levels)
            shutil.rmtree(tables_dir)
        self.ops.append(op)

    def peak_rss_mb(self) -> float:
        return process_stats()["hwm_mb"]

    def verify(self, counters: dict) -> list[str]:
        return []

    def layer_counts(self, counters: dict) -> dict:
        n = len(self.ops)
        scans, levels = self.tree_scans
        return {
            "storage.full_scans_per_op": counters["store.full_scans"] / n,
            "ml.linear.problems_per_op": (
                counters["ml.linear.fits"] + counters["ml.linear.batched_problems"]
            ) / n,
            "core.tree.scans_per_level": scans / levels,
        }
