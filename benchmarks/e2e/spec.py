"""What the benchmark measures: workloads, metric names, fixed parameters.

``BENCHMARK.json`` (repo root) is the contract the driver reads, and it
admits only ``name``/``why`` per workload and ``name``/``unit``/``better``
(+ ``bound``) per metric.  Everything else that must be *fixed* rather than
chosen at run time — loop kind, client count, sizes, latency limit, tail
percentile, and which end-to-end metric each layer metric should move —
lives here, next to the code that uses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The measured window is cut into this many equal slices; every end-to-end
#: number is a statistic over all of them, never over one.
SLICES = 8
#: What the calibration kernel (harness.calibrate) takes on the reference
#: machine: this VM in a calm spell.  Processor time is reported in units of
#: that machine, so a run taken while the host's neighbours are busy (the
#: kernel then takes up to 1.8 x as long) reads like one taken while calm.
REFERENCE_KERNEL_S = 3.5e-3
#: Data seeds are fixed: ``--seed`` reaches query plans, subsets and deltas
#: only, so two seeds measure the same program on the same data.
DATA_SEED = 0

#: Mail-order deployment served by the three ``serve_*`` workloads.
SERVE_ITEMS = 300
SERVE_MONTHS = 4
SERVE_MIN_SUBSET_SIZE = 5          # as fig13 / `python -m repro.serve`
SERVE_BUDGETS = (10.0, 20.0, 50.0, 90.0)   # all feasible: no 409 in a plan

#: Streamed scalability store built by every ``batch_build`` operation.
BATCH_ITEMS = 2_500                # the paper's Section 7.4 item count
BATCH_REGIONS = 49                 # x 2500 = 122.5 k rows, ~0.3 s per build
#: fig11's own construction parameters (repro.experiments.fig11_scalability).
BATCH_MIN_SUBSET_SIZE = 50
BATCH_TREE = {"min_items": 100, "max_depth": 3, "max_numeric_splits": 4}
BATCH_BUDGETS = (40.0, 80.0, 120.0, 160.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """Run-time constants of one workload (none is chosen while running)."""

    loop: str            # "closed" | "open"
    clients: int         # generator threads/connections issuing operations
    limit_ms: float      # an operation slower than this earns no throughput
    tail_q: float        # the fixed tail percentile behind op_tail_ms
    floor_samples: int   # fewest operations a 20 s window yields on this VM
    sizes: str


# tail_q is the highest of p75/p90/p95/p99 that leaves >= 10 samples beyond
# it at floor_samples: floor * (1 - q) >= 10.
WORKLOADS: dict[str, WorkloadSpec] = {
    "batch_build": WorkloadSpec(
        "closed", 1, 4_000.0, 0.75, 50,
        f"{BATCH_ITEMS} items x {BATCH_REGIONS} regions, streamed to disk",
    ),
    "serve_warm": WorkloadSpec(
        "closed", 2, 1_000.0, 0.95, 800,
        f"mailorder {SERVE_ITEMS} items x {SERVE_MONTHS} months, fig13 mix",
    ),
    "serve_delta_mix": WorkloadSpec(
        "closed", 1, 250.0, 0.95, 250,
        "one keep-alive reader beside a writer landing one delta per slice",
    ),
    "serve_cold_subsets": WorkloadSpec(
        "closed", 1, 5_000.0, 0.90, 100,
        "every request names a never-seen subset of N/4..N/2 items",
    ),
}

#: A delta retracts and re-appends this many items in this many regions.
DELTA_REGIONS = 4
DELTA_ITEMS = 10

#: Which end-to-end metric (at which workload) each per-layer metric should
#: move — written down before measuring, as the choosing-metrics guide asks.
LAYER_MOVES: dict[str, str] = {
    "storage.block_store.scan_s": "op_p50_ms@batch_build",
    "storage.cubetables.save_s": "op_p50_ms@batch_build",
    "storage.block_store.read_region_ms": "op_p50_ms@serve_cold_subsets",
    "storage.block_store.spill_s": "setup_s@serve_*",
    "storage.cubetables.load_ms": "setup_s@serve_*",
    "storage.delta.apply_ms": "op_tail_ms@serve_delta_mix",
    "storage.full_scans_per_op": "op_p50_ms@batch_build",
    "storage.bytes_on_disk_per_row": "setup_s@batch_build",
    "ml.suffstats.from_block_ms": "op_p50_ms@batch_build",
    "ml.suffstats.rollup_ms": "op_p50_ms@batch_build",
    "ml.linear.batched_solve_ms": "op_p50_ms@serve_cold_subsets",
    "ml.linear.problems_per_op": "op_p50_ms@batch_build",
    "core.cube.build_optimized_s": "op_p50_ms@batch_build",
    "core.cube.build_from_tables_ms": "op_p50_ms@batch_build",
    "core.basic.evaluate_all_s": "op_p50_ms@batch_build",
    "core.tree.build_rf_s": "op_p50_ms@batch_build",
    "core.basic.cold_subset_ms": "op_p50_ms@serve_cold_subsets",
    "core.basic.evaluate_from_tables_ms": "setup_s@serve_*",
    "core.tree.scans_per_level": "op_p50_ms@batch_build",
    "incremental.tables.build_scratch_s": "op_p50_ms@batch_build",
    "incremental.tables.adopt_ms": "setup_s@serve_*",
    "incremental.maintain.refresh_delta_ms": "op_tail_ms@serve_delta_mix",
    "incremental.maintain.cells_resolved_per_delta": "op_tail_ms@serve_delta_mix",
    "serve.state.cold_start_s": "setup_s@serve_*",
    "serve.state.warm_restart_ms": "setup_s@serve_*",
    "serve.state.warmup_sweep_s": "setup_s@serve_*",
    "serve.state.bellwether_warm_ms": "cpu_ms_per_op@serve_warm",
    "serve.state.predict_warm_ms": "cpu_ms_per_op@serve_warm",
    "serve.state.apply_delta_ms": "op_tail_ms@serve_delta_mix",
    "serve.state.reader_stall_ms": "throughput_ops@serve_delta_mix",
    "serve.state.post_delta_subset_ms": "op_tail_ms@serve_delta_mix",
    "serve.state.warm_hit_share": "op_p50_ms@serve_warm",
    "serve.app.keepalive_bellwether_ms": "op_p50_ms@serve_warm",
    "serve.app.fresh_conn_bellwether_ms": "op_p50_ms@serve_warm",
    "serve.app.ttfb_ms": "op_p50_ms@serve_warm",
    "serve.app.body_wait_ms": "op_p50_ms@serve_warm",
    "serve.app.server_side_ms": "cpu_ms_per_op@serve_warm",
    "serve.app.http_overhead_ms": "throughput_ops@serve_warm",
    "serve.app.serialize_ms": "cpu_ms_per_op@serve_warm",
    "serve.app.reply_bytes_p50": "op_p50_ms@serve_warm",
    "serve.app.small_reply_share": "op_p50_ms@serve_warm",
    "exec.parallel.evaluate_all_2w_s": "op_p50_ms@batch_build",
    "aqp.engine.approx_bellwether_ms": "op_p50_ms@serve_cold_subsets",
    "obs.metrics.record_request_us": "cpu_ms_per_op@serve_warm",
    "host.cpu_ms_per_op": "none (what the operations cost, beside how long they took)",
    "datasets.generate_s": "none (input generation, kept out of setup_s)",
    "bench.tracing_overhead_share": "none (harness)",
    "bench.calibration_ms": "none (machine drift)",
    "bench.generator_late_ms": "none (harness)",
    "bench.failed_share": "none (output checks)",
}


def declared(kind: str) -> dict[str, dict]:
    """``end_to_end`` / ``per_layer`` entries of BENCHMARK.json by name."""
    return {entry["name"]: entry for entry in BENCHMARK[kind]}


def workload_names() -> list[str]:
    return [w["name"] for w in BENCHMARK["workloads"]]


def metrics_payload(values: dict[str, float], trace: bool) -> dict:
    """The ``metrics`` object of a result, refusing undeclared names.

    Every declared name of the chosen kind must be present and nothing
    else may be: a metric the contract does not know never reaches stdout.
    """
    names = declared("per_layer" if trace else "end_to_end")
    unknown = sorted(set(values) - set(names))
    missing = sorted(set(names) - set(values))
    if unknown or missing:
        raise ValueError(
            f"metric names out of step with BENCHMARK.json: "
            f"undeclared={unknown} missing={missing}"
        )
    return {
        name: {"value": float(values[name]), "unit": names[name]["unit"]}
        for name in names
    }
