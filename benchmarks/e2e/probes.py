"""Per-layer probes: the traced run's direct look at each layer.

A workload only exercises some layers, and from outside the program a span
can only wrap the calls the harness itself makes.  So after the window the
traced run calls every layer's public entry point a few times on two
standard fixtures — the streamed scalability store (batch side) and the
mail-order server (serve side) — and records a span per call with
``origin="probe"``.  A per-layer metric is the median of its spans; where
the workload's own traffic produced spans of the same name, those win
(see :meth:`Tracer.durations`).  Probes never feed an end-to-end metric.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTreeBuilder,
)
from repro.exec import ParallelConfig
from repro.incremental import build_cube_tables
from repro.ml.suffstats import LinearSuffStats, add_intercept
from repro.obs.catalog import INCR_CELLS_RESOLVED, STORE_FULL_SCANS
from repro.obs.metrics import get_registry
from repro.serve import ServerState
from repro.serve.state import record_request
from repro.storage import CubeTableStore, DiskStore, open_store

from . import inputs, spec
from .stats import median, percentile

REPS = 3          # heavy calls (a build, a restart, a delta)
LIGHT_REPS = 24   # millisecond calls (a warm query, a region read)


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# --------------------------------------------------------------- child side


def serve_fixture_probes(ds, mem, costs, state: ServerState, live_root: Path,
                         scratch: Path, seed: int) -> tuple[dict, dict]:
    """In-process timings on the live mail-order deployment and a twin.

    Runs inside the server child (it owns the data and the state); returns
    ``({span name: [seconds, ...]}, {metric name: value})``.
    """
    out: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = {}
    item_ids = sorted(int(i) for i in ds.task.item_ids)
    pool = inputs.subset_pool(seed + 1, item_ids)
    budgets = spec.SERVE_BUDGETS
    scratch.mkdir(parents=True)

    # serve.state / serve.app: the same answers without HTTP around them
    state.predict(items=pool[0], budget=budgets[-1])  # first touch is cold
    payload = state.bellwether(budget=budgets[-1])
    for k in range(LIGHT_REPS):
        budget = budgets[k % len(budgets)]
        out["serve.state.bellwether_warm"].append(
            _seconds(lambda: state.bellwether(budget=budget))
        )
        out["serve.state.predict_warm"].append(
            _seconds(lambda: state.predict(items=pool[0], budget=budgets[-1]))
        )
        out["serve.app.serialize"].append(
            _seconds(lambda: json.dumps(payload).encode())
        )

    store, builder = state.store, state.builder
    tables_dir = live_root / "tables"
    signature = builder.geometry_signature()

    def restart():
        ServerState(
            ds.task, store, ds.hierarchies, tables_dir=tables_dir, costs=costs,
            dataset_name="mailorder", min_subset_size=spec.SERVE_MIN_SUBSET_SIZE,
        )

    for rep in range(REPS):
        out["serve.state.warm_restart"].append(_seconds(restart))
        out["storage.cubetables.load"].append(
            _seconds(lambda: CubeTableStore(tables_dir).load(signature, store.version))
        )
        out["incremental.tables.adopt"].append(
            _seconds(lambda: build_cube_tables(builder, tables_dir))
        )
        tables = build_cube_tables(builder, tables_dir)
        search = BasicBellwetherSearch(ds.task, store, costs=costs)
        out["core.basic.evaluate_from_tables"].append(
            _seconds(lambda: search.evaluate_from_tables(tables))
        )
        fresh = inputs.subset_pool(seed + 10 + rep, item_ids)[1]
        out["core.basic.cold_subset"].append(
            _seconds(lambda: search.evaluate_all(item_ids=fresh))
        )
    for region in store.regions()[:LIGHT_REPS]:
        out["storage.block_store.read_region"].append(
            _seconds(lambda: store.read(region))
        )

    # storage.delta / incremental.maintain: a twin store takes the deltas,
    # so the live deployment's version is not moved by a probe
    out["storage.block_store.spill"].append(
        _seconds(lambda: DiskStore.from_memory(scratch / "twin", mem))
    )
    twin = open_store(scratch / "twin")
    twin_builder = BellwetherCubeBuilder(
        ds.task, twin, ds.hierarchies, min_subset_size=spec.SERVE_MIN_SUBSET_SIZE
    )
    build_cube_tables(twin_builder, scratch / "twin_tables")
    cells = get_registry().counter(INCR_CELLS_RESOLVED)
    resolved = []
    for delta_spec in inputs.delta_specs(seed + 3, mem, REPS):
        delta = inputs.build_delta(mem, delta_spec)
        out["storage.delta.apply"].append(_seconds(lambda: twin.apply_delta(delta)))
        before = cells.value
        out["incremental.maintain.refresh_delta"].append(
            _seconds(lambda: build_cube_tables(twin_builder, scratch / "twin_tables"))
        )
        resolved.append(cells.value - before)
    counts["incremental.maintain.cells_resolved_per_delta"] = median(resolved)

    # aqp: exact queries journal the workload, one train call fits it
    try:
        approx_state = ServerState(
            ds.task, twin, ds.hierarchies, tables_dir=scratch / "twin_tables",
            costs=costs, min_subset_size=spec.SERVE_MIN_SUBSET_SIZE,
            aqp_dir=scratch / "aqp",
        )
        for budget in budgets:
            approx_state.bellwether(budget=budget)
        approx_state.aqp_train()
        for k in range(LIGHT_REPS):
            budget = budgets[k % len(budgets)]
            start = time.perf_counter()
            answer = approx_state.bellwether(budget=budget, mode="approx")
            if answer["mode"] == "approx":
                out["aqp.engine.approx_bellwether"].append(time.perf_counter() - start)
    except (ImportError, TypeError) as exc:
        counts["aqp.reason"] = f"approximate tier unavailable: {exc!r}"
    if not out["aqp.engine.approx_bellwether"]:
        # NaN = not measured: a lower-is-better 0 would read as a gain
        counts["aqp.engine.approx_bellwether_ms"] = float("nan")
        counts.setdefault("aqp.reason", "every approx query fell back to exact")
        del out["aqp.engine.approx_bellwether"]
    return dict(out), counts


# ----------------------------------------------------------- generator side


def batch_fixture_probes(tracer, scratch) -> dict:
    """Storage / ml / core / incremental / exec entry points on the
    streamed scalability store."""
    from .batch import cube_builder, write_store

    def span(name):
        return tracer.span(name, origin="probe")

    directory = scratch.new("probe-scal")
    ds = write_store(directory)
    store = open_store(directory)
    builder = cube_builder(ds, store)
    scans = get_registry().counter(STORE_FULL_SCANS)
    for __ in range(REPS):
        with span("storage.block_store.scan"):
            for __block in store.scan():
                pass
        with span("core.cube.build_optimized"):
            builder.build()
        with span("incremental.tables.build_scratch"):
            tables = build_cube_tables(builder, scratch.new("probe-tables"))
        with span("storage.cubetables.save"):
            CubeTableStore(scratch.new("probe-save")).save(
                tables, builder.geometry_signature(), store.version
            )
        with span("core.cube.build_from_tables"):
            builder.build_from_tables(tables)
        with span("core.basic.evaluate_all"):
            BasicBellwetherSearch(ds.task, store).evaluate_all()
        with span("exec.parallel.evaluate_all_2w"):
            BasicBellwetherSearch(ds.task, store).evaluate_all(
                parallel=ParallelConfig(workers=2)
            )
        before = scans.value
        with span("core.tree.build_rf"):
            tree = BellwetherTreeBuilder(ds.task, store, **spec.BATCH_TREE).build()
        tree_scans = scans.value - before
    for region in store.regions()[:LIGHT_REPS]:
        block = store.read(region)
        with span("ml.suffstats.from_block"):
            LinearSuffStats.from_data(add_intercept(block.x), block.y)
    finest = max(tables, key=lambda t: len(t.stats))
    root = min(tables, key=lambda t: len(t.stats))
    target = np.arange(len(finest.stats)) // finest.n_subsets
    solvable = root.stats.select(np.flatnonzero(root.stats.n > root.stats.p))
    for __ in range(LIGHT_REPS):
        with span("ml.suffstats.rollup"):
            finest.stats.rollup(target, finest.n_regions)
        with span("ml.linear.batched_solve"):
            solvable.sse()
    n_calls = 2_000
    per_call = _seconds(
        lambda: [record_request("bellwether", 0.001, False) for __ in range(n_calls)]
    ) / n_calls
    on_disk = sum(f.stat().st_size for f in Path(directory).rglob("*") if f.is_file())
    return {
        "storage.bytes_on_disk_per_row": on_disk / store.n_examples_total,
        "core.tree.scans_per_level": tree_scans / tree.n_levels,
        "obs.metrics.record_request_us": per_call * 1e6,
    }


def http_probes(tracer, server, port: int, scratch, seed: int) -> dict:
    """What a caller of the live server sees, plus the child's own probes."""
    from .server import HttpClient

    budgets = spec.SERVE_BUDGETS
    sizes: list[int] = []

    def bellwether(client, name, payload):
        with tracer.span(name, origin="probe") as sp:
            reply = client.request("POST", "/bellwether", payload)
        tracer.phase(sp, "serve.app.ttfb", reply.t_sent, reply.t_headers)
        tracer.phase(sp, "serve.app.body_wait", reply.t_headers, reply.t_end)
        if reply.status != 200:
            raise RuntimeError(f"probe {name}: HTTP {reply.status} {reply.body}")
        sizes.append(reply.n_bytes)
        return reply

    keepalive = HttpClient(port)
    fresh = HttpClient(port, fresh=True)
    try:
        model = keepalive.request("GET", "/model").body
        item_ids_pool = inputs.subset_pool(seed + 4, sorted(model["item_ids"]))
        before = server.call("stats")["metrics"]
        bellwether(keepalive, "bench.probe_warmup", {"budget": budgets[0]})
        for k in range(LIGHT_REPS):
            payload = {"budget": budgets[k % len(budgets)]}
            bellwether(keepalive, "serve.app.keepalive_bellwether", payload)
        after = server.call("stats")["metrics"]
        for k in range(LIGHT_REPS // 2):
            payload = {"budget": budgets[k % len(budgets)]}
            bellwether(fresh, "serve.app.fresh_conn_bellwether", payload)

        # warm-up sweep: what a restarted deployment pays before it is warm
        with tracer.span("serve.state.warmup_sweep", origin="probe"):
            for path in ("/model", "/regions", "/cube"):
                keepalive.request("GET", path)
            for budget in budgets:
                for items in item_ids_pool:
                    keepalive.request(
                        "POST", "/bellwether", {"budget": budget, "items": items}
                    )

        # a delta beside a reader: how long the RW lock holds readers off
        typical = tracer.median_of("serve.app.keepalive_bellwether")
        for delta_spec in server.call("probe_deltas", seed=seed + 5, n=REPS)["specs"]:
            done: dict = {}
            writer = threading.Thread(
                target=lambda: done.update(
                    server.call("apply_delta", delta_spec=delta_spec)
                )
            )
            writer.start()
            worst = 0.0
            while writer.is_alive():
                reply = keepalive.request("POST", "/bellwether", {"budget": budgets[0]})
                worst = max(worst, reply.t_end - reply.t_start)
            writer.join()
            tracer.add("serve.state.apply_delta", done["t_end"] - done["t_start"])
            tracer.add("serve.state.reader_stall", max(worst - typical, 0.0))
            bellwether(
                keepalive, "serve.state.post_delta_subset",
                {"budget": budgets[0], "items": item_ids_pool[0]},
            )
    finally:
        keepalive.close()
        fresh.close()

    reply = server.call("probe", directory=str(scratch.new("child-probes")), seed=seed)
    for name, values in reply["durations"].items():
        for value in values:
            tracer.add(name, value)
    counts = reply["counts"]
    reason = counts.pop("aqp.reason", None)
    if reason:
        print(f"  aqp.engine.approx_bellwether_ms not measured (NaN): {reason}")

    moved = {k: after[k] - before.get(k, 0.0) for k in after}
    counts.update(registry_counts(moved, LIGHT_REPS, sizes))
    return counts


def registry_counts(moved: dict, n_ops: int, reply_sizes: list[int]) -> dict:
    """Per-layer values read off the server's registry (as ``/metricsz`` shows
    it) over some stretch of traffic: ``moved`` holds the deltas."""
    hits = moved.get("serve.cache_hits", 0.0)
    misses = moved.get("serve.cache_misses", 0.0)
    endpoints = ("bellwether", "predict", "regions", "model", "cube")
    served = sum(moved.get(f"serve.latency.{e}.s.count", 0.0) for e in endpoints)
    busy = sum(moved.get(f"serve.latency.{e}.s.sum", 0.0) for e in endpoints)
    return {
        "storage.full_scans_per_op": moved.get("store.full_scans", 0.0) / n_ops,
        "ml.linear.problems_per_op": (
            moved.get("ml.linear.fits", 0.0)
            + moved.get("ml.linear.batched_problems", 0.0)
        ) / n_ops,
        "serve.state.warm_hit_share": hits / max(hits + misses, 1.0),
        "serve.app.server_side_ms": busy * 1e3 / max(served, 1.0),
        "serve.app.reply_bytes_p50": percentile(reply_sizes, 0.5),
        "serve.app.small_reply_share": sum(s < 65_536 for s in reply_sizes)
        / len(reply_sizes),
    }


def run_all(w, tracer) -> dict:
    """Every probe, on the workload's own fixtures where it has them."""
    from .server import ServerProc

    counts = batch_fixture_probes(tracer, w.scratch)
    server = getattr(w, "server", None)
    own = server is None
    if own:
        server = ServerProc()
    try:
        if own:
            counts["datasets.generate_s"] = server.call("generate")["generate_s"]
            reply = server.call(
                "setup", directory=str(w.scratch.new("probe-serve")), live=True
            )
            tracer.add("storage.block_store.spill", reply["spill_s"])
            tracer.add("serve.state.cold_start", reply["cold_start_s"])
            port = reply["port"]
        else:
            port = w.port
        counts.update(http_probes(tracer, server, port, w.scratch, w.seed))
    finally:
        if own:
            server.close()
    return counts
