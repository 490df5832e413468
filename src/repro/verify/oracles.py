"""The oracle registry: equivalence classes of execution paths.

Each :class:`OracleClass` names one oracle path and the candidate paths
that must agree with it, runs all of them on a :class:`~repro.verify.Workload`,
and returns the observed :class:`~repro.verify.Mismatch` list.  Result
diffs use the per-class tolerance policy (bit-for-bit for suffstats
algebra, :data:`~repro.verify.APPROX` where float orderings differ) and
every class also checks its operation counters against the paper's bounds:

* ``cube-methods`` — Lemma 2: single-scan/optimized cubes read the data
  exactly once, naive pays ``n_regions × n_subsets`` region reads; the
  batched build issues at most one stacked solve per lattice level.
* ``tree-methods`` — Lemma 1: the RF tree reads the data once per level,
  RF-hybrid no more often; the naive tree refits every subproblem.
* ``exec-workers`` — the worker fan-out changes nothing; the scan stays in
  the parent process.
* ``search-refresh`` / ``cube-refresh`` — incremental refresh equals a
  from-scratch rebuild with zero full scans; the maintainer's cached
  suffstats stacks are additionally audited against a scratch recompute
  (the integer ``n`` component catches dropped retractions at any size).
* ``serve-endpoints`` — every live HTTP ``/bellwether`` and ``/predict``
  response equals the in-process search answer at the same store version,
  before and after a delta stream lands mid-flight.
* ``aqp-tolerance`` — every ``mode=approx`` answer from the learned tier
  is within its declared tolerance of the exact cube-table answer (same
  feasible set, ε-optimal winner, bit-equal predict artifacts), fallback
  paths are exact, and a mid-flight delta forces fallback-then-retrain
  with consistent version stamps.
* ``store-delta`` — an append-only delta stream reproduces a from-scratch
  generation bit for bit.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTreeBuilder,
    SearchError,
)
from repro.exec import ParallelConfig
from repro.incremental import window_end
from repro.obs import catalog, get_registry

from .diff import (
    APPROX,
    EXACT,
    Mismatch,
    Tolerance,
    diff_coefs,
    diff_cubes,
    diff_profiles,
    diff_stacks,
    diff_stores,
    diff_trees,
)
from .workload import Workload

__all__ = [
    "OP_COUNTERS",
    "OracleClass",
    "counters_snapshot",
    "error_tolerance",
    "get_class",
    "ops_delta",
    "registry",
    "scans_delta",
]

#: The operation counters the refresh-vs-scratch speedup gates sum over.
OP_COUNTERS = (
    catalog.STORE_FULL_SCANS,
    catalog.ML_LINEAR_BATCHED_PROBLEMS,
    catalog.ML_LINEAR_FITS,
)


def counters_snapshot() -> dict[str, float]:
    return get_registry().counter_values()


def ops_delta(before: dict) -> int:
    """Operations performed since ``before`` (a counters snapshot)."""
    values = counters_snapshot()
    return sum(int(values.get(k, 0) - before.get(k, 0)) for k in OP_COUNTERS)


def scans_delta(before: dict) -> int:
    values = counters_snapshot()
    return int(
        values.get(catalog.STORE_FULL_SCANS, 0)
        - before.get(catalog.STORE_FULL_SCANS, 0)
    )


def error_tolerance(store) -> Tolerance:
    """:data:`APPROX` with ``atol`` raised to the store's cancellation floor.

    A Theorem 1 rollup computes SSE as a difference of ``~sum(y**2)``-sized
    terms, while a refit sums small residuals directly, so on a near-perfect
    fit the two legitimately disagree by ``~eps * sum(y**2)``; the matching
    rmse noise is its square root.  A fixed tiny ``atol`` would flag that
    float cancellation as a conformance failure.
    """
    energy = sum(
        float(np.sum(np.square(block.y))) for __, block in store.scan()
    )
    sse_noise = 64.0 * np.finfo(float).eps * energy
    atol = max(APPROX.atol, sse_noise, float(np.sqrt(sse_noise)))
    return Tolerance(rtol=APPROX.rtol, atol=atol)


def _expect(path: str, expected, actual) -> list[Mismatch]:
    if expected != actual:
        return [Mismatch(path, str(expected), str(actual))]
    return []


@dataclass(frozen=True)
class OracleClass:
    """One equivalence class: an oracle path plus its candidates."""

    name: str
    description: str
    runner: Callable[[Workload], list[Mismatch]]

    def run(self, workload: Workload) -> list[Mismatch]:
        return self.runner(workload)


_REGISTRY: dict[str, OracleClass] = {}


def _oracle_class(name: str, description: str):
    def deco(fn):
        _REGISTRY[name] = OracleClass(name, description, fn)
        return fn

    return deco


def registry() -> dict[str, OracleClass]:
    return dict(_REGISTRY)


def get_class(name: str) -> OracleClass:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle class {name!r}; have {sorted(_REGISTRY)}"
        ) from None


# ------------------------------------------------------------- cube methods


@_oracle_class(
    "cube-methods",
    "naive / single_scan / optimized cube builds vs optimized_serial "
    "(Lemma 2 scan bounds, Theorem 1 rollup)",
)
def _cube_methods(w: Workload) -> list[Mismatch]:
    ds = w.dataset()
    store, __, __ = w.full_store()
    builder = BellwetherCubeBuilder(
        ds.task,
        store,
        ds.hierarchies,
        min_subset_size=w.min_subset_size,
        min_examples=w.min_examples,
    )
    oracle = builder.build("optimized_serial")
    refit_tol = error_tolerance(store)
    out: list[Mismatch] = []

    before = counters_snapshot()
    io0 = store.stats.snapshot()
    optimized = builder.build("optimized")
    io = store.stats - io0
    solves = int(
        counters_snapshot().get(catalog.ML_LINEAR_BATCHED_SOLVES, 0)
        - before.get(catalog.ML_LINEAR_BATCHED_SOLVES, 0)
    )
    out += diff_cubes(oracle, optimized, EXACT, label="optimized")
    out += _expect("optimized.full_scans", 1, io.full_scans)
    if solves > builder.n_levels:
        out.append(
            Mismatch(
                "optimized.batched_solves",
                f"<= {builder.n_levels}",
                str(solves),
            )
        )

    io0 = store.stats.snapshot()
    single = builder.build("single_scan")
    io = store.stats - io0
    out += diff_cubes(oracle, single, refit_tol, label="single_scan")
    out += _expect("single_scan.full_scans", 1, io.full_scans)

    io0 = store.stats.snapshot()
    naive = builder.build("naive")
    io = store.stats - io0
    out += diff_cubes(oracle, naive, refit_tol, label="naive")
    expected_reads = len(store.regions()) * len(builder.significant_subsets)
    out += _expect("naive.region_reads", expected_reads, io.region_reads)
    return out


# ------------------------------------------------------------- tree methods


@_oracle_class(
    "tree-methods",
    "naive tree (per-subproblem refit) and RF-hybrid tree vs RF tree "
    "(Lemma 1 scan bound)",
)
def _tree_methods(w: Workload) -> list[Mismatch]:
    ds = w.dataset()
    store, __, __ = w.full_store()
    builder = BellwetherTreeBuilder(
        ds.task,
        store,
        split_attrs=("category", "rdexpense"),
        min_items=max(2, w.n_items // 6),
        max_depth=2,
        max_numeric_splits=3,
        min_examples=w.min_examples,
    )
    # Half the root's rows: the root scans, smaller nodes keep their blocks.
    budget = len(ds.task.item_ids) * len(store.regions()) // 2
    paths = {
        "naive": lambda: builder.build("naive"),
        "hybrid": lambda: builder.build("hybrid", memory_budget_rows=budget),
    }
    io0 = store.stats.snapshot()
    try:
        rf = builder.build("rf")
    except SearchError:
        # Infeasible on this workload (e.g. a leaf with no feasible
        # region).  Every path must agree on that outcome too.
        out: list[Mismatch] = []
        for label, build in paths.items():
            try:
                build()
            except SearchError:
                continue
            out.append(
                Mismatch(f"{label}.outcome", "SearchError", "a tree")
            )
        return out
    rf_scans = (store.stats - io0).full_scans
    out = _expect("rf.full_scans", rf.n_levels, rf_scans)

    out += diff_trees(rf.root, paths["naive"]().root, label="naive")

    io0 = store.stats.snapshot()
    hybrid = paths["hybrid"]()
    scans = (store.stats - io0).full_scans
    out += diff_trees(rf.root, hybrid.root, label="hybrid")
    if scans > rf_scans:
        out.append(Mismatch("hybrid.full_scans", f"<= {rf_scans}", str(scans)))
    return out


# ------------------------------------------------------------- exec workers


@_oracle_class(
    "exec-workers",
    "worker fan-out vs serial evaluation (identical profile, one scan)",
)
def _exec_workers(w: Workload) -> list[Mismatch]:
    ds = w.dataset()
    store, costs, __ = w.full_store()
    io0 = store.stats.snapshot()
    serial = BasicBellwetherSearch(
        ds.task, store, costs=costs, min_examples=w.min_examples
    ).evaluate_all(parallel=ParallelConfig(workers=1))
    io = store.stats - io0
    out = _expect("serial.full_scans", 1, io.full_scans)

    io0 = store.stats.snapshot()
    fanned = BasicBellwetherSearch(
        ds.task, store, costs=costs, min_examples=w.min_examples
    ).evaluate_all(parallel=ParallelConfig(workers=w.workers))
    io = store.stats - io0
    out += _expect("parallel.full_scans", 1, io.full_scans)
    out += diff_profiles(serial, fanned, EXACT, label=f"workers={w.workers}")
    return out


# ----------------------------------------------------------- search refresh


@_oracle_class(
    "search-refresh",
    "BasicBellwetherSearch.refresh() after a delta stream vs a from-scratch "
    "search (profiles, winners, model coefficients, zero full scans)",
)
def _search_refresh(w: Workload) -> list[Mismatch]:
    ds, gen, regions, store = w.deployed()
    search = BasicBellwetherSearch(ds.task, store, min_examples=w.min_examples)
    search.evaluate_all()
    w.apply_stream(gen, regions, store)

    io0 = store.stats.snapshot()
    refreshed = search.refresh()
    io = store.stats - io0
    out = _expect("refresh.full_scans", 0, io.full_scans)

    scratch = BasicBellwetherSearch(ds.task, store, min_examples=w.min_examples)
    scratch_profile = scratch.evaluate_all()
    out += diff_profiles(scratch_profile, refreshed, EXACT, label="refresh")

    for budget in w.budgets:
        a, b = scratch.run(budget=budget), search.run(budget=budget)
        path = f"refresh.budget[{budget:g}]"
        if (a.bellwether is None) != (b.bellwether is None):
            out += _expect(f"{path}.found", a.found, b.found)
            continue
        if a.bellwether is None:
            continue
        if a.bellwether.region != b.bellwether.region:
            out += _expect(
                f"{path}.region", a.bellwether.region, b.bellwether.region
            )
            continue
        out += diff_coefs(
            scratch.fit_model(a.bellwether.region).coef,
            search.fit_model(b.bellwether.region).coef,
            EXACT,
            label=f"{path}.coef",
        )
    return out


# ------------------------------------------------------------- cube refresh


@_oracle_class(
    "cube-refresh",
    "IncrementalCubeMaintainer.refresh() after a delta stream vs a scratch "
    "optimized_serial build, plus a suffstats-stack audit",
)
def _cube_refresh(w: Workload) -> list[Mismatch]:
    ds, gen, regions, store = w.deployed()
    builder = BellwetherCubeBuilder(
        ds.task,
        store,
        ds.hierarchies,
        min_subset_size=w.min_subset_size,
        min_examples=w.min_examples,
    )
    maintainer = builder.incremental()
    maintainer.refresh()
    w.apply_stream(gen, regions, store)

    io0 = store.stats.snapshot()
    refreshed = maintainer.refresh()
    io = store.stats - io0
    out = _expect("exact.full_scans", 0, io.full_scans)

    scratch_builder = BellwetherCubeBuilder(
        ds.task,
        store,
        ds.hierarchies,
        min_subset_size=w.min_subset_size,
        min_examples=w.min_examples,
    )
    # refresh() shares rollup, solve and select with build("optimized"),
    # so it is judged against the per-pair reference, which shares none
    # (and which cube-methods proves bit-equal to the batched build).
    scratch = scratch_builder.build("optimized_serial")
    out += diff_cubes(scratch, refreshed, EXACT, label="exact.cube")
    out += diff_stacks(
        scratch_builder.scan_stacks(),
        maintainer.stacks,
        EXACT,
        label="exact.stacks",
    )
    return out


# ----------------------------------------------------------- serve endpoints


def _direct_predict(search, store, region, ids):
    """The in-process reference for a /predict response over ``region``.

    Mirrors the serving semantics exactly — model fit on the region's rows
    restricted to ``ids``, one representative row per item, training-set
    mean for items without rows, plain left-to-right accumulation — so a
    bit-level diff against the HTTP payload is meaningful.
    """
    model = search.fit_model(region, item_ids=ids)
    block = store.read(region)
    train = block.restrict_to(np.asarray(ids))
    train_mean = float(train.y.mean()) if train.n_examples else 0.0
    values = []
    total = 0.0
    for item in ids:
        hit = np.flatnonzero(block.item_ids == item)
        value = (
            float(model.predict(block.x[hit[0]])[0]) if hit.size else train_mean
        )
        total += value
        values.append(value)
    return model, values, float(total)


def _brief_mismatches(tag, brief: dict, explained: dict) -> list[Mismatch]:
    """A default /bellwether reply against the ``explain`` reply to the same
    question: equal once the explained one drops its ``feasible`` list
    (compared as JSON text, so a NaN equals itself)."""
    unlisted = {key: value for key, value in explained.items() if key != "feasible"}
    return _expect(f"{tag}.brief", json.dumps(unlisted), json.dumps(brief))


def _serve_round(w: Workload, ds, store, client, subsets, label) -> list[Mismatch]:
    """Diff one round of live HTTP answers against fresh in-process calls.

    The all-items reference profile is evaluated from scratch-built exact
    cube tables — the server's warm path answers from its own (persisted,
    patched-forward) tables, and the Theorem 1 rollup carries float
    cancellation a raw refit does not, so a raw-scan reference would flag
    that known noise instead of real serving bugs.  Tables patched forward
    across a delta stream add suffstats in a different order than a
    scratch rollup, so all-items rmse is compared under the store's
    cancellation tolerance; everything else — winners, feasible sets,
    versions, and the subset profiles and models — stays EXACT: the
    server evaluates a subset from the region rows it holds, the reference
    from a raw scan, and the two take the same statistics of the same rows.
    """
    from repro.serve import ServeHTTPError

    version = int(store.version)
    direct = _direct_reference(w, ds, store)
    out: list[Mismatch] = []
    for budget in w.budgets:
        for items in (None, *subsets):
            tag = (
                f"{label}.budget[{budget:g}]"
                + ("" if items is None else f".subset{len(items)}")
            )
            expected = direct.run(budget=budget, item_ids=items)
            try:
                brief = client.bellwether(budget=budget, items=items)
                got = client.bellwether(budget=budget, items=items, explain=True)
            except ServeHTTPError as exc:
                if expected.bellwether is not None:
                    out += _expect(
                        f"{tag}.outcome",
                        str(expected.bellwether.region),
                        f"HTTP {exc.status}",
                    )
                elif exc.status != 409:
                    out += _expect(f"{tag}.status", 409, exc.status)
                continue
            if expected.bellwether is None:
                out += _expect(
                    f"{tag}.outcome",
                    "HTTP 409",
                    got["bellwether"]["region_str"],
                )
                continue
            out += _brief_mismatches(tag, brief, got)
            out += _expect(f"{tag}.store_version", version, got["store_version"])
            win = got["bellwether"]
            if str(expected.bellwether.region) != win["region_str"]:
                out += _expect(
                    f"{tag}.region",
                    str(expected.bellwether.region),
                    win["region_str"],
                )
                continue
            # All-items errors are tables-rolled on both sides, but the
            # server patches its tables forward delta by delta while the
            # reference rolls up from scratch — same suffstats, different
            # addition order, so the SSE difference carries cancellation
            # noise.  Subset profiles are raw rows on both sides (held in
            # memory by the server, scanned by the reference): exact.
            rmse_tol = error_tolerance(store) if items is None else EXACT
            if not rmse_tol.close(
                float(expected.bellwether.rmse), float(win["rmse"])
            ):
                out += _expect(
                    f"{tag}.rmse", expected.bellwether.rmse, win["rmse"]
                )
            out += _expect(
                f"{tag}.n_feasible", len(expected.feasible), got["n_feasible"]
            )
            out += _expect(
                f"{tag}.feasible",
                [str(r.region) for r in expected.feasible],
                [e["region_str"] for e in got["feasible"]],
            )
            if items is None:
                continue
            # /predict, budget-resolved region: must pick the same region
            # and reproduce the direct model + per-item values bit for bit.
            try:
                pred = client.predict(items=items, budget=budget)
            except ServeHTTPError as exc:
                out += _expect(f"{tag}.predict.outcome", "200", exc.status)
                continue
            out += _expect(
                f"{tag}.predict.region",
                str(expected.bellwether.region),
                pred["region_str"],
            )
            out += _expect(
                f"{tag}.predict.store_version", version, pred["store_version"]
            )
            model, values, total = _direct_predict(
                direct, store, expected.bellwether.region, items
            )
            out += diff_coefs(
                model.coef, pred["coef"], EXACT, label=f"{tag}.predict.coef"
            )
            got_values = [float(p["value"]) for p in pred["predictions"]]
            if values != got_values:
                out += _expect(f"{tag}.predict.values", values, got_values)
            if total != float(pred["aggregate"]):
                out += _expect(f"{tag}.predict.aggregate", total, pred["aggregate"])
            # Explicit-region path: echoing the returned key back must
            # reproduce the budget-resolved answer identically.
            echoed = client.predict(items=items, region=pred["region"])
            for field in ("region_str", "coef", "predictions", "aggregate"):
                if echoed[field] != pred[field]:
                    out += _expect(
                        f"{tag}.predict.echo.{field}", pred[field], echoed[field]
                    )
    return out


@_oracle_class(
    "serve-endpoints",
    "live HTTP /bellwether and /predict responses vs in-process search "
    "answers at the same store version, across a mid-flight delta stream",
)
def _serve_endpoints(w: Workload) -> list[Mismatch]:
    import tempfile
    from pathlib import Path

    from repro.serve import ServeClient, ServerState, serve_in_thread

    ds, gen, regions, store = w.deployed()
    rng = np.random.default_rng([w.seed, 977])
    ids = sorted(int(i) for i in ds.task.item_ids)
    # Half the items, and a fifth: small enough that some regions fall
    # under min_examples and must be skipped on both sides.
    sizes = sorted(
        {min(len(ids), max(3, len(ids) // k)) for k in (2, 5)}, reverse=True
    )
    subsets = [
        sorted(int(ids[i]) for i in rng.choice(len(ids), size=size, replace=False))
        for size in sizes
    ]
    out: list[Mismatch] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-oracle-") as tmp:
        state = ServerState(
            ds.task,
            store,
            ds.hierarchies,
            tables_dir=Path(tmp) / "tables",
            min_subset_size=w.min_subset_size,
            min_examples=w.min_examples,
        )
        with serve_in_thread(state) as handle:
            with ServeClient(handle.host, handle.port) as client:
                out += _serve_round(w, ds, store, client, subsets, label="base")
                # The stream mutates the server's own store mid-flight; the
                # next queries must adopt the new version, never mix two.
                w.apply_stream(gen, regions, store)
                out += _serve_round(w, ds, store, client, subsets, label="stream")
    return out


# ------------------------------------------------------------ aqp tolerance


def _direct_reference(w: Workload, ds, store) -> BasicBellwetherSearch:
    """The exact in-process reference at the store's current version.

    The all-items profile comes from scratch-built cube tables (bit-for-bit
    what the server rolls from its own tables), subsets from the raw path.
    """
    direct = BasicBellwetherSearch(ds.task, store, min_examples=w.min_examples)
    scratch_builder = BellwetherCubeBuilder(
        ds.task,
        store,
        ds.hierarchies,
        min_subset_size=w.min_subset_size,
        min_examples=w.min_examples,
    )
    direct.evaluate_from_tables(
        scratch_builder.level_tables(scratch_builder.scan_stacks())
    )
    return direct


def _aqp_approx_round(
    w: Workload, ds, store, client, subset, exact_predicts, label
) -> list[Mismatch]:
    """Replay the journaled workload with ``mode=approx`` and verify it.

    For every (budget, items) pair: the response must actually be approx
    at the current store version, its feasible set must equal the exact
    path's, the winner's predicted rmse must be within the declared
    tolerance of that region's exact rmse, the winner must be ε-optimal
    (its exact rmse at most 2·tolerance above the exact winner's), and
    artifact ``/predict`` answers must be bit-equal to the exact phase-1
    responses.
    """
    from repro.serve import ServeHTTPError

    version = int(store.version)
    direct = _direct_reference(w, ds, store)
    out: list[Mismatch] = []
    for budget in w.budgets:
        for items in (None, subset):
            tag = (
                f"{label}.budget[{budget:g}]"
                + ("" if items is None else f".subset{len(items)}")
            )
            expected = direct.run(budget=budget, item_ids=items)
            try:
                brief = client.bellwether(
                    budget=budget, items=items, mode="approx"
                )
                got = client.bellwether(
                    budget=budget, items=items, mode="approx", explain=True
                )
            except ServeHTTPError as exc:
                # Infeasibility is exact knowledge in the approx tier too.
                if expected.bellwether is not None:
                    out += _expect(
                        f"{tag}.outcome",
                        str(expected.bellwether.region),
                        f"HTTP {exc.status}",
                    )
                elif exc.status != 409:
                    out += _expect(f"{tag}.status", 409, exc.status)
                continue
            if expected.bellwether is None:
                out += _expect(
                    f"{tag}.outcome",
                    "HTTP 409",
                    got["bellwether"]["region_str"],
                )
                continue
            out += _expect(f"{tag}.mode", "approx", got.get("mode"))
            out += _expect(
                f"{tag}.store_version", version, got["store_version"]
            )
            if got.get("model_version") is None:
                out += _expect(f"{tag}.model_version", "an int", None)
            out += _brief_mismatches(tag, brief, got)
            out += _expect(
                f"{tag}.n_feasible", len(expected.feasible), got["n_feasible"]
            )
            tolerance = float(got["tolerance"])
            by_region = {
                str(r.region): float(r.rmse)
                for r in direct.evaluate_all(item_ids=items)
            }
            # Exact feasible set, in exact order.
            out += _expect(
                f"{tag}.feasible",
                [str(r.region) for r in expected.feasible],
                [e["region_str"] for e in got["feasible"]],
            )
            win = got["bellwether"]
            exact_at_winner = by_region.get(win["region_str"])
            if exact_at_winner is None:
                out += _expect(
                    f"{tag}.winner", "an evaluated region", win["region_str"]
                )
                continue
            deviation = abs(float(win["rmse"]) - exact_at_winner)
            if deviation > tolerance:
                out += _expect(
                    f"{tag}.tolerance",
                    f"|approx-exact| <= {tolerance:g}",
                    f"{deviation:g}",
                )
            # ε-optimality: the approx winner's *exact* error is at most
            # 2·tolerance above the exact winner's.
            slack = exact_at_winner - float(expected.bellwether.rmse)
            if slack > 2.0 * tolerance:
                out += _expect(
                    f"{tag}.winner_slack",
                    f"<= {2.0 * tolerance:g}",
                    f"{slack:g}",
                )
            if items is None:
                continue
            exact_pred = exact_predicts.get(budget)
            if exact_pred is None:
                continue
            try:
                pred = client.predict(
                    items=items, budget=budget, mode="approx"
                )
            except ServeHTTPError as exc:
                out += _expect(f"{tag}.predict.outcome", "200", exc.status)
                continue
            out += _expect(f"{tag}.predict.mode", "approx", pred.get("mode"))
            # The artifact is the phase-1 exact payload, bit for bit.
            for field in (
                "store_version",
                "region_str",
                "coef",
                "predictions",
                "aggregate",
            ):
                if pred[field] != exact_pred[field]:
                    out += _expect(
                        f"{tag}.predict.{field}",
                        exact_pred[field],
                        pred[field],
                    )
    return out


@_oracle_class(
    "aqp-tolerance",
    "mode=approx answers within declared tolerance of the exact path "
    "(same feasible sets, ε-optimal winners, bit-equal predict artifacts), "
    "exact fallbacks, and fallback-then-retrain across a mid-flight delta",
)
def _aqp_tolerance(w: Workload) -> list[Mismatch]:
    import tempfile
    from pathlib import Path

    from repro.serve import ServeClient, ServeHTTPError, ServerState, serve_in_thread

    ds, gen, regions, store = w.deployed()
    rng = np.random.default_rng([w.seed, 1811])
    ids = sorted(int(i) for i in ds.task.item_ids)
    size = min(len(ids), max(3, len(ids) // 2))
    subset = sorted(
        int(ids[i]) for i in rng.choice(len(ids), size=size, replace=False)
    )
    novel_pool = [i for i in ids if i not in subset] or ids
    novel = sorted(novel_pool[: max(3, len(novel_pool) // 2)])
    out: list[Mismatch] = []
    with tempfile.TemporaryDirectory(prefix="repro-aqp-oracle-") as tmp:
        state = ServerState(
            ds.task,
            store,
            ds.hierarchies,
            tables_dir=Path(tmp) / "tables",
            min_subset_size=w.min_subset_size,
            min_examples=w.min_examples,
            aqp_dir=Path(tmp) / "aqp",
        )
        with serve_in_thread(state) as handle:
            with ServeClient(handle.host, handle.port) as client:
                # Phase 1 — exact workload, journaled by the server.
                exact_predicts: dict[float, dict] = {}
                for budget in w.budgets:
                    for items in (None, subset):
                        try:
                            client.bellwether(budget=budget, items=items)
                        except ServeHTTPError as exc:
                            if exc.status != 409:
                                raise
                    try:
                        exact_predicts[budget] = client.predict(
                            items=subset, budget=budget
                        )
                    except ServeHTTPError as exc:
                        if exc.status != 409:
                            raise
                # Train the surface on the journal.
                client.aqp_train()
                # Phase 2 — approx replay, verified against the reference.
                out += _aqp_approx_round(
                    w, ds, store, client, subset, exact_predicts, "approx"
                )
                # Phase 3 — a never-journaled subset must fall back, and the
                # fallback must be the exact answer.
                direct = _direct_reference(w, ds, store)
                expected = direct.run(budget=None, item_ids=novel)
                try:
                    got = client.bellwether(items=novel, mode="approx")
                except ServeHTTPError as exc:
                    if expected.bellwether is not None:
                        out += _expect(
                            "novel.outcome",
                            str(expected.bellwether.region),
                            f"HTTP {exc.status}",
                        )
                else:
                    if expected.bellwether is None:
                        out += _expect(
                            "novel.outcome",
                            "HTTP 409",
                            got["bellwether"]["region_str"],
                        )
                    else:
                        out += _expect("novel.mode", "exact", got.get("mode"))
                        out += _expect(
                            "novel.requested_mode",
                            "approx",
                            got.get("requested_mode"),
                        )
                        out += _expect(
                            "novel.region",
                            str(expected.bellwether.region),
                            got["bellwether"]["region_str"],
                        )
                        if expected.bellwether is not None and float(
                            expected.bellwether.rmse
                        ) != float(got["bellwether"]["rmse"]):
                            out += _expect(
                                "novel.rmse",
                                expected.bellwether.rmse,
                                got["bellwether"]["rmse"],
                            )
                # Phase 4 — the stream moves the store: the first approx
                # query falls back on version drift with the *new* exact
                # answer, the auto-retrain brings the tier back, and the
                # next approx query answers approx at the new version.
                w.apply_stream(gen, regions, store)
                new_version = int(store.version)
                drifted = _direct_reference(w, ds, store)
                budget = w.budgets[0]
                expected = drifted.run(budget=budget)
                try:
                    got = client.bellwether(budget=budget, mode="approx")
                except ServeHTTPError as exc:
                    if expected.bellwether is not None:
                        out += _expect(
                            "drift.outcome",
                            str(expected.bellwether.region),
                            f"HTTP {exc.status}",
                        )
                    expected = None
                else:
                    if expected.bellwether is None:
                        out += _expect(
                            "drift.outcome",
                            "HTTP 409",
                            got["bellwether"]["region_str"],
                        )
                        expected = None
                    else:
                        out += _expect("drift.mode", "exact", got.get("mode"))
                        out += _expect(
                            "drift.reason",
                            "version_drift",
                            got.get("fallback_reason"),
                        )
                        out += _expect(
                            "drift.store_version",
                            new_version,
                            got["store_version"],
                        )
                        out += _expect(
                            "drift.region",
                            str(expected.bellwether.region),
                            got["bellwether"]["region_str"],
                        )
                if expected is not None and expected.bellwether is not None:
                    # Retrained: the same query now answers approx at the
                    # new version with a fresh model stamp.
                    retried = client.bellwether(budget=budget, mode="approx")
                    out += _expect("retrain.mode", "approx", retried.get("mode"))
                    out += _expect(
                        "retrain.store_version",
                        new_version,
                        retried["store_version"],
                    )
                    if retried.get("model_version", 0) < 2:
                        out += _expect(
                            "retrain.model_version",
                            ">= 2",
                            retried.get("model_version"),
                        )
    return out


# -------------------------------------------------------------- store delta


@_oracle_class(
    "store-delta",
    "append-only delta stream vs from-scratch training-data generation "
    "(bit-identical blocks)",
)
def _store_delta(w: Workload) -> list[Mismatch]:
    __, gen, regions, store = w.deployed()
    w.apply_appends(gen, regions, store)
    fresh = gen.generate(
        regions=[r for r in regions if window_end(r) <= w.n_months]
    )
    return diff_stores(fresh, store, EXACT, label="append-stream")
