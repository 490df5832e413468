"""Figure 14 (approximate tier): learned answering vs the exact warm path.

The PR 9 approximate tier promises three things at once: warm
``mode=approx`` answers come from the learned surface alone (zero fact
scans), they are *faster* than the already-warm exact cube-table path,
and every one of them lands within its declared tolerance of the exact
answer.  This figure measures all three on one in-process
:class:`~repro.serve.ServerState` — no HTTP, so the latency split is the
answering paths themselves, not socket noise.

Protocol: an exact pass over the query plan journals the workload and
pays every cold evaluation; ``/aqp/train`` fits the surface; then each
query is re-asked ``repeats`` times in exact mode and ``repeats`` times
in approx mode, interleaved per query, with per-call latency sampled.
The approx pass runs under in-code gates — any fallback, any tolerance
violation, or any ``store.full_scans`` movement raises
:class:`~repro.exceptions.VerificationError` instead of journalling a
lie.  The journal record (``fig14.<backend>``) carries the AQP counter
deltas plus both p50s, so the PR 6 sentinel bands the speedup once
history accrues.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import build_store
from repro.datasets import make_mailorder
from repro.exceptions import ConfigError, VerificationError
from repro.ml import TrainingSetEstimator
from repro.obs.bench import BenchJournal
from repro.obs.catalog import (
    AQP_APPROX_ANSWERS,
    AQP_FALLBACKS,
    AQP_QUERIES,
    AQP_TRAINS,
    STORE_FULL_SCANS,
)
from repro.obs.metrics import get_registry
from repro.serve import InfeasibleQueryError, ServerState
from repro.storage import DiskStore

__all__ = ["Fig14Result", "run_fig14"]

_BACKENDS = ("memory", "disk")

#: Counter deltas attached to the journal record.  Under the seeded plan
#: every one of them is deterministic, so the sentinel gates them as exact
#: ops contracts — ``aqp.fallbacks`` drifting off zero in the measured
#: pass would trip the band even before the latency split degrades.
_OP_METRICS = (
    STORE_FULL_SCANS,
    AQP_QUERIES,
    AQP_APPROX_ANSWERS,
    AQP_FALLBACKS,
    AQP_TRAINS,
)


@dataclass
class Fig14Result:
    """One approximate-tier sweep: warm exact vs warm approx, per query."""

    backend: str
    repeats: int
    exact_p50_ms: float = 0.0
    approx_p50_ms: float = 0.0
    n_queries: int = 0
    n_violations: int = 0
    max_deviation: float = 0.0
    rows: list[dict] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.exact_p50_ms / self.approx_p50_ms if self.approx_p50_ms else 0.0

    def render(self) -> str:
        lines = [
            f"fig14: warm exact vs mode=approx on {self.backend}, "
            f"{self.n_queries} queries x {self.repeats} repeats  "
            f"(violations={self.n_violations})"
        ]
        for row in self.rows:
            lines.append(
                f"  budget={row['budget']:6.1f} items={row['items']:>6}: "
                f"exact p50={row['exact_p50_ms']:7.3f}ms  "
                f"approx p50={row['approx_p50_ms']:7.3f}ms  "
                f"dev={row['deviation']:.4f} <= tol={row['tolerance']:.4f}"
            )
        lines.append(
            f"  overall: exact p50={self.exact_p50_ms:.3f}ms  "
            f"approx p50={self.approx_p50_ms:.3f}ms  "
            f"speedup={self.speedup:.1f}x"
        )
        return "\n".join(lines)


def _counter_snapshot() -> dict[str, float]:
    values = get_registry().counter_values()
    return {name: values.get(name, 0.0) for name in _OP_METRICS}


def _timed(call, repeats: int) -> tuple[dict, list[float]]:
    """Run ``call`` ``repeats`` times; return (last payload, latencies in ms)."""
    samples = []
    payload: dict = {}
    for __ in range(repeats):
        start = time.perf_counter()
        payload = call()
        samples.append((time.perf_counter() - start) * 1e3)
    return payload, samples


def run_fig14(
    backend: str = "disk",
    repeats: int = 30,
    n_items: int = 50,
    n_months: int = 8,
    seed: int = 0,
    budgets: tuple[float, ...] = (20.0, 50.0, 90.0),
    min_subset_size: int = 5,
    journal_path: str | Path | None = "BENCH_figures.json",
) -> Fig14Result:
    """Measure the learned approximate tier against the warm exact path.

    One deployment, one surface: exact queries journal the workload, one
    train call fits it, then every (budget, subset) point is re-asked in
    both modes.  The measured approx pass is gated in code — fallbacks,
    tolerance violations, and fact scans all raise
    :class:`VerificationError` — so a journalled fig14 record certifies
    the zero-scan warm-approx contract, not just a timing.  Journals as
    ``fig14.<backend>`` (``journal_path=None`` to skip).
    """
    if backend not in _BACKENDS:
        raise ConfigError(
            f"unknown fig14 backend {backend!r}; use one of {_BACKENDS}"
        )
    journal = (
        BenchJournal(
            journal_path,
            context={"figure": "fig14", "seed": seed, "n_items": n_items},
        )
        if journal_path is not None
        else None
    )
    ds = make_mailorder(
        n_items=n_items,
        n_months=n_months,
        seed=seed,
        error_estimator=TrainingSetEstimator(),
    )
    all_ids = sorted(int(i) for i in ds.task.item_ids)
    subset = all_ids[:: max(1, len(all_ids) // 12)]
    plan = [(budget, items) for budget in budgets for items in (None, subset)]
    result = Fig14Result(backend=backend, repeats=repeats)
    memory_store, costs, __ = build_store(ds.task)
    with tempfile.TemporaryDirectory(prefix="repro-fig14-") as tmp:
        root = Path(tmp)
        store = (
            memory_store
            if backend == "memory"
            else DiskStore.from_memory(root / "store", memory_store)
        )
        state = ServerState(
            ds.task,
            store,
            ds.hierarchies,
            tables_dir=root / "tables",
            costs=costs,
            dataset_name="mailorder",
            min_subset_size=min_subset_size,
            aqp_dir=root / "aqp",
        )
        # Exact pass: pays every cold profile once and journals the
        # workload the surface will be trained on.
        feasible_plan = []
        for budget, items in plan:
            try:
                state.bellwether(budget=budget, items=items)
            except InfeasibleQueryError:
                continue
            feasible_plan.append((budget, items))
        train_info = state.aqp_train()
        before = _counter_snapshot()
        exact_ms: list[float] = []
        approx_ms: list[float] = []
        for budget, items in feasible_plan:
            exact, e_samples = _timed(
                lambda: state.bellwether(budget=budget, items=items), repeats
            )
            approx, a_samples = _timed(
                lambda: state.bellwether(budget=budget, items=items, mode="approx"),
                repeats,
            )
            if approx["mode"] != "approx":
                raise VerificationError(
                    f"fig14 measured pass fell off the approx path: "
                    f"{approx.get('fallback_reason')!r} at budget {budget}"
                )
            deviation = abs(
                approx["bellwether"]["rmse"] - exact["bellwether"]["rmse"]
            )
            tolerance = approx["tolerance"]
            if deviation > tolerance:
                result.n_violations += 1
            result.max_deviation = max(result.max_deviation, deviation)
            exact_ms.extend(e_samples)
            approx_ms.extend(a_samples)
            result.rows.append(
                {
                    "budget": budget,
                    "items": "all" if items is None else f"|{len(items)}|",
                    "exact_p50_ms": statistics.median(e_samples),
                    "approx_p50_ms": statistics.median(a_samples),
                    "deviation": deviation,
                    "tolerance": tolerance,
                    "winner_match": (
                        approx["bellwether"]["region_str"]
                        == exact["bellwether"]["region_str"]
                    ),
                }
            )
        after = _counter_snapshot()
    deltas = {k: after[k] - before[k] for k in _OP_METRICS}
    result.n_queries = len(feasible_plan)
    result.exact_p50_ms = statistics.median(exact_ms)
    result.approx_p50_ms = statistics.median(approx_ms)
    # In-code gates: a fig14 record certifies the warm-approx contract.
    if result.n_violations:
        raise VerificationError(
            f"fig14: {result.n_violations} approx answers exceeded their "
            f"declared tolerance (max deviation {result.max_deviation:.6f})"
        )
    if deltas[STORE_FULL_SCANS]:
        raise VerificationError(
            f"fig14: warm measured pass touched the fact store "
            f"({int(deltas[STORE_FULL_SCANS])} full scans; expected 0)"
        )
    if deltas[AQP_FALLBACKS]:
        raise VerificationError(
            f"fig14: {int(deltas[AQP_FALLBACKS])} fallbacks in the warm "
            f"measured pass; expected 0"
        )
    if journal is not None:
        journal.record(
            f"fig14.{backend}",
            elapsed_s=sum(exact_ms + approx_ms) / 1e3,
            metrics=deltas,
            backend=backend,
            repeats=repeats,
            n_queries=result.n_queries,
            n_trained_keys=train_info["n_trained_keys"],
            n_records=train_info["n_records"],
            exact_p50_ms=round(result.exact_p50_ms, 4),
            approx_p50_ms=round(result.approx_p50_ms, 4),
            speedup=round(result.speedup, 2),
            max_deviation=round(result.max_deviation, 6),
            n_violations=result.n_violations,
        )
    return result
