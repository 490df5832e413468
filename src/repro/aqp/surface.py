"""The learned Error(r | S) surface and its honesty bookkeeping.

Training (:func:`train_surface`) replays the workload journal's distinct
item subsets through the *exact* search at the current store version, then
fits one ridge regression per region: quantized subset features
(:class:`~repro.aqp.features.SubsetEncoder`) -> that region's exact rmse.
Everything else a bellwether answer needs — per-region example counts for
the subset, cost, coverage, feasibility under the criterion — is computed
*exactly* from a per-(region, item) counts matrix built once at train time
from region reads.  Only the rmse ordinate is learned, which is what makes
the approximate tier honest:

* the feasible region set of an approx answer equals the exact path's
  feasible set bit-for-bit (same counts, same costs, same criterion);
* an infeasible approx query is exactly as infeasible as the exact query;
* the declared tolerance bounds the rmse deviation: per quantized key the
  model remembers the worst training residual per region, and only answers
  when every feasible region has a finite remembered bound, so a replay of
  a journaled subset at the trained version deviates by at most that
  residual — and the estimate pads it with a safety factor, an
  unseen-mass prior that shrinks as the key accumulates observations, and
  an additive floor.

The ridge penalty scales with the row count (``lam = ridge * n_rows``), so
replicating the training workload k-fold leaves the solution — and hence
every residual bound — unchanged while the prior term shrinks: the
tolerance estimate is monotone non-increasing under workload replication,
the property the Hypothesis suite pins.

`/predict` answers cannot be bounded by an rmse residual (they are
per-item value vectors), so those are served from **artifacts**: exact
payloads replayed at train time for every journaled predict query, keyed
by (items, budget, region).  An artifact answer is bit-for-bit the exact
answer at the trained store version; anything off-artifact is a miss and
falls back.

Nothing here is stochastic — training is a deterministic function of the
journal and the store version; ``seed`` is stamped for provenance and so
downstream samplers can key off it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError, ReproError
from repro.ml import fit_ridge_per_row

from .features import SubsetEncoder

__all__ = [
    "ApproxMiss",
    "AqpBellwetherAnswer",
    "AqpConfig",
    "SurfaceModel",
    "train_surface",
]


class ApproxMiss(ReproError):
    """The model declines this query; the caller must take the exact path.

    ``reason`` is machine-readable and lands on the response + counters:
    ``unseen_key`` / ``uncovered_region`` / ``tolerance`` /
    ``version_drift`` / ``no_model`` / ``journal_error``.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


@dataclass(frozen=True)
class AqpConfig:
    """Knobs of the learned surface (all deterministic)."""

    ridge: float = 1e-3        # per-row L2 penalty on the region regressions
    safety: float = 2.0        # multiplier on the remembered worst residual
    floor: float = 1e-9        # additive tolerance floor
    u0: float = 0.05           # unseen-mass prior, decays as 1/(1 + n_key)
    quantization: int = 8      # feature grid resolution
    seed: int = 0              # provenance stamp; training is deterministic
    auto_retrain: bool = True  # retrain under the writer mutex on drift
    drift_window: int = 16     # recent queries considered by the detector
    drift_threshold: float = 0.5  # miss-rate above which drift is declared

    def __post_init__(self) -> None:
        if self.ridge < 0 or self.floor < 0 or self.u0 < 0:
            raise ConfigError("ridge/floor/u0 must be non-negative")
        if self.safety < 1.0:
            raise ConfigError(
                f"safety must be >= 1 (it pads a worst residual), "
                f"got {self.safety}"
            )
        if not 0.0 < self.drift_threshold <= 1.0:
            raise ConfigError("drift_threshold must be in (0, 1]")


@dataclass(frozen=True)
class AqpBellwetherAnswer:
    """A bellwether answer from the surface (all fields query-ready)."""

    found: bool
    region_index: int | None
    cost: float | None
    coverage: float | None
    n_examples: int | None
    rmse: float | None           # predicted
    estimated_error: float       # the self-estimate e
    feasible: tuple[tuple[int, float], ...]  # (region index, predicted rmse)


def _artifact_key(items, budget, region_key) -> tuple:
    """Hashable identity of a predict query for artifact lookup."""
    ids = None if items is None else tuple(int(i) for i in items)
    b = None if budget is None else float(budget)
    r = None if region_key is None else json.dumps(region_key, sort_keys=True)
    return (ids, b, r)


class SurfaceModel:
    """An immutable trained surface; answers queries or raises ApproxMiss."""

    def __init__(
        self,
        *,
        model_version: int,
        store_version: int,
        task,
        encoder: SubsetEncoder,
        regions: tuple,
        costs: np.ndarray,
        counts: np.ndarray,
        min_examples: int,
        coefs: np.ndarray,
        bounds: dict,
        key_counts: dict,
        artifacts: dict,
        config: AqpConfig,
        n_records: int,
    ):
        self.model_version = int(model_version)
        self.store_version = int(store_version)
        self.task = task
        self.encoder = encoder
        self.regions = regions
        self.costs = costs
        self.counts = counts
        self.min_examples = int(min_examples)
        self.coefs = coefs
        self.bounds = bounds
        self.key_counts = key_counts
        self.artifacts = artifacts
        self.config = config
        self.n_records = int(n_records)

    # ------------------------------------------------------------- estimates

    def _estimate(self, key, feasible_idx: np.ndarray) -> float:
        """The self-estimate e for a query with this key and feasible set."""
        bound = self.bounds.get(key)
        if bound is None:
            raise ApproxMiss("unseen_key", f"key {key} never trained on")
        worst = bound[feasible_idx]
        if not np.all(np.isfinite(worst)):
            raise ApproxMiss(
                "uncovered_region",
                "a feasible region has no residual bound for this key",
            )
        n_key = self.key_counts.get(key, 0)
        c = self.config
        return float(
            c.safety * worst.max(initial=0.0)
            + c.u0 / (1.0 + n_key)
            + c.floor
        )

    # ------------------------------------------------------------ bellwether

    def answer_bellwether(
        self, budget, items, tolerance=None
    ) -> AqpBellwetherAnswer:
        """Answer from the surface, or raise :class:`ApproxMiss`.

        Feasibility, cost, coverage and example counts are exact; only the
        rmse ordinate is predicted.  Raises ``ApproxMiss`` when the key was
        never trained, a feasible region lacks a bound, or the
        self-estimate exceeds the requested tolerance.
        """
        key = self.encoder.key(items)
        if items is None:
            n_sr = self.counts.sum(axis=1)
            n_total = self.encoder.n_items
        else:
            cols = self.encoder.columns_of(items)
            n_sr = self.counts[:, cols].sum(axis=1)
            n_total = len(cols)
        candidates = np.flatnonzero(n_sr >= self.min_examples)
        criterion = (
            self.task.criterion
            if budget is None
            else self.task.criterion.with_budget(budget)
        )
        coverage = n_sr / max(n_total, 1)
        feasible_idx = np.asarray(
            [
                j
                for j in candidates
                if criterion.admits(float(self.costs[j]), float(coverage[j]))
            ],
            dtype=np.int64,
        )
        if len(feasible_idx) == 0:
            return AqpBellwetherAnswer(
                found=False,
                region_index=None,
                cost=None,
                coverage=None,
                n_examples=None,
                rmse=None,
                estimated_error=0.0,
                feasible=(),
            )
        est = self._estimate(key, feasible_idx)
        if tolerance is not None and est > tolerance:
            raise ApproxMiss(
                "tolerance",
                f"self-estimate {est:.3g} exceeds requested "
                f"tolerance {tolerance:.3g}",
            )
        x = np.concatenate(([1.0], self.encoder.encode(items)))
        preds = np.maximum(self.coefs[feasible_idx] @ x, 0.0)
        objective = np.asarray(
            [
                criterion.objective(
                    float(preds[k]),
                    float(self.costs[j]),
                    float(coverage[j]),
                )
                for k, j in enumerate(feasible_idx)
            ]
        )
        best = int(np.argmin(objective))  # first minimum, like min()
        j = int(feasible_idx[best])
        return AqpBellwetherAnswer(
            found=True,
            region_index=j,
            cost=float(self.costs[j]),
            coverage=float(coverage[j]),
            n_examples=int(n_sr[j]),
            rmse=float(preds[best]),
            estimated_error=est,
            feasible=tuple(
                (int(jj), float(preds[k]))
                for k, jj in enumerate(feasible_idx)
            ),
        )

    # --------------------------------------------------------------- predict

    def answer_predict(self, items, budget, region_key) -> dict:
        """The exact replayed payload for a journaled predict query.

        Artifact answers are bit-for-bit the exact path's output at the
        trained store version; an unknown (items, budget, region) triple is
        an ``unseen_key`` miss.
        """
        payload = self.artifacts.get(_artifact_key(items, budget, region_key))
        if payload is None:
            raise ApproxMiss(
                "unseen_key", "predict query not in the trained workload"
            )
        return payload

    # ---------------------------------------------------------------- status

    def status(self) -> dict:
        return {
            "model_version": self.model_version,
            "store_version": self.store_version,
            "n_trained_keys": len(self.bounds),
            "n_artifacts": len(self.artifacts),
            "n_records": self.n_records,
            "n_regions": len(self.regions),
            "config": {
                "ridge": self.config.ridge,
                "safety": self.config.safety,
                "floor": self.config.floor,
                "u0": self.config.u0,
                "quantization": self.config.quantization,
                "seed": self.config.seed,
            },
        }


# ---------------------------------------------------------------- training


def _counts_matrix(store, encoder: SubsetEncoder) -> np.ndarray:
    """Exact per-(region, item) example counts, from region reads only."""
    counts = np.zeros((len(store.regions()), encoder.n_items), dtype=np.int64)
    for j, region in enumerate(store.regions()):
        block = store.read(region)
        if block.n_examples:
            cols = encoder.columns_of(block.item_ids)
            counts[j] = np.bincount(cols, minlength=encoder.n_items)
    return counts


def train_surface(
    *,
    search,
    journal_records: list[dict],
    encoder: SubsetEncoder,
    config: AqpConfig,
    model_version: int,
    costs: dict | None = None,
    predict_fn=None,
) -> SurfaceModel:
    """Fit a :class:`SurfaceModel` on the journaled workload.

    ``search`` must be the server's warm :class:`BasicBellwetherSearch` at
    the store version the model is stamped with; training calls its
    ``evaluate_all`` for every distinct journaled subset, so subsets the
    exact path already served come straight from its profile cache.
    ``predict_fn(items, region_key, budget)`` (optional) replays journaled
    predict queries into exact artifacts.
    """
    store = search.store
    task = search.task
    regions = tuple(store.regions())
    index_of = {r: j for j, r in enumerate(regions)}
    known_costs = costs or {}
    cost_vec = np.asarray(
        [
            float(known_costs.get(region, task.cost(region)))
            for region in regions
        ]
    )
    counts = _counts_matrix(store, encoder)
    d = encoder.n_features

    # Distinct training subsets (None = all items), observation counts per
    # quantized key, and the journaled predict queries to replay.
    subsets: dict[tuple | None, list | None] = {}
    key_counts: dict[tuple, int] = {}
    predict_specs: dict[tuple, tuple] = {}
    for rec in journal_records:
        if rec["kind"] == "delta":
            continue
        items = rec.get("items")
        ids = None if items is None else tuple(int(i) for i in items)
        subsets.setdefault(ids, None if ids is None else list(ids))
        key = encoder.key(ids)
        key_counts[key] = key_counts.get(key, 0) + 1
        if rec["kind"] == "predict":
            akey = _artifact_key(ids, rec.get("budget"), rec.get("region"))
            predict_specs[akey] = (ids, rec.get("budget"), rec.get("region"))

    # Exact profiles per subset -> per-region design rows and targets.
    rows_x: dict[int, list] = {j: [] for j in range(len(regions))}
    rows_y: dict[int, list] = {j: [] for j in range(len(regions))}
    profiles = []
    for ids, id_list in subsets.items():
        profile = search.evaluate_all(item_ids=id_list)
        x = np.concatenate(([1.0], encoder.encode(id_list)))
        key = encoder.key(id_list)
        profiles.append((key, x, profile))
        for rr in profile:
            j = index_of[rr.region]
            rows_x[j].append(x)
            rows_y[j].append(float(rr.rmse))

    # Per-region ridge; the penalty scales with the row count so workload
    # replication leaves the fit (and its residuals) invariant.
    coefs = np.zeros((len(regions), d + 1))
    for j in range(len(regions)):
        if not rows_x[j]:
            continue
        coefs[j] = fit_ridge_per_row(
            np.asarray(rows_x[j]), np.asarray(rows_y[j]), config.ridge
        )

    # Per-key worst residual per region (inf where the key never saw the
    # region as a candidate).
    bounds: dict[tuple, np.ndarray] = {}
    for key, x, profile in profiles:
        bound = bounds.setdefault(
            key, np.full(len(regions), np.inf)
        )
        for rr in profile:
            j = index_of[rr.region]
            resid = abs(float(rr.rmse) - max(float(coefs[j] @ x), 0.0))
            bound[j] = resid if not np.isfinite(bound[j]) else max(
                bound[j], resid
            )

    # Exact predict artifacts (None = the query no longer answers at this
    # version; skipped, so a replay misses and falls back).
    artifacts: dict[tuple, dict] = {}
    if predict_fn is not None:
        for akey, (ids, budget, region_key) in predict_specs.items():
            payload = predict_fn(
                None if ids is None else list(ids), region_key, budget
            )
            if payload is not None:
                artifacts[akey] = payload

    return SurfaceModel(
        model_version=model_version,
        store_version=int(store.version),
        task=task,
        encoder=encoder,
        regions=regions,
        costs=cost_vec,
        counts=counts,
        min_examples=int(search.min_examples),
        coefs=coefs,
        bounds=bounds,
        key_counts=key_counts,
        artifacts=artifacts,
        config=config,
        n_records=len(journal_records),
    )
