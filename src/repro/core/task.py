"""The bellwether task: everything Definition 1 takes as input.

A :class:`BellwetherTask` bundles the historical database, the candidate
region space, the training item set (an item table), the target query τ, the
feature queries φ, the cost query κ, the search criterion and the error
measure.  Every algorithm in this package consumes a task.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dimensions import CostModel, Region, RegionSpace, ZeroCostModel
from repro.ml import CrossValidationEstimator, ErrorEstimator
from repro.table import Database, Table

from .exceptions import TaskError
from .features import ItemFeatureEncoder, RegionalFeature, TargetQuery


@dataclass(frozen=True)
class Criterion:
    """The constrained optimization criterion of Definition 1.

    Minimize ``Error(h_r)`` subject to ``κ_r(DB) ≤ budget`` and
    ``Coverage(r) ≥ min_coverage``.  ``budget=None`` means unconstrained.
    """

    budget: float | None = None
    min_coverage: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_coverage <= 1.0:
            raise TaskError(f"min_coverage must be in [0, 1], got {self.min_coverage}")

    def admits(self, cost, coverage):
        """Within budget and covering enough; arrays give a mask.

        A cost the budget cannot be compared with (NaN) is not over it.
        """
        admitted = coverage >= self.min_coverage
        if self.budget is None:
            return admitted
        return admitted & np.logical_not(cost > self.budget)

    def objective(self, error, cost, coverage):
        """The quantity minimized over feasible regions — here, the error."""
        return error

    def with_budget(self, budget: float | None) -> "Criterion":
        return Criterion(budget=budget, min_coverage=self.min_coverage)


@dataclass(frozen=True)
class LinearCriterion:
    """The paper's second instantiation (Section 3.2): a linear trade-off.

    Minimize ``Error(h_r) + w_cost * κ_r(DB) − w_coverage * Coverage(r)``
    over *all* candidate regions — no hard budget; cost and coverage are
    priced into the objective instead.
    """

    w_cost: float = 0.0
    w_coverage: float = 0.0

    def __post_init__(self) -> None:
        if self.w_cost < 0 or self.w_coverage < 0:
            raise TaskError("criterion weights must be non-negative")

    def admits(self, cost, coverage):
        """Every region; arrays give an all-true mask."""
        return np.full(np.shape(cost), True)

    def objective(self, error, cost, coverage):
        """Elementwise over arrays, the same float operations in the same order."""
        return error + self.w_cost * cost - self.w_coverage * coverage

    def with_budget(self, budget: float | None) -> "LinearCriterion":
        """A budget override is meaningless here; the criterion is unchanged."""
        return self


class BellwetherTask:
    """One bellwether analysis problem instance.

    Parameters
    ----------
    db:
        The historical star-schema database.
    space:
        Candidate region set R (cross product of dimension values).
    item_table:
        Training item set I, with ``id_column`` and item-table features.
    id_column:
        Item-id column name, shared by the item table and the fact table.
    target:
        Target generation query τ.
    regional_features:
        Feature generation queries φ (the stylized forms of Section 4.1).
    item_feature_attrs:
        Item-table attributes to include as (always-available) features.
    cost_model:
        Cost query κ; defaults to zero cost.
    criterion:
        Constrained-optimization criterion; defaults to unconstrained.
    error_estimator:
        Error measure; defaults to 10-fold cross-validation RMSE.
    weight_column:
        Optional item-table column of per-item example weights.  Models are
        then fit by weighted least squares (Section 6.4); None = OLS.
    """

    def __init__(
        self,
        db: Database,
        space: RegionSpace,
        item_table: Table,
        id_column: str,
        target: TargetQuery,
        regional_features: Sequence[RegionalFeature],
        item_feature_attrs: Sequence[str] = (),
        cost_model: CostModel | None = None,
        criterion: Criterion | None = None,
        error_estimator: ErrorEstimator | None = None,
        weight_column: str | None = None,
    ):
        if not regional_features:
            raise TaskError("at least one regional feature query is required")
        aliases = [f.alias for f in regional_features]
        if len(set(aliases)) != len(aliases):
            raise TaskError(f"duplicate feature aliases: {aliases}")
        item_table.schema.require(id_column, *item_feature_attrs)
        db.fact.schema.require(id_column)
        for dim in space.dimensions:
            db.fact.schema.require(dim.attribute)
        self.db = db
        self.space = space
        self.item_table = item_table
        self.id_column = id_column
        self.target = target
        self.regional_features = tuple(regional_features)
        self.item_feature_attrs = tuple(item_feature_attrs)
        self.cost_model = cost_model or ZeroCostModel()
        self.criterion = criterion or Criterion()
        self.error_estimator = error_estimator or CrossValidationEstimator()
        self.item_encoder = ItemFeatureEncoder(item_table, id_column, item_feature_attrs)
        self.weight_column = weight_column
        if weight_column is not None:
            item_table.schema.require(weight_column)
            weights = np.asarray(item_table[weight_column], dtype=np.float64)
            if (weights <= 0).any():
                raise TaskError("item weights must be strictly positive")
            self._item_weights = weights
        else:
            self._item_weights = None

    # ------------------------------------------------------------- convenience

    @property
    def item_ids(self) -> np.ndarray:
        return self.item_table[self.id_column]

    @property
    def item_weights(self) -> np.ndarray | None:
        """Per-item WLS weights aligned with the item table (or None)."""
        return self._item_weights

    @property
    def n_items(self) -> int:
        return self.item_table.n_rows

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Design columns: item-table features, then regional features."""
        return self.item_encoder.feature_names + tuple(
            f.alias for f in self.regional_features
        )

    def target_values(self) -> np.ndarray:
        """τ(DB) aligned with the item table's rows."""
        return self.target.values(self.db, self.item_ids)

    def cost(self, region: Region) -> float:
        return self.cost_model.cost(region)

    def with_criterion(self, criterion: Criterion) -> "BellwetherTask":
        """A shallow copy under a different criterion (for budget sweeps)."""
        clone = object.__new__(BellwetherTask)
        clone.__dict__.update(self.__dict__)
        clone.criterion = criterion
        return clone

    def __repr__(self) -> str:
        return (
            f"BellwetherTask({self.n_items} items, {self.space.n_regions} regions, "
            f"{len(self.regional_features)} regional features)"
        )


class DirectTask:
    """A task whose training data is supplied directly, not queried.

    The paper's simulation and scalability studies (Sections 7.3-7.4)
    generate per-region training sets synthetically rather than via queries
    over a star schema.  ``DirectTask`` exposes the same members the search
    algorithms consume — item table, targets, cost, criterion, estimator —
    while the caller provides a ready-made
    :class:`~repro.storage.TrainingDataStore`.
    """

    def __init__(
        self,
        item_table: Table,
        id_column: str,
        targets: np.ndarray,
        item_feature_attrs: Sequence[str] = (),
        cost_model: CostModel | None = None,
        criterion: Criterion | None = None,
        error_estimator: ErrorEstimator | None = None,
        weights: np.ndarray | None = None,
    ):
        item_table.schema.require(id_column, *item_feature_attrs)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (item_table.n_rows,):
            raise TaskError(
                f"targets shape {targets.shape} != item count {item_table.n_rows}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != targets.shape or (weights <= 0).any():
                raise TaskError("weights must be positive and target-aligned")
        self._item_weights = weights
        self.item_table = item_table
        self.id_column = id_column
        self.item_feature_attrs = tuple(item_feature_attrs)
        self.cost_model = cost_model or ZeroCostModel()
        self.criterion = criterion or Criterion()
        self.error_estimator = error_estimator or CrossValidationEstimator()
        self.item_encoder = ItemFeatureEncoder(item_table, id_column, item_feature_attrs)
        self._targets = targets

    @property
    def item_ids(self) -> np.ndarray:
        return self.item_table[self.id_column]

    @property
    def item_weights(self) -> np.ndarray | None:
        return self._item_weights

    @property
    def n_items(self) -> int:
        return self.item_table.n_rows

    def target_values(self) -> np.ndarray:
        return self._targets

    def cost(self, region: Region) -> float:
        return self.cost_model.cost(region)

    def with_criterion(self, criterion: Criterion) -> "DirectTask":
        clone = object.__new__(DirectTask)
        clone.__dict__.update(self.__dict__)
        clone.criterion = criterion
        return clone

    def __repr__(self) -> str:
        return f"DirectTask({self.n_items} items)"
