"""Error measures and estimators: cross-validation and training-set error.

Section 2 of the paper defines both estimates; Section 7 uses 10-fold
cross-validation RMSE for the headline experiments and training-set error for
Figure 7(c), arguing that for linear models the two behave almost
identically (our Fig 7c bench reproduces that claim).

Every estimator returns an :class:`ErrorEstimate` carrying enough information
to build a confidence interval:

* cross-validation — a t-interval over the per-fold errors (the paper's
  "confidence interval of the cross-validation error ... based on the
  variance of the n error values");
* training-set — a chi-square interval from ``SSE/σ² ~ χ²(n−p)``.

Confidence intervals drive Figure 7(b)/9(b)'s uniqueness analysis and the
bellwether cube's lowest-upper-confidence-bound prediction rule.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError

from .exceptions import FitError
from .linear import LinearRegression

ModelFactory = Callable[[], LinearRegression]


def default_model_factory() -> LinearRegression:
    return LinearRegression()


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise FitError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    return float(np.mean((y_true - y_pred) ** 2))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.sqrt(mse(y_true, y_pred)))


@dataclass(frozen=True)
class ErrorEstimate:
    """A point error estimate plus what is needed for confidence intervals."""

    rmse: float
    kind: str  # "cv" or "training"
    fold_rmses: tuple[float, ...] | None = None
    sse: float | None = None
    dof: int = 0

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Two-sided confidence interval for the true error.

        The quantiles are the bodies of scipy.stats' chi2 and t ``_ppf``, so
        the bits are ``chi2.ppf`` / ``t.ppf``'s.  Only ``scipy.special`` is
        imported, and only here: importing ``scipy.stats`` would cost every
        process ~1,000 modules and ~60 MB.
        """
        if not 0.0 < confidence < 1.0:
            raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
        from scipy import special

        if self.fold_rmses is not None and len(self.fold_rmses) >= 2:
            folds = np.asarray(self.fold_rmses)
            k = len(folds)
            se = float(folds.std(ddof=1)) / np.sqrt(k)
            t = special.stdtrit(k - 1, 0.5 + confidence / 2.0)
            return (max(self.rmse - t * se, 0.0), self.rmse + t * se)
        if self.sse is not None and self.dof > 0:
            if self.sse == 0.0:
                return (0.0, 0.0)
            hi_q = 2 * special.gammaincinv(self.dof / 2, 0.5 - confidence / 2.0)
            lo_q = 2 * special.gammaincinv(self.dof / 2, 0.5 + confidence / 2.0)
            return (
                float(np.sqrt(self.sse / lo_q)),
                float(np.sqrt(self.sse / hi_q)) if hi_q > 0 else float("inf"),
            )
        return (self.rmse, self.rmse)

    def upper(self, confidence: float = 0.95) -> float:
        return self.interval(confidence)[1]

    def lower(self, confidence: float = 0.95) -> float:
        return self.interval(confidence)[0]

    def contains(self, value: float, confidence: float = 0.95) -> bool:
        """Is ``value`` inside the interval (i.e. indistinguishable)?"""
        lo, hi = self.interval(confidence)
        return lo <= value <= hi


class ErrorEstimator:
    """Interface: estimate the error of a model family on a dataset."""

    def estimate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray | None = None,
    ) -> ErrorEstimate:
        raise NotImplementedError


class CrossValidationEstimator(ErrorEstimator):
    """k-fold cross-validation RMSE (paper default: k = 10).

    Folds are a seeded shuffle, so estimates are deterministic.  When the
    dataset has fewer than ``n_folds`` examples, the fold count drops to the
    example count (leave-one-out); with fewer than 2 examples the estimator
    degrades to training-set error.
    """

    def __init__(
        self,
        n_folds: int = 10,
        seed: int = 0,
        model_factory: ModelFactory = default_model_factory,
    ):
        if n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
        self.n_folds = n_folds
        self.seed = seed
        self.model_factory = model_factory

    def estimate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray | None = None,
    ) -> ErrorEstimate:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        if n < 2:
            return TrainingSetEstimator(self.model_factory).estimate(x, y, w)
        k = min(self.n_folds, n)
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        folds = np.array_split(order, k)
        fold_rmses: list[float] = []
        for test_idx in folds:
            train_mask = np.ones(n, dtype=bool)
            train_mask[test_idx] = False
            model = self.model_factory()
            model.fit(
                x[train_mask],
                y[train_mask],
                None if w is None else np.asarray(w)[train_mask],
            )
            pred = model.predict(x[test_idx])
            fold_rmses.append(rmse(y[test_idx], pred))
        folds_arr = np.asarray(fold_rmses)
        return ErrorEstimate(
            rmse=float(folds_arr.mean()),
            kind="cv",
            fold_rmses=tuple(fold_rmses),
            dof=k - 1,
        )


class TrainingSetEstimator(ErrorEstimator):
    """Training-set RMSE with residual degrees of freedom ``n − p``.

    Cheap: one fit, no refits — roughly ``n_folds`` times cheaper than
    cross-validation, as Section 2 notes.
    """

    def __init__(self, model_factory: ModelFactory = default_model_factory):
        self.model_factory = model_factory

    def estimate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray | None = None,
    ) -> ErrorEstimate:
        model = self.model_factory()
        model.fit(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), w)
        stats = model.stats
        # one solve for both: rmse is sqrt(sse / dof) under mse()'s dof rule
        sse = stats.sse()
        dof = stats.n - stats.p
        return ErrorEstimate(
            rmse=float(np.sqrt(sse / (dof if dof > 0 else stats.n))),
            kind="training",
            sse=sse,
            dof=stats.dof,
        )
