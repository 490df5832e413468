"""ML substrate: WLS/OLS regression, sufficient statistics, error estimation."""

from .classify import (
    ClassificationCVEstimator,
    GaussianNB,
    GaussianNBStats,
    TrainingSetClassificationEstimator,
    misclassification_rate,
)
from .exceptions import FitError, ModelError, NotFittedError
from .linear import LinearRegression, fit_ridge_per_row
from .metrics import (
    CrossValidationEstimator,
    ErrorEstimate,
    ErrorEstimator,
    TrainingSetEstimator,
    default_model_factory,
    mse,
    rmse,
)
from .suffstats import (
    LinearSuffStats,
    StackedSuffStats,
    add_intercept,
    design_rows,
)

__all__ = [
    "ClassificationCVEstimator",
    "CrossValidationEstimator",
    "GaussianNB",
    "GaussianNBStats",
    "TrainingSetClassificationEstimator",
    "misclassification_rate",
    "ErrorEstimate",
    "ErrorEstimator",
    "FitError",
    "LinearRegression",
    "LinearSuffStats",
    "ModelError",
    "NotFittedError",
    "StackedSuffStats",
    "TrainingSetEstimator",
    "add_intercept",
    "default_model_factory",
    "design_rows",
    "fit_ridge_per_row",
    "mse",
    "rmse",
]
