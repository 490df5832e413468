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
from .regression_tree import RegressionTree
from .suffstats import (
    LinearSuffStats,
    RowProducts,
    StackedSuffStats,
    add_intercept,
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
    "RegressionTree",
    "RowProducts",
    "StackedSuffStats",
    "TrainingSetEstimator",
    "add_intercept",
    "default_model_factory",
    "fit_ridge_per_row",
    "mse",
    "rmse",
]
