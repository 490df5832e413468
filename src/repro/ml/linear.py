"""OLS / WLS linear regression models built on sufficient statistics.

The paper uses ordinary least squares as its predictive model throughout the
evaluation, and extends the prediction-cube machinery to weighted least
squares (Section 6.4).  ``LinearRegression(weighted=True)`` accepts per-
example weights; with unit weights WLS reduces to OLS exactly.
"""

from __future__ import annotations

import numpy as np

from repro.obs.catalog import ML_LINEAR_FITS
from repro.obs.metrics import get_registry

from .exceptions import FitError, NotFittedError
from .suffstats import LinearSuffStats, add_intercept, design_rows

_FITS = get_registry().counter(ML_LINEAR_FITS)


class LinearRegression:
    """Linear model ``y = β0 + Σ βj xj`` fit by (weighted) least squares.

    Parameters
    ----------
    fit_intercept:
        Prepend a constant column (default True).
    ridge:
        Optional Tikhonov term added to the normal matrix; 0 = plain LS.
    """

    def __init__(self, fit_intercept: bool = True, ridge: float = 0.0):
        self.fit_intercept = fit_intercept
        self.ridge = ridge
        self._beta: np.ndarray | None = None
        self._stats: LinearSuffStats | None = None

    # ------------------------------------------------------------------- fit

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray | None = None,
    ) -> "LinearRegression":
        """Fit from raw examples; returns self."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise FitError(f"x must be 2-D, got shape {x.shape}")
        if self.fit_intercept:
            # laid once: [1 | x | y] is the design and the Gram's rows
            self._stats = LinearSuffStats.from_rows(design_rows(x, y), w)
        else:
            self._stats = LinearSuffStats.from_data(x, y, w)
        self._beta = self._stats.solve(ridge=self.ridge)
        _FITS.inc()
        return self

    def fit_stats(self, stats: LinearSuffStats) -> "LinearRegression":
        """Fit directly from pre-aggregated sufficient statistics.

        The statistics must already include the intercept column if
        ``fit_intercept`` is set — they describe the *design* matrix.
        """
        self._stats = stats
        self._beta = stats.solve(ridge=self.ridge)
        _FITS.inc()
        return self

    # --------------------------------------------------------------- predict

    @property
    def is_fitted(self) -> bool:
        return self._beta is not None

    @property
    def coef(self) -> np.ndarray:
        """Coefficients of the design matrix (intercept first if present)."""
        if self._beta is None:
            raise NotFittedError("model is not fitted")
        return self._beta

    @property
    def stats(self) -> LinearSuffStats:
        if self._stats is None:
            raise NotFittedError("model is not fitted")
        return self._stats

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._beta is None:
            raise NotFittedError("model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        design = add_intercept(x) if self.fit_intercept else x
        if design.shape[1] != len(self._beta):
            raise FitError(
                f"predict got {design.shape[1]} design columns, model has {len(self._beta)}"
            )
        return design @ self._beta

    # ----------------------------------------------------------------- errors

    def training_rmse(self) -> float:
        """Training-set RMSE with n − p degrees of freedom (Theorem 1's q)."""
        return self.stats.rmse(ridge=self.ridge)

    def __repr__(self) -> str:
        status = "fitted" if self.is_fitted else "unfitted"
        return f"LinearRegression(intercept={self.fit_intercept}, {status})"


def fit_ridge_per_row(
    design: np.ndarray, y: np.ndarray, ridge_per_row: float
) -> np.ndarray:
    """Ridge coefficients with the penalty scaled by the row count.

    Solves ``(X'X + n·λ·I) β = X'y`` for ``λ = ridge_per_row``.  Scaling
    the Tikhonov term with ``n`` makes the solution invariant under
    workload replication — duplicating every row k-fold multiplies both
    ``X'X`` and ``X'y`` and the penalty by k, leaving β unchanged — which
    is what lets the AQP tier's tolerance estimate stay monotone as the
    training workload grows.  ``design`` must already carry its intercept
    column (no column is added).
    """
    design = np.asarray(design, dtype=np.float64)
    lam = float(ridge_per_row) * len(design)
    return LinearRegression(fit_intercept=False, ridge=lam).fit(design, y).coef
