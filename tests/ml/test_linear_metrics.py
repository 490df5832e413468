"""Unit tests for LinearRegression and the error estimators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml import (
    CrossValidationEstimator,
    ErrorEstimate,
    FitError,
    LinearRegression,
    LinearSuffStats,
    NotFittedError,
    TrainingSetEstimator,
    add_intercept,
    mse,
    rmse,
)


@pytest.fixture()
def noisy_line():
    rng = np.random.default_rng(42)
    x = rng.uniform(-5, 5, size=(200, 2))
    y = 3.0 + 1.5 * x[:, 0] - 2.0 * x[:, 1] + rng.normal(scale=0.5, size=200)
    return x, y


class TestLinearRegression:
    def test_recovers_coefficients(self, noisy_line):
        x, y = noisy_line
        model = LinearRegression().fit(x, y)
        assert np.allclose(model.coef, [3.0, 1.5, -2.0], atol=0.15)

    def test_predict_shape(self, noisy_line):
        x, y = noisy_line
        model = LinearRegression().fit(x, y)
        assert model.predict(x).shape == (200,)
        assert model.predict(x[0]).shape == (1,)

    def test_no_intercept(self):
        x = np.arange(10.0)[:, None]
        y = 2.0 * np.arange(10.0)
        model = LinearRegression(fit_intercept=False).fit(x, y)
        assert model.coef.shape == (1,)
        assert model.coef[0] == pytest.approx(2.0)

    def test_weighted_fit_prefers_heavy_points(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        # near-total weight on the first point pins the intercept near 0
        w = np.array([1e6, 1.0])
        model = LinearRegression().fit(np.vstack([x, [[0.0]]]), np.append(y, 5.0), np.append(w, 1.0))
        assert abs(model.predict(np.array([[0.0]]))[0]) < 0.1

    def test_fit_stats_equivalent_to_fit(self, noisy_line):
        x, y = noisy_line
        direct = LinearRegression().fit(x, y)
        stats = LinearSuffStats.from_data(add_intercept(x), y)
        via_stats = LinearRegression().fit_stats(stats)
        assert np.allclose(direct.coef, via_stats.coef)
        assert direct.training_rmse() == pytest.approx(via_stats.training_rmse())

    def test_unfitted_predict_rejected(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.zeros((1, 2)))

    def test_wrong_predict_width_rejected(self, noisy_line):
        x, y = noisy_line
        model = LinearRegression().fit(x, y)
        with pytest.raises(FitError):
            model.predict(np.zeros((1, 5)))

    def test_1d_x_rejected(self):
        with pytest.raises(FitError):
            LinearRegression().fit(np.zeros(3), np.zeros(3))


class TestPointMetrics:
    def test_mse_rmse(self):
        a = np.array([0.0, 0.0])
        b = np.array([3.0, 4.0])
        assert mse(a, b) == pytest.approx(12.5)
        assert rmse(a, b) == pytest.approx(np.sqrt(12.5))

    def test_shape_mismatch(self):
        with pytest.raises(FitError):
            mse(np.zeros(2), np.zeros(3))


class TestCrossValidation:
    def test_cv_close_to_noise_level(self, noisy_line):
        x, y = noisy_line
        est = CrossValidationEstimator(n_folds=10, seed=0).estimate(x, y)
        assert est.kind == "cv"
        assert est.rmse == pytest.approx(0.5, abs=0.1)
        assert len(est.fold_rmses) == 10

    def test_deterministic_given_seed(self, noisy_line):
        x, y = noisy_line
        e1 = CrossValidationEstimator(seed=7).estimate(x, y)
        e2 = CrossValidationEstimator(seed=7).estimate(x, y)
        assert e1.rmse == e2.rmse

    def test_different_seeds_differ(self, noisy_line):
        x, y = noisy_line
        e1 = CrossValidationEstimator(seed=1).estimate(x, y)
        e2 = CrossValidationEstimator(seed=2).estimate(x, y)
        assert e1.rmse != e2.rmse

    def test_small_datasets_fall_back(self):
        x = np.array([[1.0]])
        y = np.array([2.0])
        est = CrossValidationEstimator().estimate(x, y)
        assert est.kind == "training"

    def test_fewer_examples_than_folds(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 1))
        y = rng.normal(size=5)
        est = CrossValidationEstimator(n_folds=10).estimate(x, y)
        assert len(est.fold_rmses) == 5  # leave-one-out

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            CrossValidationEstimator(n_folds=1)


class TestTrainingSetEstimator:
    def test_matches_model_training_rmse(self, noisy_line):
        x, y = noisy_line
        est = TrainingSetEstimator().estimate(x, y)
        model = LinearRegression().fit(x, y)
        assert est.rmse == pytest.approx(model.training_rmse())
        assert est.kind == "training"

    def test_tracks_cv_for_linear_models(self, noisy_line):
        """The paper's Figure 7(c) claim: training error ~ CV error."""
        x, y = noisy_line
        cv = CrossValidationEstimator(seed=0).estimate(x, y)
        tr = TrainingSetEstimator().estimate(x, y)
        assert tr.rmse == pytest.approx(cv.rmse, rel=0.15)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        p=st.integers(1, 4),
        collinear=st.booleans(),
        weighted=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(n=10, p=3, collinear=True, weighted=True, seed=0)
    @example(n=3, p=4, collinear=False, weighted=False, seed=1)
    def test_one_solve_keeps_the_bits_of_three(self, n, p, collinear, weighted, seed):
        # n <= p interpolates (dof falls back to n); a repeated column makes
        # the normal matrix singular, so every solve is the pinv fallback
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=3.0, size=(n, p))
        if collinear:
            x[:, -1] = x[:, 0]
        y = rng.normal(scale=5.0, size=n)
        w = rng.uniform(0.25, 4.0, size=n) if weighted else None
        got = TrainingSetEstimator().estimate(x, y, w)
        # the estimate as three solves: the fit's, rmse()'s and sse()'s
        stats = LinearRegression().fit(x, y, w).stats
        assert got.rmse.hex() == stats.rmse().hex()
        assert got.sse.hex() == stats.sse().hex()
        assert got.dof == stats.dof


class TestConfidenceIntervals:
    def test_cv_interval_contains_point(self, noisy_line):
        x, y = noisy_line
        est = CrossValidationEstimator(seed=0).estimate(x, y)
        lo, hi = est.interval(0.95)
        assert lo <= est.rmse <= hi
        assert est.contains(est.rmse)

    def test_wider_confidence_wider_interval(self, noisy_line):
        x, y = noisy_line
        est = CrossValidationEstimator(seed=0).estimate(x, y)
        lo95, hi95 = est.interval(0.95)
        lo99, hi99 = est.interval(0.99)
        assert lo99 <= lo95 and hi99 >= hi95

    def test_training_interval_from_chi2(self, noisy_line):
        x, y = noisy_line
        est = TrainingSetEstimator().estimate(x, y)
        lo, hi = est.interval(0.95)
        assert 0 < lo < est.rmse < hi

    def test_degenerate_interval(self):
        for est in (
            ErrorEstimate(rmse=1.0, kind="training"),
            ErrorEstimate(rmse=1.0, kind="training", sse=1.0, dof=0),
            ErrorEstimate(rmse=1.0, kind="cv", fold_rmses=(1.0,)),
        ):
            assert est.interval(0.95) == (1.0, 1.0)

    def test_bad_confidence_rejected(self):
        est = ErrorEstimate(rmse=1.0, kind="training", sse=1.0, dof=3)
        for confidence in (1.5, 1.0, 0.0, -0.1):
            with pytest.raises(ValueError):
                est.interval(confidence)

    def test_zero_sse_interval(self):
        est = ErrorEstimate(rmse=0.0, kind="training", sse=0.0, dof=5)
        assert est.interval(0.95) == (0.0, 0.0)
