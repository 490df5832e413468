"""Unit tests for linear-model sufficient statistics (Theorem 1 machinery)."""

import numpy as np
import pytest

from repro.ml import FitError, LinearSuffStats, add_intercept


@pytest.fixture()
def data():
    rng = np.random.default_rng(0)
    x = add_intercept(rng.normal(size=(40, 3)))
    beta = np.array([1.0, 2.0, -1.0, 0.5])
    y = x @ beta + rng.normal(scale=0.1, size=40)
    return x, y


class TestFromData:
    def test_shapes(self, data):
        x, y = data
        s = LinearSuffStats.from_data(x, y)
        assert s.xtwx.shape == (4, 4)
        assert s.xtwy.shape == (4,)
        assert s.n == 40
        assert s.sum_w == pytest.approx(40.0)

    def test_matches_matrix_formulas(self, data):
        x, y = data
        w = np.linspace(1, 2, 40)
        s = LinearSuffStats.from_data(x, y, w)
        W = np.diag(w)
        assert np.allclose(s.xtwx, x.T @ W @ x)
        assert np.allclose(s.xtwy, x.T @ W @ y)
        assert s.ytwy == pytest.approx(float(y @ W @ y))

    def test_bad_shapes_rejected(self):
        with pytest.raises(FitError):
            LinearSuffStats.from_data(np.zeros(3), np.zeros(3))
        with pytest.raises(FitError):
            LinearSuffStats.from_data(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(FitError):
            LinearSuffStats.from_data(np.zeros((3, 2)), np.zeros(3), np.zeros(4))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(FitError):
            LinearSuffStats.from_data(np.ones((2, 1)), np.ones(2), np.array([1.0, 0.0]))


class TestMerge:
    def test_partition_merge_equals_whole(self, data):
        """g(S1) + g(S2) == g(S1 ∪ S2) — the heart of Theorem 1."""
        x, y = data
        whole = LinearSuffStats.from_data(x, y)
        s1 = LinearSuffStats.from_data(x[:17], y[:17])
        s2 = LinearSuffStats.from_data(x[17:], y[17:])
        merged = s1 + s2
        assert np.allclose(merged.xtwx, whole.xtwx)
        assert np.allclose(merged.xtwy, whole.xtwy)
        assert merged.ytwy == pytest.approx(whole.ytwy)
        assert merged.n == whole.n

    def test_zeros_is_identity(self, data):
        x, y = data
        s = LinearSuffStats.from_data(x, y)
        z = LinearSuffStats.zeros(4)
        merged = s + z
        assert np.allclose(merged.xtwx, s.xtwx)
        assert merged.n == s.n

    def test_subtract_inverts_add(self, data):
        x, y = data
        s1 = LinearSuffStats.from_data(x[:20], y[:20])
        s2 = LinearSuffStats.from_data(x[20:], y[20:])
        recovered = (s1 + s2) - s2
        assert np.allclose(recovered.xtwx, s1.xtwx)
        assert recovered.n == s1.n

    def test_mismatched_p_rejected(self):
        with pytest.raises(FitError):
            LinearSuffStats.zeros(2) + LinearSuffStats.zeros(3)


class TestSolve:
    def test_recovers_true_beta(self, data):
        x, y = data
        beta = LinearSuffStats.from_data(x, y).solve()
        assert np.allclose(beta, [1.0, 2.0, -1.0, 0.5], atol=0.1)

    def test_weighted_solution_matches_direct_wls(self, data):
        x, y = data
        w = np.linspace(0.5, 3.0, 40)
        beta = LinearSuffStats.from_data(x, y, w).solve()
        W = np.diag(w)
        direct = np.linalg.solve(x.T @ W @ x, x.T @ W @ y)
        assert np.allclose(beta, direct)

    def test_unit_weights_reduce_to_ols(self, data):
        x, y = data
        b_none = LinearSuffStats.from_data(x, y).solve()
        b_ones = LinearSuffStats.from_data(x, y, np.ones(40)).solve()
        assert np.allclose(b_none, b_ones)

    def test_singular_falls_back_to_pinv(self):
        # Duplicate column -> singular normal matrix; must not raise.
        x = np.ones((5, 2))
        y = np.arange(5.0)
        beta = LinearSuffStats.from_data(x, y).solve()
        assert np.all(np.isfinite(beta))

    def test_empty_solve_rejected(self):
        with pytest.raises(FitError):
            LinearSuffStats.zeros(2).solve()

    def test_ridge_changes_solution(self, data):
        x, y = data
        s = LinearSuffStats.from_data(x, y)
        assert not np.allclose(s.solve(), s.solve(ridge=10.0))


class TestSse:
    def test_sse_matches_residuals(self, data):
        x, y = data
        s = LinearSuffStats.from_data(x, y)
        beta = s.solve()
        direct = float(((y - x @ beta) ** 2).sum())
        assert s.sse() == pytest.approx(direct, rel=1e-8)

    def test_weighted_sse_matches_residuals(self, data):
        x, y = data
        w = np.linspace(0.5, 2.0, 40)
        s = LinearSuffStats.from_data(x, y, w)
        beta = s.solve()
        direct = float((w * (y - x @ beta) ** 2).sum())
        assert s.sse() == pytest.approx(direct, rel=1e-8)

    def test_sse_nonnegative_on_perfect_fit(self):
        x = add_intercept(np.arange(10.0)[:, None])
        y = 3.0 + 2.0 * np.arange(10.0)
        s = LinearSuffStats.from_data(x, y)
        assert s.sse() == pytest.approx(0.0, abs=1e-8)

    def test_mse_uses_residual_dof(self, data):
        x, y = data
        s = LinearSuffStats.from_data(x, y)
        assert s.mse() == pytest.approx(s.sse() / (40 - 4))

    def test_mse_interpolating_model_stays_finite(self):
        x = add_intercept(np.array([[1.0], [2.0]]))
        y = np.array([1.0, 2.0])
        s = LinearSuffStats.from_data(x, y)
        assert np.isfinite(s.mse())
