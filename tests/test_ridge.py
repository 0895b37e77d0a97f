"""Tests for closed-form ridge regression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import TrainingError
from repro.common.rng import make_rng
from repro.ml.ridge import RidgeModel, fit_ridge, rmse


def linear_data(n=200, noise=0.0, seed=0):
    rng = make_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    w_true = np.array([0.5, 1.5, -2.0])
    y = x @ w_true + noise * rng.normal(size=n)
    return x, y, w_true


class TestFit:
    def test_recovers_exact_linear_map(self):
        x, y, w_true = linear_data()
        model = fit_ridge(x, y, lam=1e-10)
        assert np.allclose(model.weights, w_true, atol=1e-6)

    def test_matches_lstsq_at_zero_lambda(self):
        x, y, _ = linear_data(noise=0.3)
        model = fit_ridge(x, y, lam=0.0)
        expected, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.allclose(model.weights, expected, atol=1e-8)

    def test_regularization_shrinks_weights(self):
        x, y, _ = linear_data(noise=0.3)
        free = fit_ridge(x, y, lam=1e-9)
        heavy = fit_ridge(x, y, lam=1e4)
        assert np.linalg.norm(heavy.weights) < np.linalg.norm(free.weights)

    def test_collinear_features_handled(self):
        rng = make_rng(1)
        base = rng.normal(size=100)
        x = np.column_stack([base, base])  # perfectly collinear
        y = 2 * base
        model = fit_ridge(x, y, lam=0.0)
        assert rmse(y, model.predict(x)) < 1e-6

    def test_normal_equation_identity(self):
        # The fitted weights satisfy (X^T X + lam I) w = X^T y.
        x, y, _ = linear_data(noise=0.5)
        lam = 2.5
        model = fit_ridge(x, y, lam)
        lhs = (x.T @ x + lam * np.eye(3)) @ model.weights
        assert np.allclose(lhs, x.T @ y)


class TestValidation:
    def test_empty_data_rejected(self):
        with pytest.raises(TrainingError):
            fit_ridge(np.empty((0, 3)), np.empty(0), 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            fit_ridge(np.ones((5, 2)), np.ones(4), 1.0)

    def test_1d_x_rejected(self):
        with pytest.raises(TrainingError):
            fit_ridge(np.ones(5), np.ones(5), 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(TrainingError):
            fit_ridge(np.ones((5, 2)), np.ones(5), -1.0)

    def test_nan_rejected(self):
        x = np.ones((5, 2))
        x[0, 0] = np.nan
        with pytest.raises(TrainingError):
            fit_ridge(x, np.ones(5), 1.0)

    def test_predict_dimension_checked(self):
        model = RidgeModel(weights=np.ones(3), lam=1.0)
        with pytest.raises(TrainingError):
            model.predict(np.ones((4, 2)))


class TestRmse:
    def test_zero_for_perfect(self):
        assert rmse(np.ones(5), np.ones(5)) == 0.0

    def test_known_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            rmse(np.ones(3), np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            rmse(np.empty(0), np.empty(0))


class TestRidgeProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lam=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_training_error_below_mean_predictor(self, seed, lam):
        rng = make_rng(seed)
        x = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        w = rng.normal(size=4)
        y = x @ w + 0.1 * rng.normal(size=80)
        model = fit_ridge(x, y, lam)
        fit_err = rmse(y, model.predict(x))
        mean_err = rmse(y, np.full_like(y, y.mean()))
        assert fit_err <= mean_err + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_weights_monotone_shrinkage(self, seed):
        rng = make_rng(seed)
        x = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = rng.normal(size=60)
        norms = [
            np.linalg.norm(fit_ridge(x, y, lam).weights)
            for lam in (1e-3, 1e-1, 1e1, 1e3)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))
