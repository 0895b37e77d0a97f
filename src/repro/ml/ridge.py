"""Ridge regression (Section III.D).

The paper minimizes

.. math::

    E(w) = \\tfrac{1}{2} \\sum_n \\{ y(x_n, w) - t_n \\}^2
         + \\tfrac{\\lambda}{2} \\sum_j w_j^2

with a linear model :math:`y(x, w) = w^\\top x` whose first feature is a
constant 1 (the paper's "array of 1's" normalization feature — note the
bias weight *is* regularized, exactly as the equation above penalizes every
:math:`w_j`).  The minimizer has the closed form

.. math::

    w = (X^\\top X + \\lambda I)^{-1} X^\\top t

computed here with a solve (never an explicit inverse) for numerical
stability; the normal matrix is symmetric positive definite for any
:math:`\\lambda > 0`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import TrainingError


@dataclass(frozen=True)
class RidgeModel:
    """A trained ridge regressor: weights + the lambda that produced them."""

    weights: np.ndarray
    lam: float
    feature_names: tuple[str, ...] = ()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict labels for feature matrix ``x`` (n_samples x n_features)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.weights.shape[0]:
            raise TrainingError(
                f"feature dimension {x.shape[1]} does not match the "
                f"{self.weights.shape[0]}-weight model"
            )
        return x @ self.weights


def fit_ridge(
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    feature_names: tuple[str, ...] = (),
) -> RidgeModel:
    """Fit ridge regression by the closed-form normal equations.

    Raises :class:`TrainingError` on empty data, shape mismatch, or
    non-positive lambda with a singular normal matrix.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise TrainingError(f"X must be 2-D, got shape {x.shape}")
    if x.shape[0] == 0:
        raise TrainingError("no training samples")
    if y.shape != (x.shape[0],):
        raise TrainingError(
            f"label vector shape {y.shape} does not match {x.shape[0]} samples"
        )
    if lam < 0:
        raise TrainingError(f"lambda must be non-negative, got {lam}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise TrainingError("training data contains NaN or inf")
    n_features = x.shape[1]
    gram = x.T @ x + lam * np.eye(n_features)
    rhs = x.T @ y
    try:
        weights = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        # lambda == 0 with collinear features: fall back to least squares.
        weights, *_ = np.linalg.lstsq(x, y, rcond=None)
    return RidgeModel(weights=weights, lam=lam, feature_names=feature_names)


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root-mean-square error between labels and predictions."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise TrainingError("rmse inputs have different shapes")
    if y_true.size == 0:
        raise TrainingError("rmse of empty arrays")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))
