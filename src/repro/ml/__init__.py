"""Machine learning: ridge regression, the offline training pipeline, and
the mode-selection accuracy metric (Section III.D / IV.A)."""

from repro.ml.ridge import RidgeModel, fit_ridge, rmse
from repro.ml.metrics import mode_selection_accuracy
from repro.ml.training import (
    DEFAULT_LAMBDAS,
    TrainingResult,
    collect_dataset,
    train_policy_model,
)

__all__ = [
    "RidgeModel",
    "fit_ridge",
    "rmse",
    "mode_selection_accuracy",
    "DEFAULT_LAMBDAS",
    "TrainingResult",
    "collect_dataset",
    "train_policy_model",
]
