"""Machine learning: ridge regression, the offline training pipeline, and
mode-selection quality metrics (Section III.D / IV.A)."""

from repro.ml.ridge import RidgeModel, fit_ridge, rmse
from repro.ml.metrics import mode_selection_accuracy, mode_confusion, r_squared
from repro.ml.training import (
    DEFAULT_LAMBDAS,
    TrainingResult,
    collect_dataset,
    train_policy_model,
)
from repro.ml.analysis import (
    FeatureImportance,
    LearningCurvePoint,
    BandCalibration,
    feature_importance,
    learning_curve,
    prediction_calibration,
)

__all__ = [
    "RidgeModel",
    "fit_ridge",
    "rmse",
    "mode_selection_accuracy",
    "mode_confusion",
    "r_squared",
    "DEFAULT_LAMBDAS",
    "TrainingResult",
    "collect_dataset",
    "train_policy_model",
    "FeatureImportance",
    "LearningCurvePoint",
    "BandCalibration",
    "feature_importance",
    "learning_curve",
    "prediction_calibration",
]
