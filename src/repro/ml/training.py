"""Offline training pipeline (Sections III.D and IV.A).

The paper's procedure, reproduced end to end:

1. run the **reactive** version of each ML model (mode selection from the
   *current* epoch's buffer utilization) on the six training traces,
   exporting every router's features and the future-IBU label each epoch
   (one cached exec-layer capture per trace, see
   :func:`repro.exec.pool.run_capture_tasks`),
2. sweep the lambda hyper-parameter, fitting ridge regression on the
   training set and scoring on the three validation traces until the
   best-fitting weights are found,
3. export the weight vector for the network simulator to use at test time
   for **proactive** mode selection.

Each ML model (DozzNoC, LEAD-tau, ML+TURBO) trains on its *own* reactive
run, because power-gating changes the feature distribution (off time is
identically zero for LEAD).  Models are also specific to the epoch size,
matching the paper's per-epoch-size training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import SimConfig
from repro.common.errors import TrainingError
from repro.core.features import REDUCED_FEATURES, FeatureSet
from repro.ml.metrics import mode_selection_accuracy
from repro.ml.ridge import RidgeModel, fit_ridge, rmse
from repro.traffic.trace import Trace

#: Default lambda sweep (log-spaced, matching a coarse Matlab-style tune).
DEFAULT_LAMBDAS: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class TrainingResult:
    """Everything the offline phase produces."""

    model: RidgeModel
    policy_name: str
    feature_set_name: str
    train_rmse: float
    validation_rmse: float
    validation_accuracy: float
    lambda_sweep: dict[float, float]
    n_train_samples: int
    n_validation_samples: int


def stack_dataset(
    captures: list[tuple[np.ndarray, np.ndarray]], config: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-trace captures into one ``(X, y)`` dataset."""
    xs = [x for x, _ in captures if x.size]
    ys = [y for x, y in captures if x.size]
    if not xs:
        raise TrainingError(
            "no labelled epochs were collected; traces may be shorter than "
            f"two epochs ({config.epoch_cycles} cycles each)"
        )
    return np.vstack(xs), np.concatenate(ys)


def collect_dataset(
    policy_name: str,
    traces: list[Trace] | tuple[Trace, ...],
    config: SimConfig,
    feature_set: FeatureSet = REDUCED_FEATURES,
) -> tuple[np.ndarray, np.ndarray]:
    """Reactive captures of ``traces``, stacked into one ``(X, y)`` dataset.

    Each trace is one capture task of the exec layer
    (:func:`repro.exec.pool.run_capture_tasks`), run at the narrowest
    canonical feature set that covers ``feature_set`` and sliced to its
    columns.
    """
    # Imported here: repro.exec.pool imports this module.
    from repro.exec.pool import CaptureTask, run_capture_tasks

    captures = run_capture_tasks(
        [CaptureTask(policy_name, t, config, feature_set) for t in traces]
    )
    return stack_dataset(captures, config)


def fit_policy_model(
    policy_name: str,
    train: tuple[np.ndarray, np.ndarray],
    validation: tuple[np.ndarray, np.ndarray],
    feature_set: FeatureSet = REDUCED_FEATURES,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> TrainingResult:
    """Sweep lambda over captured datasets and export the best model."""
    if not lambdas:
        raise TrainingError("lambda sweep is empty")
    x_train, y_train = train
    x_val, y_val = validation
    sweep: dict[float, float] = {}
    best_lam, best_val, best_model = None, np.inf, None
    for lam in lambdas:
        model = fit_ridge(x_train, y_train, lam, feature_set.names)
        val = rmse(y_val, model.predict(x_val))
        sweep[lam] = val
        if val < best_val:
            best_lam, best_val, best_model = lam, val, model
    assert best_model is not None and best_lam is not None

    return TrainingResult(
        model=best_model,
        policy_name=policy_name,
        feature_set_name=feature_set.name,
        train_rmse=rmse(y_train, best_model.predict(x_train)),
        validation_rmse=best_val,
        validation_accuracy=mode_selection_accuracy(
            y_val, best_model.predict(x_val)
        ),
        lambda_sweep=sweep,
        n_train_samples=len(y_train),
        n_validation_samples=len(y_val),
    )


def train_policy_model(
    policy_name: str,
    train_traces: list[Trace] | tuple[Trace, ...],
    validation_traces: list[Trace] | tuple[Trace, ...],
    config: SimConfig,
    feature_set: FeatureSet = REDUCED_FEATURES,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> TrainingResult:
    """The full offline phase for one model: capture, sweep lambda, export.

    One task of :func:`repro.exec.pool.train_models`, uncached.
    """
    # Imported here: repro.exec.pool imports this module.
    from repro.exec.pool import TrainTask, train_models

    (result,) = train_models([TrainTask(
        policy_name, tuple(train_traces), tuple(validation_traces), config,
        feature_set, lambdas,
    )])
    return result
