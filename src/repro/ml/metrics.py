"""The paper's mode-selection accuracy metric.

Section IV.B.1: "Mode selection accuracy is defined as the total number of
accurate mode selections divided by all accurate and inaccurate mode
selections ... As long as both [the predicted label and the real future
utilization] would lead to the same mode being selected, the selection was
considered to be accurate."
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import TrainingError
from repro.core.thresholds import mode_index_for_utilization


def mode_selection_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of samples where prediction and truth pick the same mode."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise TrainingError("inputs have different shapes")
    if y_true.size == 0:
        raise TrainingError("mode selection accuracy of empty arrays")
    true_modes = np.array([mode_index_for_utilization(u) for u in y_true])
    pred_modes = np.array([mode_index_for_utilization(u) for u in y_pred])
    return float(np.mean(true_modes == pred_modes))

