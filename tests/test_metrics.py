"""Tests for the paper's mode-selection accuracy metric."""

import numpy as np
import pytest

from repro.common.errors import TrainingError
from repro.ml.metrics import mode_selection_accuracy


class TestModeSelectionAccuracy:
    def test_perfect_when_same_band(self):
        # Different values in the same threshold band are still "accurate".
        y_true = np.array([0.01, 0.07, 0.15, 0.22, 0.8])
        y_pred = np.array([0.04, 0.09, 0.11, 0.24, 0.26])
        assert mode_selection_accuracy(y_true, y_pred) == 1.0

    def test_zero_when_always_wrong_band(self):
        y_true = np.array([0.01, 0.30])
        y_pred = np.array([0.30, 0.01])
        assert mode_selection_accuracy(y_true, y_pred) == 0.0

    def test_partial(self):
        y_true = np.array([0.01, 0.30, 0.15, 0.07])
        y_pred = np.array([0.02, 0.30, 0.02, 0.30])
        assert mode_selection_accuracy(y_true, y_pred) == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            mode_selection_accuracy(np.ones(2), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            mode_selection_accuracy(np.empty(0), np.empty(0))

