"""Tests for figure reproductions (fast scales)."""

import numpy as np
import pytest

from repro.experiments.figures import (
    EvalScale,
    epoch_size_sweep,
    fig5_waveforms,
    fig6_efficiency,
    fig9_feature_accuracy,
)


class TestFig5:
    def test_wakeup_settling_matches_paper(self):
        r = fig5_waveforms()
        assert r.t_wakeup_ns == pytest.approx(8.5, abs=0.1)

    def test_switch_settling_matches_paper(self):
        r = fig5_waveforms()
        assert r.t_switch_ns == pytest.approx(6.9, abs=0.2)

    def test_waveform_endpoints(self):
        r = fig5_waveforms()
        assert r.wakeup.v_from == 0.0
        assert r.wakeup.v_to == 0.8
        assert r.switch.v_from == 0.8
        assert r.switch.v_to == 1.2

    def test_wakeup_rises_monotonically(self):
        assert np.all(np.diff(fig5_waveforms().wakeup.v) >= -1e-12)

    def test_switch_starts_at_its_source_voltage(self):
        assert fig5_waveforms().switch.v[0] == 0.8


class TestFig6:
    def test_sweep_resolution(self):
        r = fig6_efficiency(n_points=21)
        assert len(r.voltages) == 21
        assert r.voltages[0] == pytest.approx(0.8)
        assert r.voltages[-1] == pytest.approx(1.2)

    def test_simo_dominates_below_top_rail(self):
        # Wherever a lower SIMO rail applies (vout <= 1.1 V), the SIMO
        # system beats the fixed-1.2 V array; between 1.1 and 1.2 V both
        # use the top rail and the SIMO stage costs its small switching
        # loss (visible in Fig 6 as the curves meeting at the right edge).
        r = fig6_efficiency()
        below = r.voltages <= 1.1 + 1e-9
        assert np.all(r.simo[below] > r.baseline[below])


class TestFig9Quick:
    @pytest.fixture(scope="class")
    def accuracies(self):
        return fig9_feature_accuracy(EvalScale.quick())

    def test_all_candidates_evaluated(self, accuracies):
        assert {a.feature for a in accuracies} == {
            "core_sends", "core_recvs", "off_time", "ibu",
        }

    def test_five_test_benchmarks_each(self, accuracies):
        for a in accuracies:
            assert len(a.per_benchmark) == 5

    def test_ibu_is_the_strongest_single_feature(self, accuracies):
        # The paper's key finding: current IBU alone predicts ~80 % of mode
        # selections, far ahead of the other single features.
        by_feature = {a.feature: a.average for a in accuracies}
        assert by_feature["ibu"] == max(by_feature.values())
        assert by_feature["ibu"] > 0.5

    def test_accuracies_are_probabilities(self, accuracies):
        for a in accuracies:
            for v in a.per_benchmark.values():
                assert 0.0 <= v <= 1.0


class TestEpochSweepQuick:
    def test_sweep_points(self):
        points = epoch_size_sweep(EvalScale.quick(), epoch_sizes=(100, 200))
        assert [p.epoch_cycles for p in points] == [100, 200]
        for p in points:
            assert p.validation_rmse >= 0.0
            assert 0.0 <= p.validation_accuracy <= 1.0

    def test_smaller_epochs_give_more_samples(self):
        points = epoch_size_sweep(EvalScale.quick(), epoch_sizes=(100, 200))
        assert points[0].n_train_samples > points[1].n_train_samples
