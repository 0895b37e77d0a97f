"""Tests for the offline training pipeline (Section III.D / IV.A)."""

import numpy as np
import pytest

from repro.common.config import SimConfig
from repro.common.errors import TrainingError
from repro.core.features import REDUCED_FEATURES
from repro.ml.ridge import rmse
from repro.exec.pool import TrainTask, run_train_tasks
from repro.ml.training import collect_dataset, train_policy_model
from repro.traffic.benchmarks import generate_benchmark_trace


def train_weights(policy, train_traces, validation_traces, config,
                 cache_dir=None):
    """One model's weights through the run cache's weights entries."""
    (weights,) = run_train_tasks([TrainTask(
        policy, tuple(train_traces), tuple(validation_traces), config,
        cache_dir=cache_dir,
    )])
    return weights


@pytest.fixture(scope="module")
def sim_config():
    return SimConfig(
        topology="mesh", radix=4, epoch_cycles=100, horizon_ns=2_000.0
    )


@pytest.fixture(scope="module")
def traces():
    return [
        generate_benchmark_trace(name, num_cores=16, duration_ns=1_800.0)
        for name in ("fft", "radix", "dedup")
    ]


class TestCollectDataset:
    def test_shapes(self, sim_config, traces):
        x, y = collect_dataset("dozznoc", traces[:1], sim_config)
        assert x.ndim == 2
        assert x.shape[1] == len(REDUCED_FEATURES)
        assert x.shape[0] == y.shape[0]
        assert x.shape[0] > 0

    def test_bias_column_is_ones(self, sim_config, traces):
        x, _ = collect_dataset("dozznoc", traces[:1], sim_config)
        assert np.all(x[:, 0] == 1.0)

    def test_labels_are_valid_utilizations(self, sim_config, traces):
        _, y = collect_dataset("dozznoc", traces[:1], sim_config)
        assert np.all(y >= 0.0)
        assert np.all(y <= 1.0)

    def test_labels_are_next_epoch_ibu(self, sim_config, traces):
        # The label column of epoch e must equal the ibu feature of epoch
        # e+1 for the same router (the paper's capture protocol).
        from repro.core.controller import make_policy
        from repro.noc.simulator import run_simulation

        res = run_simulation(
            sim_config, traces[0], make_policy("dozznoc"), collect_features=True
        )
        ibu_col = REDUCED_FEATURES.names.index("ibu")
        by_router: dict[int, list] = {}
        for rec in res.stats.epoch_records:
            by_router.setdefault(rec.router, []).append(rec)
        checked = 0
        for recs in by_router.values():
            recs.sort(key=lambda r: r.epoch)
            for cur, nxt in zip(recs, recs[1:]):
                assert cur.label == pytest.approx(nxt.features[ibu_col])
                checked += 1
        assert checked > 10

    def test_too_short_trace_rejected(self, sim_config):
        from repro.traffic.trace import Trace

        with pytest.raises(TrainingError):
            collect_dataset(
                "dozznoc",
                [Trace.empty(16)],
                sim_config.with_(horizon_ns=10.0),
            )


class TestTrainPolicyModel:
    def test_training_beats_mean_predictor(self, sim_config, traces):
        result = train_policy_model(
            "dozznoc", traces[:2], traces[2:], sim_config
        )
        x_val, y_val = collect_dataset("dozznoc", traces[2:], sim_config)
        mean_err = rmse(y_val, np.full_like(y_val, y_val.mean()))
        assert result.validation_rmse <= mean_err * 1.05

    def test_lambda_sweep_recorded(self, sim_config, traces):
        result = train_policy_model(
            "dozznoc", traces[:2], traces[2:], sim_config, lambdas=(0.01, 1.0)
        )
        assert set(result.lambda_sweep) == {0.01, 1.0}
        assert result.model.lam in (0.01, 1.0)
        assert result.validation_rmse == min(result.lambda_sweep.values())

    def test_feature_names_exported(self, sim_config, traces):
        result = train_policy_model("lead", traces[:1], traces[1:2], sim_config)
        assert result.model.feature_names == REDUCED_FEATURES.names

    def test_accuracy_is_reasonable(self, sim_config, traces):
        result = train_policy_model("dozznoc", traces[:2], traces[2:], sim_config)
        assert 0.0 <= result.validation_accuracy <= 1.0
        # Predicting future IBU from current IBU is strongly informative:
        # well above a 20 % five-way chance level.
        assert result.validation_accuracy > 0.4

    def test_empty_lambda_sweep_rejected(self, sim_config, traces):
        with pytest.raises(TrainingError):
            train_policy_model(
                "dozznoc", traces[:1], traces[1:2], sim_config, lambdas=()
            )


class TestCaching:
    def test_cache_roundtrip(self, sim_config, traces, tmp_path):
        a = train_weights(
            "dozznoc", traces[:1], traces[1:2], sim_config, cache_dir=tmp_path
        )
        files = list(tmp_path.glob("runs/weights-*.npz"))
        assert len(files) == 1
        b = train_weights(
            "dozznoc", traces[:1], traces[1:2], sim_config, cache_dir=tmp_path
        )
        # Run keys hash the weights' bytes, so a cached vector must come
        # back bit for bit.
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        assert list(tmp_path.glob("runs/weights-*.npz")) == files
        assert not list(tmp_path.rglob("ridge-*"))

    def test_cache_key_distinguishes_policies(self, sim_config, traces, tmp_path):
        train_weights("dozznoc", traces[:1], traces[1:2], sim_config,
                      cache_dir=tmp_path)
        train_weights("lead", traces[:1], traces[1:2], sim_config,
                      cache_dir=tmp_path)
        assert len(list(tmp_path.glob("runs/weights-*.npz"))) == 2

    def test_no_cache_dir_trains_fresh(self, sim_config, traces):
        weights = train_weights("lead", traces[:1], traces[1:2], sim_config)
        assert weights.shape == (5,)
