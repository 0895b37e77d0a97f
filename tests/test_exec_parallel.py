"""Parallel execution must be bit-identical to serial execution.

The exec layer's contract is that ``jobs`` only changes wall-clock time:
every (model, trace) simulation and every training run executes identical
per-task code, and results are reassembled in submission order.  A
failing task's exception reaches the caller, no worker outlives a
fan-out, and every result before the failure is already cached.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.common.config import SimConfig
from repro.core.features import FULL_FEATURES, REDUCED_FEATURES
from repro.exec.cache import RunCache
from repro.exec.pool import (
    CaptureTask,
    SimTask,
    effective_jobs,
    feature_set_spec,
    map_tasks,
    resolve_feature_set,
    run_capture_tasks,
    run_sim_tasks,
)
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.traffic.benchmarks import generate_benchmark_trace

QUICK_SIM = SimConfig(topology="mesh", radix=3, epoch_cycles=60)


@pytest.fixture(scope="module")
def campaign_pair():
    campaign = CampaignConfig(
        sim=QUICK_SIM,
        duration_ns=700.0,
        seed=3,
        models=("baseline", "pg", "dozznoc"),
        lambdas=(1e-2, 1.0),
    )
    serial = run_campaign(campaign, jobs=1)
    parallel = run_campaign(campaign, jobs=4)
    return serial, parallel


class TestCampaignDeterminism:
    def test_summary_rows_identical(self, campaign_pair):
        serial, parallel = campaign_pair
        assert serial.summary_rows() == parallel.summary_rows()

    def test_trained_weights_identical(self, campaign_pair):
        serial, parallel = campaign_pair
        assert set(serial.weights) == set(parallel.weights)
        for model, w in serial.weights.items():
            assert np.array_equal(w, parallel.weights[model])

    def test_every_metric_field_identical(self, campaign_pair):
        serial, parallel = campaign_pair
        assert serial.metrics.keys() == parallel.metrics.keys()
        for trace_name, per_model in serial.metrics.items():
            for model, metrics in per_model.items():
                assert vars(metrics) == vars(
                    parallel.metrics[trace_name][model]
                ), (trace_name, model)

    def test_normalized_identical(self, campaign_pair):
        serial, parallel = campaign_pair
        for trace_name, per_model in serial.normalized.items():
            for model, norm in per_model.items():
                assert norm == parallel.normalized[trace_name][model]


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("task 3 failed")
    return x


class TestMapTasks:
    def test_serial_matches_parallel(self):
        tasks = list(range(20))
        assert list(map_tasks(_square, tasks, jobs=1)) == list(
            map_tasks(_square, tasks, jobs=3)
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "fn, error",
        [(_fail_on_three, ValueError), (lambda x: x, pickle.PicklingError)],
        ids=["raising-task", "unpicklable-fn"],
    )
    def test_failure_propagates_and_leaves_no_worker(self, fn, error):
        with pytest.raises(error):
            list(map_tasks(fn, [1, 2, 3, 4], jobs=2))
        assert multiprocessing.active_children() == []

    def test_empty_task_list(self):
        assert list(map_tasks(_square, [], jobs=4)) == []

    def test_effective_jobs(self):
        assert effective_jobs(1, 100) == 1
        assert effective_jobs(4, 2) == 2  # never more workers than tasks
        assert effective_jobs(None, 8) >= 1
        assert effective_jobs(0, 8) >= 1
        assert effective_jobs(-3, 8) >= 1


class TestSimTaskFanout:
    def test_sim_tasks_identical_serial_vs_parallel(self):
        trace = generate_benchmark_trace(
            "blackscholes", num_cores=QUICK_SIM.num_cores,
            duration_ns=500.0, seed=1,
        )
        tasks = [
            SimTask(policy=policy, trace=trace, sim=QUICK_SIM)
            for policy in ("baseline", "pg")
        ]
        serial = run_sim_tasks(tasks, jobs=1)
        parallel = run_sim_tasks(tasks, jobs=2)
        for a, b in zip(serial, parallel):
            assert vars(a) == vars(b)

    def test_results_before_a_failure_are_cached(self, tmp_path):
        trace = generate_benchmark_trace(
            "blackscholes", num_cores=QUICK_SIM.num_cores,
            duration_ns=500.0, seed=1,
        )
        tasks = [
            SimTask(policy=policy, trace=trace, sim=QUICK_SIM)
            for policy in ("baseline", "pg", "no-such-policy")
        ]
        cache = RunCache(tmp_path / "runs")
        with pytest.raises(ValueError, match="no-such-policy"):
            run_sim_tasks(tasks, jobs=2, cache=cache)
        on_disk = RunCache(tmp_path / "runs")
        assert on_disk.get(tasks[0].cache_key()) is not None
        assert on_disk.get(tasks[1].cache_key()) is not None
        assert multiprocessing.active_children() == []

    def test_captures_before_a_failure_are_cached(self, tmp_path):
        trace = generate_benchmark_trace(
            "blackscholes", num_cores=QUICK_SIM.num_cores,
            duration_ns=500.0, seed=1,
        )
        tasks = [
            CaptureTask(policy=policy, trace=trace, sim=QUICK_SIM)
            for policy in ("dozznoc", "no-such-policy")
        ]
        cache = RunCache(tmp_path / "runs")
        with pytest.raises(ValueError, match="no-such-policy"):
            run_capture_tasks(tasks, jobs=2, cache=cache)
        on_disk = RunCache(tmp_path / "runs")
        assert on_disk.get(tasks[0].cache_key(), kind="capture") is not None
        assert multiprocessing.active_children() == []


class TestFeatureSetSpecs:
    def test_canonical_sets_travel_by_name(self):
        assert feature_set_spec(REDUCED_FEATURES) == REDUCED_FEATURES.name
        assert feature_set_spec(FULL_FEATURES) == FULL_FEATURES.name

    def test_resolve_round_trips(self):
        assert resolve_feature_set(REDUCED_FEATURES.name) is REDUCED_FEATURES
        assert resolve_feature_set(FULL_FEATURES.name) is FULL_FEATURES
        assert resolve_feature_set(REDUCED_FEATURES) is REDUCED_FEATURES

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown feature set"):
            resolve_feature_set("no-such-set")
