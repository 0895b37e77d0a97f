"""Content-addressed run cache: hits are exact, staleness is impossible.

The run-entry counterpart of the weights-entry tests in
``test_cache_invalidation.py``: any change to the config, trace content,
policy, weights, or feature set must change a run's key, and a corrupted
entry must be discarded, never trusted.
"""

import json

import numpy as np
import pytest

from repro.common.config import SimConfig
from repro.core.controller import make_policy
import repro.exec.cache as cache_mod
from repro.exec.cache import RunCache, code_version, run_key, telemetry_key
from repro.exec.pool import SimTask, execute_sim_task, run_sim_tasks
from repro.experiments.runner import ModelMetrics
from repro.noc.simulator import run_simulation
from repro.traffic.trace import KIND_REQUEST, Trace

CFG = SimConfig(topology="mesh", radix=3, epoch_cycles=50)
FEATURES = ("f1", "f2")


def make_trace(shift: float = 0.0, name: str = "same-name") -> Trace:
    entries = [
        (i % 8, (i % 8) + 1, KIND_REQUEST, 5.0 * i + shift)
        for i in range(1, 60)
    ]
    return Trace.from_entries(entries, 9, name)


def key_with(**overrides) -> str:
    kw = dict(
        policy="pg",
        trace=make_trace(),
        config=CFG,
        weights=None,
        feature_names=FEATURES,
        feature_set_name="reduced-5",
        allowed_modes=None,
    )
    kw.update(overrides)
    return run_key(
        kw["policy"], kw["trace"], kw["config"], kw["weights"],
        kw["feature_names"], kw["feature_set_name"],
        allowed_modes=kw["allowed_modes"],
    )


def make_metrics(**overrides) -> ModelMetrics:
    kw = dict(
        model="pg",
        trace="same-name",
        throughput_flits_per_ns=0.5,
        avg_latency_ns=12.125,
        static_pj=123.5,
        dynamic_pj=44.25,
        gated_fraction=0.25,
        elapsed_ns=900.0,
        packets_delivered=42,
        mode_distribution={3: 0.5, 7: 0.5},
        wake_events=6.0,
    )
    kw.update(overrides)
    return ModelMetrics(**kw)


class TestRunKey:
    def test_stable_for_identical_inputs(self):
        assert key_with() == key_with()

    def test_changes_with_any_config_field(self):
        base = key_with()
        assert key_with(config=CFG.with_(t_idle=CFG.t_idle + 1)) != base
        assert key_with(config=CFG.with_(epoch_cycles=60)) != base
        assert key_with(config=CFG.with_(switching="wormhole")) != base
        assert key_with(config=CFG.with_(buffer_depth=CFG.buffer_depth + 1)) != base

    def test_ignores_non_semantic_extra(self):
        assert key_with(config=CFG.with_(extra={"note": "hi"})) == key_with()

    def test_changes_with_trace_content(self):
        # Same benchmark name, different timing — the regenerated-trace
        # failure mode (e.g. a different seed or duration).
        assert key_with(trace=make_trace(0.25)) != key_with()

    def test_changes_with_policy(self):
        assert key_with(policy="baseline") != key_with()

    def test_changes_with_weights(self):
        w = np.arange(6, dtype=float)
        base = key_with(weights=w)
        assert base != key_with()  # reactive vs trained
        assert key_with(weights=w + 1e-12) != base  # byte-exact identity
        assert key_with(weights=w.copy()) == base

    def test_changes_with_feature_set(self):
        assert key_with(feature_names=("f1", "f3")) != key_with()
        assert key_with(feature_set_name="full-41") != key_with()

    def test_changes_with_dvfs_ladder(self):
        base = key_with()
        assert key_with(allowed_modes=(3, 7)) != base
        assert key_with(allowed_modes=(3, 7)) != key_with(
            allowed_modes=(3, 5, 7))
        # Keyed by the ladder the policy runs, whatever the given order.
        assert key_with(allowed_modes=(7, 3, 3)) == key_with(
            allowed_modes=(3, 7))

    def test_code_version_is_stable_and_short(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestSimTaskKey:
    """A task's key splits only on what its run reads."""

    @pytest.fixture()
    def trace(self):
        return make_trace()

    def test_weightless_tasks_share_a_key_across_feature_sets(self, trace):
        reduced, full = (
            SimTask(policy="dozznoc", trace=trace, sim=CFG, feature_set=fs)
            for fs in ("reduced-5", "full-41")
        )
        assert reduced.cache_key() == full.cache_key()
        # The sharing is sound: a reactive run never reads its features.
        assert vars(execute_sim_task(reduced)) == vars(execute_sim_task(full))

    def test_proactive_tasks_split_on_feature_set(self, trace):
        w = np.arange(6, dtype=float)
        reduced, full = (
            SimTask(policy="dozznoc", trace=trace, sim=CFG, weights=w,
                    feature_set=fs)
            for fs in ("reduced-5", "full-41")
        )
        assert reduced.cache_key() != full.cache_key()

    def test_full_ladder_is_no_restriction(self, trace):
        def key(modes):
            return SimTask(policy="dozznoc", trace=trace, sim=CFG,
                           allowed_modes=modes).cache_key()

        assert key((3, 4, 5, 6, 7)) == key(None)
        assert key((7, 6, 5, 4, 3)) == key(None)
        assert key((3, 5, 7)) != key(None)


class TestRunCacheRoundTrip:
    def test_hit_returns_identical_metrics(self, tmp_path):
        cache = RunCache(tmp_path)
        metrics = make_metrics()
        cache.put("k" * 24, metrics)
        got = cache.get("k" * 24)
        assert got == metrics
        assert vars(got) == vars(metrics)
        assert cache.stats() == {"hits": 1, "misses": 0, "discarded": 0}

    def test_miss_on_absent_key(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("absent" + "0" * 18) is None
        assert cache.stats()["misses"] == 1

    def test_corrupted_entry_discarded_and_removed(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "c" * 24
        cache.put(key, make_metrics())
        cache.path_for(key).write_text("{ not json at all")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()
        assert cache.stats()["discarded"] == 1

    def test_truncated_entry_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "t" * 24
        cache.put(key, make_metrics())
        full = cache.path_for(key).read_text()
        cache.path_for(key).write_text(full[: len(full) // 2])
        assert cache.get(key) is None

    def test_wrong_key_payload_discarded(self, tmp_path):
        # An entry copied to the wrong address must not be trusted.
        cache = RunCache(tmp_path)
        cache.put("a" * 24, make_metrics())
        payload = cache.path_for("a" * 24).read_text()
        cache.path_for("b" * 24).write_text(payload)
        assert cache.get("b" * 24) is None

    def test_wrong_schema_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "s" * 24
        cache.put(key, make_metrics())
        payload = json.loads(cache.path_for(key).read_text())
        payload["schema"] = 999
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_missing_metric_field_discarded(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "m" * 24
        cache.put(key, make_metrics())
        payload = json.loads(cache.path_for(key).read_text())
        del payload["metrics"]["elapsed_ns"]
        cache.path_for(key).write_text(json.dumps(payload))
        assert cache.get(key) is None

    def test_mode_distribution_keys_round_trip_as_ints(self, tmp_path):
        cache = RunCache(tmp_path)
        key = "d" * 24
        cache.put(key, make_metrics(mode_distribution={3: 0.25, 6: 0.75}))
        got = cache.get(key)
        assert got.mode_distribution == {3: 0.25, 6: 0.75}
        assert all(isinstance(k, int) for k in got.mode_distribution)


class TestTelemetryEntries:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        key = telemetry_key(key_with())
        entry = ({"a_total": 3, "b_total": 0}, True)
        cache.put(key, entry, "telemetry")
        assert cache.get(key, "telemetry") == entry
        assert list(cache.get(key, "telemetry")[0]) == ["a_total", "b_total"]

    def test_key_follows_run_and_recorder(self, monkeypatch):
        base = telemetry_key(key_with())
        assert base not in (key_with(), telemetry_key(key_with(policy="lead")))
        monkeypatch.setattr(cache_mod, "telemetry_version",
                            lambda: "edited-recorder-0")
        assert telemetry_key(key_with()) != base

    @pytest.mark.parametrize("field, value", [
        ("counters", {"a_total": 1.5}),
        ("counters", [1, 2]),
        ("drained", 1),
        ("key", "x" * 24),
    ])
    def test_inconsistent_entry_discarded(self, tmp_path, field, value):
        cache = RunCache(tmp_path)
        key = telemetry_key(key_with())
        cache.put(key, ({"a_total": 3}, True), "telemetry")
        path = cache.path_for(key, "telemetry")
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        assert cache.get(key, "telemetry") is None
        assert cache.stats()["discarded"] == 1


class TestRunSimTasksThroughCache:
    @pytest.fixture()
    def task(self):
        entries = [(i % 9, (i + 2) % 9, KIND_REQUEST, 7.0 * i) for i in range(40)]
        trace = Trace.from_entries(entries, CFG.num_cores, "cache-sim")
        return SimTask(policy="pg", trace=trace, sim=CFG)

    def test_second_run_is_all_hits_and_identical(self, tmp_path, task):
        cache = RunCache(tmp_path)
        first = run_sim_tasks([task], cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 1, "discarded": 0}
        second = run_sim_tasks([task], cache=cache)
        assert cache.hits == 1
        assert vars(first[0]) == vars(second[0])

    def test_ladder_task_equals_a_direct_run(self, tmp_path, task):
        ladder = SimTask(policy="dozznoc", trace=task.trace, sim=task.sim,
                         allowed_modes=(3, 7))
        cache = RunCache(tmp_path)
        run_sim_tasks([ladder], cache=cache)
        (cached,) = run_sim_tasks([ladder], cache=cache)
        assert cache.hits == 1
        direct = run_simulation(
            task.sim, task.trace, make_policy("dozznoc", allowed_modes=(3, 7))
        )
        assert vars(cached) == vars(ModelMetrics.from_result(direct))

    def test_config_change_misses(self, tmp_path, task):
        cache = RunCache(tmp_path)
        run_sim_tasks([task], cache=cache)
        changed = SimTask(
            policy=task.policy,
            trace=task.trace,
            sim=task.sim.with_(t_idle=task.sim.t_idle + 2),
        )
        run_sim_tasks([changed], cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_weights_change_misses(self, tmp_path, task):
        cache = RunCache(tmp_path)
        key_none = task.cache_key()
        with_weights = SimTask(
            policy="dozznoc",
            trace=task.trace,
            sim=task.sim,
            weights=np.zeros((6, 5)),
        )
        assert with_weights.cache_key() != key_none
