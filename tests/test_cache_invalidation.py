"""Tests that the trained-weights cache is content-sensitive.

Trained weights are a ``weights`` entry of the run cache.  Its key must
change with everything :func:`repro.exec.pool.train_models` reads for a
task, so a warm cache never serves weights a cold run would not fit.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.config import SimConfig
from repro.core.features import FULL_FEATURES
import repro.exec.cache as cache_mod
import repro.exec.pool as pool_mod
from repro.exec.cache import RunCache
from repro.exec.pool import TrainTask, run_train_tasks
from repro.traffic.trace import KIND_REQUEST, Trace, trace_fingerprint


def make_trace(shift: float, name: str = "same-name") -> Trace:
    entries = [
        (i % 8, (i % 8) + 1, KIND_REQUEST, 5.0 * i + shift)
        for i in range(1, 120)
    ]
    return Trace.from_entries(entries, 9, name)


CFG = SimConfig(topology="mesh", radix=3, epoch_cycles=50)


def make_task(cache_dir=None, **changes) -> TrainTask:
    task = TrainTask("lead", (make_trace(0.0),), (make_trace(1.0),), CFG,
                     cache_dir=cache_dir)
    return dataclasses.replace(task, **changes)


def weights_files(cache_dir) -> list:
    return sorted((cache_dir / "runs").glob("weights-*.npz"))


class TestFingerprint:
    def test_identical_traces_same_fingerprint(self):
        assert trace_fingerprint(make_trace(0.0)) == trace_fingerprint(
            make_trace(0.0)
        )

    def test_same_name_different_content_differs(self):
        # The failure mode this guards: regenerated traces keep their
        # benchmark name but carry different timing.
        assert trace_fingerprint(make_trace(0.0)) != trace_fingerprint(
            make_trace(0.25)
        )

    def test_empty_trace_fingerprints(self):
        a = trace_fingerprint(Trace.empty(9, "x"))
        b = trace_fingerprint(Trace.empty(9, "y"))
        assert a != b


#: One changed value per semantic SimConfig field, each valid on its own
#: against ``_KEY_CFG``.
_CONFIG_CHANGES = {
    "topology": "mesh",
    "radix": 4,
    "concentration": 2,
    "buffer_depth": 10,
    "request_flits": 2,
    "response_flits": 4,
    "epoch_cycles": 60,
    "t_idle": 5,
    "horizon_ns": 900.0,
    "drain_margin": 3.0,
    "switching": "wormhole",
    "backend": "object",
    "seed": 1,
}
_KEY_CFG = SimConfig(topology="cmesh", radix=3, epoch_cycles=50)


class TestCacheKey:
    def test_identical_tasks_share_a_key(self):
        assert make_task().cache_key() == make_task().cache_key()

    def test_key_changes_with_trace_content(self):
        a = make_task().cache_key()
        b = make_task(train_traces=(make_trace(0.5),)).cache_key()
        assert a != b

    def test_key_changes_with_switching_mode(self):
        a = make_task().cache_key()
        b = make_task(sim=CFG.with_(switching="wormhole")).cache_key()
        assert a != b

    @pytest.mark.parametrize("changes", [
        {"policy": "dozznoc"},
        {"lambdas": (0.1,)},
        {"lambdas": (1e-4, 1.00001e-4)},
        {"feature_set": FULL_FEATURES.name},
        {"validation_traces": (make_trace(1.5),)},
    ], ids=["policy", "lambdas", "lambda-precision", "feature-set",
            "validation-traces"])
    def test_key_changes_with_task_field(self, changes):
        assert make_task(**changes).cache_key() != make_task().cache_key()

    def test_every_config_field_is_covered(self):
        semantic = {f.name for f in dataclasses.fields(SimConfig)} - {"extra"}
        assert set(_CONFIG_CHANGES) == semantic

    @pytest.mark.parametrize("field", sorted(_CONFIG_CHANGES))
    def test_key_changes_with_config_field(self, field):
        base = make_task(sim=_KEY_CFG)
        edited = make_task(
            sim=_KEY_CFG.with_(**{field: _CONFIG_CHANGES[field]})
        )
        assert edited.cache_key() != base.cache_key()

    def test_key_changes_with_code_version(self, monkeypatch):
        before = make_task().cache_key()
        monkeypatch.setattr(cache_mod, "code_version", lambda: "edited")
        assert make_task().cache_key() != before

    def test_key_changes_with_training_sources(self, monkeypatch):
        before = make_task().cache_key()
        monkeypatch.setattr(cache_mod, "training_version", lambda: "edited")
        assert make_task().cache_key() != before

    def test_retuned_traces_retrain(self, tmp_path):
        (w1,) = run_train_tasks([make_task(tmp_path)])
        retuned = make_task(tmp_path, train_traces=(make_trace(0.7),))
        (w2,) = run_train_tasks([retuned])
        # Two cache entries, not a stale reuse of the first weights.
        assert len(weights_files(tmp_path)) == 2
        assert w1.shape == w2.shape
        # And an identical request hits the cache (still two files).
        run_train_tasks([retuned])
        assert len(weights_files(tmp_path)) == 2


class TestWeightsEntries:
    def test_code_edit_retrains(self, tmp_path, monkeypatch):
        task = make_task(tmp_path)
        (fresh,) = run_train_tasks([task])
        # Stand-in for weights fitted before a kernel edit: the cache
        # serves whatever the current key holds.
        stale = np.full_like(fresh, 123.0)
        RunCache(tmp_path / "runs").put(task.cache_key(), stale,
                                        kind="weights")
        (served,) = run_train_tasks([task])
        assert served.tobytes() == stale.tobytes()

        fits = []
        fit = pool_mod.fit_policy_model
        monkeypatch.setattr(pool_mod, "fit_policy_model",
                            lambda *a, **k: fits.append(a) or fit(*a, **k))
        monkeypatch.setattr(cache_mod, "code_version", lambda: "edited")
        (retrained,) = run_train_tasks([task])
        assert len(fits) == 1
        assert retrained.tobytes() == fresh.tobytes()
        assert len(weights_files(tmp_path)) == 2

    def test_truncated_entry_is_discarded_and_refit(self, tmp_path):
        task = make_task(tmp_path)
        (fresh,) = run_train_tasks([task])
        (path,) = weights_files(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        (refit,) = run_train_tasks([task])
        assert refit.tobytes() == fresh.tobytes()
        cache = RunCache(tmp_path / "runs")
        assert cache.get(task.cache_key(), kind="weights").tobytes() == (
            fresh.tobytes()
        )

    @pytest.mark.parametrize("bad", [
        np.ones((2, 2)), np.ones(5, dtype=np.float32),
    ], ids=["shape", "dtype"])
    def test_malformed_entry_is_discarded(self, tmp_path, bad):
        cache = RunCache(tmp_path)
        cache.put("k", bad, kind="weights")
        assert cache.get("k", kind="weights") is None
        assert cache.discarded == 1
        assert not cache.path_for("k", "weights").exists()
