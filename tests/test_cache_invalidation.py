"""Tests that the trained-weights cache is content-sensitive."""

from repro.common.config import SimConfig
from repro.exec.pool import TrainTask, run_train_tasks
from repro.ml.training import _cache_key, _trace_fingerprint
from repro.core.features import REDUCED_FEATURES
from repro.traffic.trace import KIND_REQUEST, Trace


def make_trace(shift: float, name: str = "same-name") -> Trace:
    entries = [
        (i % 8, (i % 8) + 1, KIND_REQUEST, 5.0 * i + shift)
        for i in range(1, 120)
    ]
    return Trace.from_entries(entries, 9, name)


CFG = SimConfig(topology="mesh", radix=3, epoch_cycles=50)


def train_weights(policy, train_traces, validation_traces, config, cache_dir):
    """One model's weights through the trained-weights cache."""
    (weights,) = run_train_tasks([TrainTask(
        policy, tuple(train_traces), tuple(validation_traces), config,
        cache_dir=cache_dir,
    )])
    return weights


class TestFingerprint:
    def test_identical_traces_same_fingerprint(self):
        assert _trace_fingerprint(make_trace(0.0)) == _trace_fingerprint(
            make_trace(0.0)
        )

    def test_same_name_different_content_differs(self):
        # The failure mode this guards: regenerated traces keep their
        # benchmark name but carry different timing.
        assert _trace_fingerprint(make_trace(0.0)) != _trace_fingerprint(
            make_trace(0.25)
        )

    def test_empty_trace_fingerprints(self):
        a = _trace_fingerprint(Trace.empty(9, "x"))
        b = _trace_fingerprint(Trace.empty(9, "y"))
        assert a != b


class TestCacheKey:
    def test_key_changes_with_trace_content(self):
        a = _cache_key("dozznoc", REDUCED_FEATURES, CFG,
                       [make_trace(0.0)], [make_trace(1.0)], (0.1,))
        b = _cache_key("dozznoc", REDUCED_FEATURES, CFG,
                       [make_trace(0.5)], [make_trace(1.0)], (0.1,))
        assert a != b

    def test_key_changes_with_switching_mode(self):
        traces = ([make_trace(0.0)], [make_trace(1.0)])
        a = _cache_key("dozznoc", REDUCED_FEATURES, CFG, *traces, (0.1,))
        b = _cache_key("dozznoc", REDUCED_FEATURES,
                       CFG.with_(switching="wormhole"), *traces, (0.1,))
        assert a != b

    def test_retuned_traces_retrain(self, tmp_path):
        w1 = train_weights("lead", [make_trace(0.0)], [make_trace(1.0)], CFG,
                           cache_dir=tmp_path)
        w2 = train_weights("lead", [make_trace(0.7)], [make_trace(1.0)], CFG,
                           cache_dir=tmp_path)
        # Two cache entries, not a stale reuse of the first weights.
        assert len(list(tmp_path.glob("ridge-*.npz"))) == 2
        assert w1.shape == w2.shape
        # And an identical request hits the cache (still two files).
        train_weights("lead", [make_trace(0.7)], [make_trace(1.0)], CFG,
                      cache_dir=tmp_path)
        assert len(list(tmp_path.glob("ridge-*.npz"))) == 2
