"""Capture once, train many: reactive training captures as cached tasks.

A reactive capture reads no weights and charges no label energy, so its
``(X, y)`` depends only on (policy, trace, SimConfig, kernel code).  The
exec layer therefore runs each capture once, at the narrowest canonical
feature set covering the request, caches it in the run cache under its
own entry kind, and slices columns by name for narrower requests.  These
tests pin the three things that makes safe:

* a reduced-5 capture sliced to any of fig9's single-feature sets equals
  that set's own capture, byte for byte, on both kernels;
* anything reduced-5 cannot cover (full-41) is captured as itself;
* cache entries round-trip exactly, and damaged or stale ones are
  discarded and recaptured, never trusted.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.exec.cache as cache_mod
import repro.exec.pool as pool_mod
from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.core.features import (
    FULL_FEATURES,
    REDUCED_FEATURES,
    SINGLE_FEATURE_CANDIDATES,
    single_feature_set,
)
from repro.exec.cache import RunCache
from repro.exec.pool import (
    CaptureTask,
    capture_feature_set,
    run_capture_tasks,
    training_set_group,
)
from repro.experiments.campaign import CampaignConfig, train_ml_models
from repro.experiments.figures import EvalScale, fig9_feature_accuracy
from repro.ml.training import collect_dataset
from repro.noc.simulator import run_simulation
from repro.traffic.benchmarks import generate_benchmark_trace
from repro.traffic.suite import build_suite
from repro.traffic.trace import trace_fingerprint

MESH = SimConfig(topology="mesh", radix=4, epoch_cycles=100)
CMESH = SimConfig(topology="cmesh", radix=2, concentration=4,
                  epoch_cycles=100)

SINGLE_SETS = [single_feature_set(f) for f in SINGLE_FEATURE_CANDIDATES]


def own_capture(config, trace, policy, feature_set):
    """The capture a request would get without slicing: its own run."""
    result = run_simulation(
        config, trace,
        make_policy(policy, weights=None, feature_set=feature_set),
        collect_features=True,
    )
    return result.stats.training_matrices()


def assert_bytes_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def captures(monkeypatch):
    """Records every capture run as ``(trace name, feature set name)``."""
    seen: list[tuple[str, str]] = []
    real = pool_mod.run_simulation

    def counting(config, trace, policy, *args, **kwargs):
        if kwargs.get("collect_features"):
            seen.append((trace.name, policy.feature_set.name))
        return real(config, trace, policy, *args, **kwargs)

    monkeypatch.setattr(pool_mod, "run_simulation", counting)
    return seen


# --------------------------------------------------------------------- #
# Slicing a reduced-5 capture equals a per-set capture
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize("topology", ["mesh", "cmesh"])
@pytest.mark.parametrize("policy", ["dozznoc", "lead", "turbo"])
def test_sliced_reduced5_equals_single_feature_capture(
    policy, topology, backend, captures
):
    config = (MESH if topology == "mesh" else CMESH).with_(backend=backend)
    trace = generate_benchmark_trace(
        "canneal", num_cores=config.num_cores, duration_ns=1200.0, seed=0
    )
    tasks = [CaptureTask(policy, trace, config, fs) for fs in SINGLE_SETS]
    got = run_capture_tasks(tasks)
    # One reduced-5 run covers all four requests.
    assert captures == [(trace.name, REDUCED_FEATURES.name)]
    for fs, sliced in zip(SINGLE_SETS, got):
        assert capture_feature_set(fs) is REDUCED_FEATURES
        want = own_capture(config, trace, policy, fs)
        assert want[0].shape[0] > 0
        assert_bytes_equal(sliced, want)


def test_full41_request_is_captured_as_full41(captures):
    trace = generate_benchmark_trace("fft", num_cores=16, duration_ns=800.0)
    assert capture_feature_set(FULL_FEATURES) is FULL_FEATURES
    mixed = FULL_FEATURES.subset(["bias", "ibu", "prev_ibu"])
    assert capture_feature_set(mixed) is mixed
    x, y = collect_dataset("dozznoc", [trace], MESH, FULL_FEATURES)
    assert captures == [(trace.name, FULL_FEATURES.name)]
    assert x.shape[1] == len(FULL_FEATURES)
    assert_bytes_equal((x, y), own_capture(MESH, trace, "dozznoc",
                                           FULL_FEATURES))


def test_capture_keys_never_alias_run_keys():
    trace = generate_benchmark_trace("fft", num_cores=16, duration_ns=400.0)
    other = generate_benchmark_trace("lu", num_cores=16, duration_ns=400.0)
    task = CaptureTask("dozznoc", trace, MESH)
    run = pool_mod.SimTask("dozznoc", trace, MESH)
    assert task.cache_key() != run.cache_key()
    # One entry per (policy, config, captured set, group): every trace of
    # the group and every set reduced-5 covers share it; anything else
    # has its own.
    assert CaptureTask("dozznoc", other, MESH).cache_key() == task.cache_key()
    for fs in SINGLE_SETS:
        assert CaptureTask("dozznoc", trace, MESH, fs).cache_key() == (
            task.cache_key()
        )
    for changed in (
        CaptureTask("dozznoc", trace, MESH, FULL_FEATURES),
        CaptureTask("lead", trace, MESH),
        CaptureTask("dozznoc", trace, MESH.with_(epoch_cycles=150)),
        CaptureTask("dozznoc", trace, MESH,
                    group=training_set_group([other])),
    ):
        assert changed.cache_key() != task.cache_key()


# --------------------------------------------------------------------- #
# The cache: exact round trips, damaged entries recaptured
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def trace():
    return generate_benchmark_trace("fft", num_cores=16, duration_ns=800.0)


def test_cache_round_trip_is_byte_exact(tmp_path, trace, captures):
    cache = RunCache(tmp_path)
    task = CaptureTask("dozznoc", trace, MESH)
    (first,) = run_capture_tasks([task], cache=cache)
    assert len(captures) == 1
    assert cache.path_for(task.cache_key(), kind="capture").is_file()
    stored = cache.get(task.cache_key(), kind="capture")
    assert list(stored) == [trace_fingerprint(trace)]
    assert_bytes_equal(stored[trace_fingerprint(trace)], first)
    (again,) = run_capture_tasks([task], cache=cache)
    assert len(captures) == 1  # a hit: no second capture
    assert_bytes_equal(again, first)
    # A run lookup under the same key never sees the capture entry.
    assert cache.get(task.cache_key()) is None


def test_new_traces_join_their_entry(tmp_path, trace, captures):
    cache = RunCache(tmp_path)
    other = generate_benchmark_trace("lu", num_cores=16, duration_ns=800.0)
    (first,) = run_capture_tasks([CaptureTask("dozznoc", trace, MESH)],
                                 cache=cache)
    both = run_capture_tasks(
        [CaptureTask("dozznoc", t, MESH) for t in (trace, other)], cache=cache
    )
    assert [name for name, _ in captures] == [trace.name, other.name]
    assert_bytes_equal(both[0], first)
    assert_bytes_equal(both[1], own_capture(MESH, other, "dozznoc",
                                            REDUCED_FEATURES))
    stored = cache.get(CaptureTask("dozznoc", trace, MESH).cache_key(),
                       kind="capture")
    assert sorted(stored) == sorted(map(trace_fingerprint, (trace, other)))


def test_each_training_set_has_its_own_entry(tmp_path, trace, captures):
    # Entries are bounded by their group: captures serving another
    # training set (another seed or duration) never grow this one.
    cache = RunCache(tmp_path)
    other = generate_benchmark_trace("lu", num_cores=16, duration_ns=800.0)
    tasks = [
        CaptureTask("dozznoc", t, MESH, group=training_set_group([t]))
        for t in (trace, other)
    ]
    for task in tasks:
        run_capture_tasks([task], cache=cache)
    assert len(list(tmp_path.glob("capture-*.npz"))) == 2
    for task in tasks:
        stored = cache.get(task.cache_key(), kind="capture")
        assert list(stored) == [trace_fingerprint(task.trace)]


def _truncate(cache, key):
    path = cache.path_for(key, kind="capture")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _wrong_key(cache, key):
    other = "0" * len(key)
    cache.put(other, cache.get(key, kind="capture"), kind="capture")
    cache.path_for(other, kind="capture").replace(
        cache.path_for(key, kind="capture")
    )


def _wrong_schema(cache, key, monkeypatch):
    entry = cache.get(key, kind="capture")
    with monkeypatch.context() as m:
        m.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION - 1)
        cache.put(key, entry, kind="capture")


def _stale_code(cache, key, monkeypatch):
    entry = cache.get(key, kind="capture")
    with monkeypatch.context() as m:
        m.setattr(cache_mod, "code_version", lambda: "stale-code-0000")
        cache.put(key, entry, kind="capture")


def _bad_shape(cache, key):
    entry = cache.get(key, kind="capture")
    cache.put(key, {fp: (x, y[:-1]) for fp, (x, y) in entry.items()},
              kind="capture")


@pytest.mark.parametrize(
    "damage",
    ["truncated", "wrong-key", "wrong-schema", "stale-code", "bad-shape"],
)
def test_damaged_entry_is_discarded_and_recaptured(
    tmp_path, trace, captures, monkeypatch, damage
):
    cache = RunCache(tmp_path)
    task = CaptureTask("dozznoc", trace, MESH)
    (first,) = run_capture_tasks([task], cache=cache)
    key = task.cache_key()
    if damage == "truncated":
        _truncate(cache, key)
    elif damage == "wrong-key":
        _wrong_key(cache, key)
    elif damage == "wrong-schema":
        _wrong_schema(cache, key, monkeypatch)
    elif damage == "stale-code":
        _stale_code(cache, key, monkeypatch)
    else:
        _bad_shape(cache, key)
    fresh = RunCache(tmp_path)
    assert fresh.get(key, kind="capture") is None
    assert fresh.stats()["discarded"] == 1
    assert not fresh.path_for(key, kind="capture").exists()
    (again,) = run_capture_tasks([task], cache=fresh)
    assert len(captures) == 2  # recaptured
    assert_bytes_equal(again, first)
    assert_bytes_equal(
        fresh.get(key, kind="capture")[trace_fingerprint(trace)], first
    )


def test_run_entry_round_trip_still_reads_metrics(tmp_path, trace):
    run = pool_mod.SimTask("pg", trace, MESH)
    cache = RunCache(tmp_path)
    (metrics,) = pool_mod.run_sim_tasks([run], cache=cache)
    assert cache.get(run.cache_key()) == metrics
    assert cache.get(run.cache_key(), kind="capture") is None


# --------------------------------------------------------------------- #
# Callers share captures through the cache
# --------------------------------------------------------------------- #


def test_fig9_after_training_runs_no_training_capture(tmp_path, captures):
    scale = EvalScale(
        sim=SimConfig(topology="mesh", radix=4, epoch_cycles=150),
        duration_ns=1000.0,
        cache_dir=tmp_path,
    )
    suite = build_suite(num_cores=scale.sim.num_cores,
                        duration_ns=scale.duration_ns, seed=scale.seed)
    train_names = {t.name for t in suite.train}
    campaign = CampaignConfig(
        sim=scale.sim, duration_ns=scale.duration_ns, seed=scale.seed,
        models=("baseline", "dozznoc"), cache_dir=tmp_path,
    )
    train_ml_models(suite, campaign)
    assert {name for name, _ in captures} >= train_names  # filled the cache
    captures.clear()
    accs = fig9_feature_accuracy(scale)
    assert [a.feature for a in accs] == list(SINGLE_FEATURE_CANDIDATES)
    assert not [c for c in captures if c[0] in train_names]
    # Each test trace is captured once, at reduced-5, for all four sets.
    assert sorted(captures) == sorted(
        (t.name, REDUCED_FEATURES.name) for t in suite.test
    )
