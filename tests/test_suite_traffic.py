"""Tests for the 14-trace suite builder, its memo and its on-disk cache."""

import numpy as np
import pytest

from repro.traffic.benchmarks import (
    TEST_BENCHMARKS,
    TRAIN_BENCHMARKS,
    VALIDATION_BENCHMARKS,
)
import repro.traffic.suite as suite_mod
from repro.traffic.suite import TraceSuite, benchmark_names, build_suite


class TestBuildSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return build_suite(num_cores=16, duration_ns=600.0)

    def test_split_sizes(self, suite):
        assert len(suite.train) == 6
        assert len(suite.validation) == 3
        assert len(suite.test) == 5

    def test_names_match_split(self, suite):
        assert tuple(t.name for t in suite.train) == TRAIN_BENCHMARKS
        assert tuple(t.name for t in suite.validation) == VALIDATION_BENCHMARKS
        assert tuple(t.name for t in suite.test) == TEST_BENCHMARKS

    def test_all_traces_property(self, suite):
        assert len(suite.all_traces) == 14
        assert isinstance(suite, TraceSuite)

    def test_compressed_suite_shrinks(self):
        plain = build_suite(num_cores=16, duration_ns=1_500.0)
        comp = build_suite(num_cores=16, duration_ns=1_500.0, compressed=True)
        for a, b in zip(plain.all_traces, comp.all_traces):
            assert len(a) > 0  # at this duration every benchmark emits
            assert b.duration_ns == pytest.approx(0.6 * a.duration_ns)
            assert b.name.endswith(".compressed")

    def test_seed_changes_suite(self):
        a = build_suite(num_cores=16, duration_ns=600.0, seed=0)
        b = build_suite(num_cores=16, duration_ns=600.0, seed=1)
        assert len(a.train[0]) != len(b.train[0]) or not np.array_equal(
            a.train[0].t_ns, b.train[0].t_ns
        )


class TestSuiteCache:
    def test_cache_writes_and_reuses(self, tmp_path, monkeypatch):
        a = build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        files = sorted(tmp_path.glob("*.npz"))
        assert len(files) == 14
        mtimes = [f.stat().st_mtime_ns for f in files]
        # Empty the in-process memo and forbid generation, so the second
        # build can only come from the files on disk.
        suite_mod._build_suite.cache_clear()

        def no_generation(*args, **kwargs):
            raise AssertionError("a cached trace was regenerated")

        monkeypatch.setattr(suite_mod, "generate_benchmark_trace",
                            no_generation)
        b = build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        assert b is not a
        assert [f.stat().st_mtime_ns for f in sorted(tmp_path.glob("*.npz"))] == mtimes
        for x, y in zip(a.all_traces, b.all_traces):
            assert np.array_equal(x.t_ns, y.t_ns)
            # Loaded traces are memoised too, so they are read-only.
            with pytest.raises(ValueError, match="read-only"):
                y.t_ns[0] = y.t_ns[0]

    def test_cache_key_includes_compression(self, tmp_path):
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path,
                    compressed=True)
        assert len(list(tmp_path.glob("*.npz"))) == 28


class TestSuiteMemo:
    def test_repeated_build_returns_the_same_suite(self):
        a = build_suite(num_cores=16, duration_ns=600.0)
        assert build_suite(16, 600.0, seed=0, compressed=False) is a

    def test_memoised_trace_is_read_only(self):
        trace = build_suite(num_cores=16, duration_ns=600.0).train[0]
        for column in (trace.src, trace.dst, trace.kind, trace.t_ns):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]

    def test_generates_each_trace_once(self, monkeypatch):
        calls = []
        real = suite_mod.generate_benchmark_trace

        def counting(name, *args):
            calls.append(name)
            return real(name, *args)

        monkeypatch.setattr(suite_mod, "generate_benchmark_trace", counting)
        # A seed no other test builds, so the memo starts empty for it.
        plain = build_suite(num_cores=16, duration_ns=300.0, seed=4321)
        comp = build_suite(num_cores=16, duration_ns=300.0, seed=4321,
                           compressed=True)
        build_suite(num_cores=16, duration_ns=300.0, seed=4321)
        assert sorted(calls) == benchmark_names()
        for a, b in zip(plain.all_traces, comp.all_traces):
            assert np.array_equal(b.t_ns, a.t_ns * 0.6)


class TestNames:
    def test_benchmark_names_sorted_and_complete(self):
        names = benchmark_names()
        assert names == sorted(names)
        assert len(names) == 14
