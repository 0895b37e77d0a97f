"""Tests for the 14-trace suite builder, its memo and its run-cache entry."""

import numpy as np
import pytest

from repro.traffic.benchmarks import (
    TEST_BENCHMARKS,
    TRAIN_BENCHMARKS,
    VALIDATION_BENCHMARKS,
)
import repro.exec.cache as cache_mod
import repro.traffic.suite as suite_mod
from repro.exec.cache import RunCache, suite_key
from repro.traffic.compression import compress_trace
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


def _no_generation(*args, **kwargs):
    raise AssertionError("a cached trace was regenerated")


def _counting(monkeypatch) -> list:
    """Record every generated trace's name in the returned list."""
    calls = []
    real = suite_mod.generate_benchmark_trace

    def counting(name, *args):
        calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(suite_mod, "generate_benchmark_trace", counting)
    return calls


class TestSuiteCache:
    """One ``suite`` run-cache entry per plain suite."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        # Every build must reach the cache, not an earlier test's memo.
        monkeypatch.setattr(suite_mod, "_MEMO", {})

    @staticmethod
    def entries(cache_dir) -> list:
        return sorted((cache_dir / "runs").glob("suite-*.npz"))

    def test_cache_writes_and_reuses(self, tmp_path, monkeypatch):
        a = build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        (entry,) = self.entries(tmp_path)
        mtime = entry.stat().st_mtime_ns
        # Empty the in-process memo and forbid generation, so the second
        # build can only come from the entry on disk.
        suite_mod._MEMO.clear()
        monkeypatch.setattr(suite_mod, "generate_benchmark_trace",
                            _no_generation)
        b = build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        assert b is not a
        assert self.entries(tmp_path) == [entry]
        assert entry.stat().st_mtime_ns == mtime
        assert [t.name for t in b.all_traces] == [t.name for t in a.all_traces]
        for x, y in zip(a.all_traces, b.all_traces):
            assert y.num_cores == x.num_cores
            for column in ("src", "dst", "kind", "t_ns"):
                cx, cy = getattr(x, column), getattr(y, column)
                assert cy.dtype == cx.dtype
                assert cy.tobytes() == cx.tobytes()
                # Loaded traces are memoised too, so they are read-only.
                assert not cy.flags.writeable

    def test_compressed_suite_derives_from_cached_plain(self, tmp_path,
                                                        monkeypatch):
        plain = build_suite(num_cores=16, duration_ns=400.0,
                            cache_dir=tmp_path)
        suite_mod._MEMO.clear()
        monkeypatch.setattr(suite_mod, "generate_benchmark_trace",
                            _no_generation)
        comp = build_suite(num_cores=16, duration_ns=400.0, compressed=True,
                           cache_dir=tmp_path)
        # Compressed suites are derived, never stored.
        assert len(self.entries(tmp_path)) == 1
        for a, b in zip(plain.all_traces, comp.all_traces):
            fresh = compress_trace(a)
            assert b.name == fresh.name
            for column in ("src", "dst", "kind", "t_ns"):
                assert getattr(b, column).tobytes() == \
                    getattr(fresh, column).tobytes()

    def test_plain_suite_is_generated_once_per_process(self, tmp_path,
                                                       monkeypatch):
        calls = _counting(monkeypatch)
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        build_suite(num_cores=16, duration_ns=400.0, compressed=True)
        build_suite(num_cores=16, duration_ns=400.0, compressed=True,
                    cache_dir=tmp_path)
        assert sorted(calls) == benchmark_names()

    def test_traffic_edit_misses(self, tmp_path, monkeypatch):
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        (old,) = self.entries(tmp_path)
        suite_mod._MEMO.clear()
        monkeypatch.setattr(cache_mod, "traffic_version",
                            lambda: "edited-traffic-0")
        calls = _counting(monkeypatch)
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        assert sorted(calls) == benchmark_names()
        assert len(self.entries(tmp_path)) == 2
        assert old in self.entries(tmp_path)

    def test_kernel_edit_keeps_suites(self, tmp_path, monkeypatch):
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        suite_mod._MEMO.clear()
        monkeypatch.setattr(cache_mod, "code_version",
                            lambda: "edited-kernel-0")
        monkeypatch.setattr(suite_mod, "generate_benchmark_trace",
                            _no_generation)
        build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        assert len(self.entries(tmp_path)) == 1

    def test_truncated_entry_is_discarded_and_regenerated(self, tmp_path,
                                                         monkeypatch):
        a = build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        (entry,) = self.entries(tmp_path)
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        suite_mod._MEMO.clear()
        calls = _counting(monkeypatch)
        b = build_suite(num_cores=16, duration_ns=400.0, cache_dir=tmp_path)
        assert sorted(calls) == benchmark_names()
        for x, y in zip(a.all_traces, b.all_traces):
            assert np.array_equal(x.t_ns, y.t_ns)
        # The regenerated suite was stored whole again.
        cache = RunCache(tmp_path / "runs")
        assert cache.get(suite_key(16, 400.0, 0), "suite") is not None
        assert cache.discarded == 0

    @pytest.mark.parametrize("defect", ["dtype", "names", "invalid"])
    def test_inconsistent_entry_is_discarded(self, tmp_path, defect):
        key = suite_key(16, 1_500.0, 0)
        cache = RunCache(tmp_path)
        traces = build_suite(num_cores=16, duration_ns=1_500.0).all_traces
        cache.put(key, traces, "suite")
        path = cache.path_for(key, "suite")
        with np.load(path) as entry:
            data = dict(entry)
        if defect == "dtype":
            data["src_0"] = data["src_0"].astype(np.int64)
        elif defect == "names":
            data["names"] = data["names"][::-1]
        else:  # a self-addressed packet, which Trace rejects on load
            data["src_0"][0] = data["dst_0"][0]
        np.savez(path, **data)
        assert cache.get(key, "suite") is None
        assert cache.discarded == 1
        assert not path.exists()


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
        calls = _counting(monkeypatch)
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
