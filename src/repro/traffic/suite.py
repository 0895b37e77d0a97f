"""The 14-trace evaluation suite (Section IV.A).

Convenience constructors for the paper's train / validation / test split
(6 / 3 / 5 traces) with optional compression, plus an on-disk cache so
repeated experiment runs reuse identical trace files, and an in-process
memo so repeated builds in one run reuse identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.traffic.benchmarks import (
    BENCHMARKS,
    TEST_BENCHMARKS,
    TRAIN_BENCHMARKS,
    VALIDATION_BENCHMARKS,
    generate_benchmark_trace,
)
from repro.traffic.compression import compress_trace
from repro.traffic.trace import Trace


@dataclass(frozen=True)
class TraceSuite:
    """The full benchmark suite, split as the paper splits it."""

    train: tuple[Trace, ...]
    validation: tuple[Trace, ...]
    test: tuple[Trace, ...]

    @property
    def all_traces(self) -> tuple[Trace, ...]:
        """All 14 traces, train + validation + test order."""
        return self.train + self.validation + self.test


def _read_only(trace: Trace) -> Trace:
    """Freeze a trace's columns: memoised traces are shared by callers."""
    for column in (trace.src, trace.dst, trace.kind, trace.t_ns):
        column.flags.writeable = False
    return trace


def build_suite(
    num_cores: int = 64,
    duration_ns: float = 20_000.0,
    seed: int = 0,
    compressed: bool = False,
    cache_dir: str | Path | None = None,
) -> TraceSuite:
    """Generate (or load from cache) the 14-benchmark suite.

    Parameters mirror :func:`repro.traffic.benchmarks.generate_benchmark_trace`;
    ``compressed`` applies :func:`repro.traffic.compression.compress_trace`
    to every trace of the uncompressed suite.  When ``cache_dir`` is
    given, traces are stored as ``.npz`` keyed by their full
    parameterization.

    Memoised on its arguments: a repeated call in one process returns
    the same suite, whose trace arrays are read-only.
    """
    return _build_suite(num_cores, duration_ns, seed, compressed, cache_dir)


#: A repro-all builds three distinct suites (plain, compressed, and a
#: second core count); eight leaves room to spare.  A paper-scale suite (64 cores, 20 us) holds ~12 MB of
#: trace arrays, so the memo stays under ~100 MB even when full.
@lru_cache(maxsize=8)
def _build_suite(
    num_cores: int,
    duration_ns: float,
    seed: int,
    compressed: bool,
    cache_dir: str | Path | None,
) -> TraceSuite:
    """:func:`build_suite`, memoised on its arguments in one order."""

    def build(name: str) -> Trace:
        if cache_dir is not None:
            key = f"{name}-{num_cores}-{duration_ns:g}-{seed}-{int(compressed)}.npz"
            path = Path(cache_dir) / key
            if path.exists():
                return _read_only(Trace.load_npz(path))
        if compressed:
            plain = _build_suite(num_cores, duration_ns, seed, False, None)
            trace = compress_trace(
                next(t for t in plain.all_traces if t.name == name)
            )
        else:
            trace = generate_benchmark_trace(
                name, num_cores, duration_ns, seed
            )
        if cache_dir is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            trace.save_npz(path)
        return _read_only(trace)

    return TraceSuite(
        train=tuple(build(n) for n in TRAIN_BENCHMARKS),
        validation=tuple(build(n) for n in VALIDATION_BENCHMARKS),
        test=tuple(build(n) for n in TEST_BENCHMARKS),
    )


def benchmark_names() -> list[str]:
    """All 14 benchmark names, suite order."""
    return sorted(BENCHMARKS)
