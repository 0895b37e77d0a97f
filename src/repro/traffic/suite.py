"""The 14-trace evaluation suite (Section IV.A).

Convenience constructors for the paper's train / validation / test split
(6 / 3 / 5 traces) with optional compression, an in-process memo so
repeated builds in one run reuse identical traces, and a run-cache
entry per plain suite so a repeated run over one cache directory
generates no trace at all.
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: The 14 benchmark names in suite order: train, validation, test.
SUITE_ORDER = TRAIN_BENCHMARKS + VALIDATION_BENCHMARKS + TEST_BENCHMARKS


@dataclass(frozen=True)
class TraceSuite:
    """The full benchmark suite, split as the paper splits it."""

    train: tuple[Trace, ...]
    validation: tuple[Trace, ...]
    test: tuple[Trace, ...]

    @property
    def all_traces(self) -> tuple[Trace, ...]:
        """All 14 traces, in :data:`SUITE_ORDER`."""
        return self.train + self.validation + self.test


def _read_only(trace: Trace) -> Trace:
    """Freeze a trace's columns: memoised traces are shared by callers."""
    for column in (trace.src, trace.dst, trace.kind, trace.t_ns):
        column.flags.writeable = False
    return trace


#: Recipe ``(num_cores, duration_ns, seed, compressed)`` -> suite, least
#: recently used first.  A repro-all builds three suites: plain and
#: compressed at one core count, plain at a second.  A paper-scale suite
#: (64 cores, 12 us) holds about 7 MB of trace arrays, so eight entries
#: stay well under 100 MB.
_MEMO: dict[tuple, TraceSuite] = {}
_MEMO_SIZE = 8


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
    to every trace of the uncompressed suite.  When ``cache_dir`` (an
    experiment cache directory) is given, the plain suite is one
    ``suite`` entry of the run cache under it
    (:func:`repro.exec.cache.suite_key`).  A compressed suite is never
    stored: it is derived from the plain one, which takes about 1 ms.

    Memoised on the recipe, not on ``cache_dir``: a repeated call in one
    process returns the same suite, whose trace arrays are read-only.
    """
    recipe = (num_cores, float(duration_ns), seed, compressed)
    suite = _MEMO.pop(recipe, None)
    if suite is None:
        if compressed:
            plain = build_suite(num_cores, duration_ns, seed, False,
                                cache_dir).all_traces
            traces = tuple(compress_trace(trace) for trace in plain)
        else:
            traces = _plain_traces(num_cores, duration_ns, seed, cache_dir)
        suite = _split(tuple(_read_only(trace) for trace in traces))
    _MEMO[recipe] = suite
    if len(_MEMO) > _MEMO_SIZE:
        del _MEMO[next(iter(_MEMO))]
    return suite


def suite_for(spec, compressed: bool = False) -> TraceSuite:
    """The suite an experiment spec runs on, through the spec's cache.

    ``spec`` is an :class:`~repro.experiments.profiles.EvalScale` or a
    :class:`~repro.experiments.campaign.CampaignConfig`: anything with
    ``sim``, ``duration_ns``, ``seed`` and ``cache_dir``.
    """
    return build_suite(
        num_cores=spec.sim.num_cores,
        duration_ns=spec.duration_ns,
        seed=spec.seed,
        compressed=compressed,
        cache_dir=spec.cache_dir,
    )


def _plain_traces(
    num_cores: int,
    duration_ns: float,
    seed: int,
    cache_dir: str | Path | None,
) -> tuple[Trace, ...]:
    """The 14 plain traces in :data:`SUITE_ORDER`, read from the run cache
    under ``cache_dir`` when there, else generated (and stored when a
    cache is given)."""
    cache = None
    if cache_dir is not None:
        # Imported here: repro.exec imports this package at load time.
        from repro.exec.cache import run_cache_for, suite_key

        cache = run_cache_for(cache_dir)
        key = suite_key(num_cores, duration_ns, seed)
        traces = cache.get(key, "suite")
        if traces is not None:
            return traces
    traces = tuple(
        generate_benchmark_trace(name, num_cores, duration_ns, seed)
        for name in SUITE_ORDER
    )
    if cache is not None:
        cache.put(key, traces, "suite")
    return traces


def _split(traces: tuple[Trace, ...]) -> TraceSuite:
    """Cut 14 traces, in :data:`SUITE_ORDER`, into a suite."""
    n_train = len(TRAIN_BENCHMARKS)
    n_fit = n_train + len(VALIDATION_BENCHMARKS)
    return TraceSuite(
        train=traces[:n_train],
        validation=traces[n_train:n_fit],
        test=traces[n_fit:],
    )


def benchmark_names() -> list[str]:
    """All 14 benchmark names, suite order."""
    return sorted(BENCHMARKS)
