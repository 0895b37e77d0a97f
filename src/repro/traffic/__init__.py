"""Traffic: the trace format, benchmark-signature generators,
compression, and the paper's 14-trace suite."""

from repro.traffic.trace import (
    Trace,
    KIND_REQUEST,
    KIND_RESPONSE,
    KIND_NAMES,
)
from repro.traffic.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    TRAIN_BENCHMARKS,
    VALIDATION_BENCHMARKS,
    TEST_BENCHMARKS,
    generate_benchmark_trace,
)
from repro.traffic.compression import (
    compress_trace,
    squeeze_global_gaps,
    compression_ratio,
    DEFAULT_COMPRESSION_FACTOR,
)
from repro.traffic.suite import TraceSuite, build_suite, benchmark_names

__all__ = [
    "Trace",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_NAMES",
    "BENCHMARKS",
    "BenchmarkSpec",
    "TRAIN_BENCHMARKS",
    "VALIDATION_BENCHMARKS",
    "TEST_BENCHMARKS",
    "generate_benchmark_trace",
    "compress_trace",
    "squeeze_global_gaps",
    "compression_ratio",
    "DEFAULT_COMPRESSION_FACTOR",
    "TraceSuite",
    "build_suite",
    "benchmark_names",
]
