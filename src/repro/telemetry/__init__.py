"""Telemetry & profiling layer (zero-cost when disabled).

``repro.telemetry`` gives every run a window the end-of-run summary
cannot: per-epoch, per-router time series (mode decisions, buffer
occupancy, predicted vs measured utilization, wakeup/switch latencies)
plus mergeable counter/gauge/histogram aggregates,
wall-clock phase timers and optional cProfile capture.

Usage::

    from repro.telemetry import TelemetryRecorder
    tel = TelemetryRecorder()
    result = run_simulation(config, trace, policy, telemetry=tel)
    write_series(out_dir, "run", tel)
    write_summary(out_dir, "run", tel.metrics, tel.meta)

Design contract (tested):

* a run with ``telemetry=None`` executes no telemetry code and is
  bit-identical to pre-telemetry behaviour,
* a telemetry-on run is read-only instrumented — results are still
  bit-identical — and stays within the kernel's overhead budget
  (``benchmarks/bench_simulator_speed.py`` bounds it),
* summary merges are exact, associative and commutative, so campaign
  aggregates do not depend on ``--jobs`` or task ordering.

See ``docs/observability.md`` for the emitted schema.
"""

from repro.telemetry.diff import (
    diff_summaries,
    dir_summary,
    format_diff,
    format_summary,
)
from repro.telemetry.io import (
    TELEMETRY_SCHEMA,
    load_summary,
    validate_dir,
    write_series,
    write_summary,
)
from repro.telemetry.metrics import (
    MICRO,
    Counter,
    Gauge,
    Histogram,
    MetricSet,
    merge_metric_sets,
    quantize,
)
from repro.telemetry.recorder import (
    TelemetryRecorder,
    maybe_cprofile,
    write_profile,
)

__all__ = [
    "MICRO",
    "TELEMETRY_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSet",
    "TelemetryRecorder",
    "diff_summaries",
    "dir_summary",
    "format_diff",
    "format_summary",
    "load_summary",
    "maybe_cprofile",
    "merge_metric_sets",
    "quantize",
    "validate_dir",
    "write_profile",
    "write_series",
    "write_summary",
]
