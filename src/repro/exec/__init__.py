"""Execution layer: parallel fan-out + content-addressed result caching.

The campaign and sweep experiments decompose into independent
(model, trace) simulations and (model, trace) training captures.  This
package provides the pieces that make paper-scale sweeps fast and
resumable:

* :mod:`repro.exec.pool` — a process-pool runner (``jobs=N``) with a
  graceful serial fallback, producing bit-identical results to serial
  execution,
* :mod:`repro.exec.cache` — a content-addressed on-disk cache of
  simulation results and reactive training captures keyed by config,
  trace content, policy, weights and code version, so re-running a
  campaign only simulates what changed (plus the benchmark suites and
  the telemetry experiment's counters those runs read and report),
* :mod:`repro.exec.journal` — a crash-safe checkpoint of finished task
  keys, so a killed campaign reports how much work it resumed.
"""

from repro.exec.cache import (
    RunCache,
    capture_key,
    code_version,
    run_cache_for,
    run_key,
)
from repro.exec.journal import CampaignJournal
from repro.exec.pool import (
    CaptureTask,
    PoolHealth,
    SimTask,
    TrainTask,
    capture_feature_set,
    effective_jobs,
    execute_capture_task,
    execute_sim_task,
    feature_set_spec,
    map_tasks,
    resolve_feature_set,
    run_capture_tasks,
    run_sim_tasks,
    run_train_tasks,
    train_models,
)

__all__ = [
    "CampaignJournal",
    "CaptureTask",
    "PoolHealth",
    "RunCache",
    "SimTask",
    "TrainTask",
    "capture_feature_set",
    "capture_key",
    "code_version",
    "effective_jobs",
    "execute_capture_task",
    "execute_sim_task",
    "feature_set_spec",
    "map_tasks",
    "resolve_feature_set",
    "run_cache_for",
    "run_capture_tasks",
    "run_key",
    "run_sim_tasks",
    "run_train_tasks",
    "train_models",
]
