"""Execution layer: parallel fan-out + content-addressed result caching.

The campaign and sweep experiments decompose into independent
(model, trace) simulations and per-model training runs.  This package
provides the pieces that make paper-scale sweeps fast and resumable:

* :mod:`repro.exec.pool` — a process-pool runner (``jobs=N``) with a
  graceful serial fallback, producing bit-identical results to serial
  execution,
* :mod:`repro.exec.cache` — a content-addressed on-disk cache of
  simulation results keyed by config, trace content, policy, weights and
  code version, so re-running a campaign only simulates what changed,
* :mod:`repro.exec.journal` — a crash-safe checkpoint of finished task
  keys, so a killed campaign reports how much work it resumed.
"""

from repro.exec.cache import RunCache, code_version, run_key
from repro.exec.journal import CampaignJournal
from repro.exec.pool import (
    PoolHealth,
    SimTask,
    TrainTask,
    effective_jobs,
    execute_sim_task,
    execute_train_task,
    execute_train_weights,
    feature_set_spec,
    map_tasks,
    resolve_feature_set,
    run_sim_tasks,
    run_train_tasks,
)

__all__ = [
    "CampaignJournal",
    "PoolHealth",
    "RunCache",
    "SimTask",
    "TrainTask",
    "code_version",
    "effective_jobs",
    "execute_sim_task",
    "execute_train_task",
    "execute_train_weights",
    "feature_set_spec",
    "map_tasks",
    "resolve_feature_set",
    "run_key",
    "run_sim_tasks",
    "run_train_tasks",
]
