"""Execution layer: parallel fan-out + content-addressed result caching.

The campaign and sweep experiments decompose into independent
(model, trace) simulations and (model, trace) training captures.  This
package provides the pieces that make paper-scale sweeps fast and
resumable:

* :mod:`repro.exec.pool` — a process-pool runner (``jobs=N``) producing
  bit-identical results to serial execution, in task order; a failing
  task's exception reaches the caller,
* :mod:`repro.exec.cache` — a content-addressed on-disk cache of
  simulation results, reactive training captures and trained weights
  keyed by config, trace content, policy, weights and code version, so
  re-running a campaign only simulates and fits what changed (plus the
  benchmark suites and the telemetry experiment's counters those runs
  read and report).
  Each run is cached the moment it finishes, so the cache is also the
  resume record: a killed campaign rerun over the same cache simulates
  only what had not finished.

The re-exports below resolve on first access, so importing
:mod:`repro.exec.cache` to read a cache entry loads no kernel.
"""

from repro._lazy import lazy_exports

#: Re-exports, resolved on first access: name -> defining module.
_EXPORTS = {
    "RunCache": "repro.exec.cache",
    "capture_key": "repro.exec.cache",
    "code_version": "repro.exec.cache",
    "run_cache_for": "repro.exec.cache",
    "run_key": "repro.exec.cache",
    "CaptureTask": "repro.exec.pool",
    "PoolHealth": "repro.exec.pool",
    "SimTask": "repro.exec.pool",
    "TrainTask": "repro.exec.pool",
    "capture_feature_set": "repro.exec.pool",
    "effective_jobs": "repro.exec.pool",
    "execute_capture_task": "repro.exec.pool",
    "execute_sim_task": "repro.exec.pool",
    "feature_set_spec": "repro.exec.pool",
    "map_tasks": "repro.exec.pool",
    "resolve_feature_set": "repro.exec.pool",
    "run_capture_tasks": "repro.exec.pool",
    "run_sim_tasks": "repro.exec.pool",
    "run_train_tasks": "repro.exec.pool",
    "train_models": "repro.exec.pool",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
