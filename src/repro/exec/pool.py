"""Process-pool fan-out for independent simulation and capture tasks.

The campaign workload is embarrassingly parallel: every (model, trace)
evaluation run and every (model, trace) reactive training capture is
independent of the others.  This module fans those tasks over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* ``jobs=1`` (the default) never spawns a pool — everything runs inline,
* ``jobs<=0`` means "one worker per CPU",
* each fan-out owns one pool, shut down before it returns,
* results come back in task order; a task's exception (or a broken
  pool) propagates, and :func:`run_sim_tasks` has cached every result
  before it, so a rerun resumes from the run cache.

Workers receive task *descriptions* (policy name, trace arrays, config,
weight vector) and rebuild policies locally, so results are bit-identical
to a serial run: the per-task computation is exactly the same code, and
results are reassembled in submission order.

Canonical feature sets travel by **name** (``"reduced-5"`` / ``"full-41"``)
because the 41-feature set contains closure-based features that cannot
cross a process boundary; :func:`resolve_feature_set` rebuilds them on the
worker from the module-level singletons.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

import numpy as np

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.core.features import FULL_FEATURES, REDUCED_FEATURES, FeatureSet
from repro.core.modes import MAX_MODE, MIN_MODE
from repro.exec.cache import (
    RunCache,
    capture_key,
    run_cache_for,
    run_key,
    weights_key,
)
from repro.ml.training import (
    DEFAULT_LAMBDAS,
    TrainingResult,
    fit_policy_model,
    stack_dataset,
)
from repro.noc.simulator import run_simulation
from repro.traffic.trace import Trace, trace_fingerprint

if TYPE_CHECKING:  # pragma: no cover - avoids an exec<->experiments cycle
    from repro.experiments.runner import ModelMetrics

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class PoolHealth:
    """Mutable counters describing how one fan-out's tasks were served.

    The campaign engine folds these into its telemetry aggregate.
    """

    tasks: int = 0  #: tasks handed to the exec layer (incl. cache hits)
    cached: int = 0  #: tasks answered from the run cache without simulating


#: Feature sets addressable by name across process boundaries.
_CANONICAL_FEATURE_SETS: dict[str, FeatureSet] = {
    REDUCED_FEATURES.name: REDUCED_FEATURES,
    FULL_FEATURES.name: FULL_FEATURES,
}

#: Every active mode: an ``allowed_modes`` equal to it restricts nothing.
_FULL_LADDER = frozenset(range(MIN_MODE, MAX_MODE + 1))

#: A feature set given directly, or the name of a canonical one.
FeatureSpec = "str | FeatureSet"


def resolve_feature_set(spec: str | FeatureSet) -> FeatureSet:
    """Materialize a feature set from a spec (name or instance)."""
    if isinstance(spec, FeatureSet):
        return spec
    try:
        return _CANONICAL_FEATURE_SETS[spec]
    except KeyError:
        raise ValueError(
            f"unknown feature set {spec!r}; choices: "
            f"{sorted(_CANONICAL_FEATURE_SETS)}"
        ) from None


def feature_set_spec(feature_set: FeatureSet) -> str | FeatureSet:
    """Prefer the by-name spec (always picklable) for canonical sets."""
    if _CANONICAL_FEATURE_SETS.get(feature_set.name) is feature_set:
        return feature_set.name
    return feature_set


def capture_feature_set(feature_set: FeatureSet) -> FeatureSet:
    """The narrowest canonical set a capture of ``feature_set`` runs at.

    Reduced-5 covers every set whose names it contains (main training
    and all of fig9's single-feature sets), which are then sliced from
    it by column name; anything else (full-41) is captured as itself.
    """
    if set(feature_set.names) <= set(REDUCED_FEATURES.names):
        return REDUCED_FEATURES
    return feature_set


# ---------------------------------------------------------------------- #
# Task descriptions + module-level workers (picklable by construction)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class SimTask:
    """One independent (policy, trace, config) simulation.

    ``audit`` attaches an invariant auditor to the run (see
    :mod:`repro.validate`) — workers audit too, so a parallel campaign
    gets the same conservation guarantees as a serial one.  Audits never
    change results, so audited and unaudited runs share cache entries.
    """

    policy: str
    trace: Trace
    sim: SimConfig
    weights: np.ndarray | None = None
    feature_set: str | FeatureSet = REDUCED_FEATURES.name
    audit: bool = False
    artifact_dir: str | None = None
    #: When set, the worker attaches a telemetry recorder and writes this
    #: task's series + summary into the directory.  Telemetry never
    #: changes results, so it is deliberately **not** part of the cache
    #: key — a cache hit skips the simulation and therefore emits no
    #: fresh series (the campaign aggregate counts it as cached).
    telemetry_dir: str | None = None
    #: Optional restricted DVFS ladder, passed to
    #: :func:`~repro.core.controller.make_policy` (changes results, so it
    #: joins the cache key).
    allowed_modes: tuple[int, ...] | None = None

    def cache_key(self) -> str:
        """Content address of this task's result.

        A run without weights never reads its features, and the full
        ladder restricts nothing, so neither splits the key: runs that
        differ only there are one run.
        """
        names, name = (), "unread"
        if self.weights is not None:
            fs = resolve_feature_set(self.feature_set)
            names, name = fs.names, fs.name
        modes = self.allowed_modes
        if modes is not None and set(modes) == _FULL_LADDER:
            modes = None
        return run_key(
            self.policy, self.trace, self.sim, self.weights, names, name,
            allowed_modes=modes,
        )


@dataclass(frozen=True, eq=False)
class CaptureTask:
    """One reactive training capture: (policy, trace, config) -> ``(X, y)``.

    A reactive run reads no weights and charges no label energy, so its
    dataset depends only on these fields and the kernel code.  The run
    happens at :func:`capture_feature_set` of ``feature_set``; the
    result is sliced to ``feature_set``'s own columns.
    """

    policy: str
    trace: Trace
    sim: SimConfig
    feature_set: str | FeatureSet = REDUCED_FEATURES.name
    #: The cache entry this capture joins: :func:`training_set_group` of
    #: the training set it serves, so one entry holds at most one suite.
    group: str = ""

    def captured_set(self) -> FeatureSet:
        """The feature set this task's run actually extracts."""
        return capture_feature_set(resolve_feature_set(self.feature_set))

    def cache_key(self) -> str:
        """Address of the cache entry holding this capture.

        One entry per (policy, config, captured set, group): every trace
        of the group and every feature set that set covers share it.
        """
        fs = self.captured_set()
        return capture_key(self.policy, self.sim, fs.names, fs.name,
                           self.group)


def training_set_group(traces: Sequence[Trace]) -> str:
    """The capture-entry group of everything captured to train on (and
    validate or test against) ``traces``."""
    return ",".join(trace_fingerprint(t) for t in traces)


@dataclass(frozen=True, eq=False)
class TrainTask:
    """One model's offline training phase (capture, sweep lambda, fit)."""

    policy: str
    train_traces: tuple[Trace, ...]
    validation_traces: tuple[Trace, ...]
    sim: SimConfig
    feature_set: str | FeatureSet = REDUCED_FEATURES.name
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    cache_dir: str | Path | None = None

    def cache_key(self) -> str:
        """Address of this model's weights: everything the fit reads.

        The training set's capture key (at this task's own feature set)
        covers the schema, code version, policy, features, config and
        training traces; :func:`weights_key` adds the fit's sources, the
        validation traces and the lambda sweep.
        """
        fs = resolve_feature_set(self.feature_set)
        capture = capture_key(self.policy, self.sim, fs.names, fs.name,
                              training_set_group(self.train_traces))
        validation = training_set_group(self.validation_traces)
        return weights_key(capture, validation, self.lambdas)


def execute_sim_task(task: SimTask) -> "ModelMetrics":
    """Worker body: run one simulation and reduce it to its metrics."""
    from repro.experiments.runner import ModelMetrics

    feature_set = resolve_feature_set(task.feature_set)
    policy = make_policy(
        task.policy, weights=task.weights, feature_set=feature_set,
        allowed_modes=task.allowed_modes,
    )
    audit = None
    if task.audit:
        from repro.validate.invariants import InvariantAuditor

        audit = InvariantAuditor(artifact_dir=task.artifact_dir)
    telemetry = None
    if task.telemetry_dir is not None:
        from repro.telemetry import TelemetryRecorder

        telemetry = TelemetryRecorder()
    result = run_simulation(
        task.sim, task.trace, policy, audit=audit, telemetry=telemetry,
    )
    if telemetry is not None:
        from repro.telemetry import write_series, write_summary

        label = f"{task.policy}-{task.trace.name}"
        write_series(task.telemetry_dir, label, telemetry)
        write_summary(
            task.telemetry_dir, label, telemetry.metrics, telemetry.meta
        )
    return ModelMetrics.from_result(result)


def execute_capture_task(task: CaptureTask) -> tuple[np.ndarray, np.ndarray]:
    """Worker body: one reactive run's ``(X, y)`` at its feature set."""
    policy = make_policy(
        task.policy, weights=None,
        feature_set=resolve_feature_set(task.feature_set),
    )
    result = run_simulation(task.sim, task.trace, policy,
                            collect_features=True)
    return result.stats.training_matrices()


# ---------------------------------------------------------------------- #
# The pool
# ---------------------------------------------------------------------- #


def effective_jobs(jobs: int | None, n_tasks: int) -> int:
    """Clamp a jobs request: ``None``/``<=0`` means one per CPU."""
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks))


def map_tasks(
    fn: Callable[[T], R], tasks: Sequence[T], jobs: int | None = 1
) -> Iterator[R]:
    """Apply ``fn`` to every task, yielding results in task order.

    One worker (see :func:`effective_jobs`) runs the tasks inline;
    otherwise one process pool serves this call and is shut down before
    the generator finishes, so no worker outlives it.  Both paths run
    the same per-task code, so results are identical.  A task's
    exception propagates to the caller, as does a broken pool; a rerun
    resumes from whatever the caller has cached.
    """
    workers = effective_jobs(jobs, len(tasks))
    if workers == 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        try:
            for future in futures:
                yield future.result()
        finally:
            # A failure (or a caller that stops reading) drops the tasks
            # not yet started instead of running them before shutdown.
            for future in futures:
                future.cancel()


def run_sim_tasks(
    tasks: Sequence[SimTask],
    jobs: int | None = 1,
    cache: RunCache | None = None,
    health: PoolHealth | None = None,
) -> list[ModelMetrics]:
    """Run simulations through the cache, fanning misses over the pool.

    Cache hits are returned without simulating; only the misses are
    dispatched.  Results come back in task order regardless of ``jobs``.

    Each miss is cached **the moment it arrives**, not after the whole
    batch, so an interrupted or failed campaign loses at most the tasks
    after it and resumes from the cache on the next attempt.
    """
    tasks = list(tasks)
    results: list[ModelMetrics | None] = [None] * len(tasks)
    pending: list[tuple[int, SimTask, str | None]] = []
    if health is not None:
        health.tasks += len(tasks)
    for i, task in enumerate(tasks):
        key = None
        if cache is not None:
            key = task.cache_key()
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                if health is not None:
                    health.cached += 1
                continue
        pending.append((i, task, key))

    done = map_tasks(execute_sim_task, [t for _, t, _ in pending], jobs)
    for (i, _, key), metrics in zip(pending, done, strict=True):
        results[i] = metrics
        if key is not None:
            cache.put(key, metrics)
    return results  # type: ignore[return-value]


def _columns(
    capture: tuple[np.ndarray, np.ndarray],
    have: tuple[str, ...],
    want: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Slice a capture's feature columns from ``have`` down to ``want``."""
    x, y = capture
    if want == have or not x.size:
        return capture
    cols = [have.index(name) for name in want]
    return np.ascontiguousarray(x[:, cols]), y


def run_capture_tasks(
    tasks: Sequence[CaptureTask],
    jobs: int | None = 1,
    cache: RunCache | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run reactive training captures, each distinct one exactly once.

    This is the one place a capture runs.  Tasks with the same policy,
    trace and config whose feature sets one canonical set covers share
    one run.  Hits come from ``cache`` (its ``capture`` entries, one per
    policy, config, captured set and task ``group``, holding every trace
    of the group captured so far); misses fan out over the pool, and
    each touched entry is written back as soon as its last pending
    member arrives, so a failure later in the batch keeps it.  Two
    processes sharing a cache may drop each other's new members (the
    last write wins whole); a dropped member is recaptured, never
    misread.  Every result is sliced to its own task's feature set and
    returned in task order.  Captures never count as resumed work: a
    campaign's pool-health counters describe its evaluation runs only.
    """
    tasks = list(tasks)
    entries: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    pending: dict[tuple[str, str], CaptureTask] = {}
    addresses = []
    for task in tasks:
        key, member = task.cache_key(), trace_fingerprint(task.trace)
        addresses.append((key, member))
        if key not in entries:
            hit = None if cache is None else cache.get(key, kind="capture")
            entries[key] = hit or {}
        if member not in entries[key] and (key, member) not in pending:
            pending[key, member] = CaptureTask(
                task.policy, task.trace, task.sim,
                feature_set_spec(task.captured_set()),
            )
    left = Counter(key for key, _ in pending)
    captured = map_tasks(execute_capture_task, list(pending.values()), jobs)
    for (key, member), capture in zip(pending, captured, strict=True):
        entries[key][member] = capture
        left[key] -= 1
        if cache is not None and not left[key]:
            cache.put(key, entries[key], kind="capture")
    return [
        _columns(entries[key][member], task.captured_set().names,
                 resolve_feature_set(task.feature_set).names)
        for task, (key, member) in zip(tasks, addresses)
    ]


def train_models(
    tasks: Sequence[TrainTask], jobs: int | None = 1
) -> list[TrainingResult]:
    """The offline phase for several models at once (order preserved).

    Every (model, trace) capture is one task of a single fan-out, cached
    under the tasks' shared ``cache_dir``; each model's lambda sweep then
    runs in the parent over its stacked captures.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    cache_dirs = {task.cache_dir for task in tasks}
    if len(cache_dirs) > 1:
        raise ValueError("train tasks in one batch must share a cache_dir")
    captures = iter(run_capture_tasks(
        [
            CaptureTask(task.policy, trace, task.sim, task.feature_set,
                        training_set_group(task.train_traces))
            for task in tasks
            for trace in task.train_traces + task.validation_traces
        ],
        jobs,
        cache=run_cache_for(cache_dirs.pop()),
    ))
    results = []
    for task in tasks:
        train = stack_dataset(
            [next(captures) for _ in task.train_traces], task.sim
        )
        val = stack_dataset(
            [next(captures) for _ in task.validation_traces], task.sim
        )
        results.append(fit_policy_model(
            task.policy, train, val,
            resolve_feature_set(task.feature_set), task.lambdas,
        ))
    return results


def run_train_tasks(
    tasks: Sequence[TrainTask], jobs: int | None = 1
) -> list[np.ndarray]:
    """Train several models' weights (order preserved).

    A model whose ``weights`` entry is in the run cache under its
    ``cache_dir`` reads it; the others train together through
    :func:`train_models` and their weights are cached there.
    """
    tasks = list(tasks)
    caches = [run_cache_for(t.cache_dir) for t in tasks]
    keys = [None if c is None else t.cache_key()
            for t, c in zip(tasks, caches)]
    weights = [
        None if c is None else c.get(key, kind="weights")
        for c, key in zip(caches, keys)
    ]
    todo = [i for i, w in enumerate(weights) if w is None]
    for i, result in zip(todo, train_models([tasks[i] for i in todo], jobs)):
        weights[i] = result.model.weights
        if caches[i] is not None:
            caches[i].put(keys[i], weights[i], kind="weights")
    return weights
