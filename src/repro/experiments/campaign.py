"""Full evaluation campaigns (Section IV).

A *campaign* is the paper's end-to-end procedure for one configuration:

1. generate the 14-trace suite (optionally compressed),
2. train each ML model's ridge predictor offline on the 6 training traces,
   tuning lambda on the 3 validation traces,
3. run all five models proactively on the 5 test traces,
4. normalize everything to the Baseline, per trace and averaged.

Campaign scale (trace duration) is configurable so tests run in seconds
while the benchmark harness uses paper-scale runs.

Execution is delegated to :mod:`repro.exec`: the independent
(model, trace) simulations and (model, trace) training captures fan out
over a process pool (``jobs``), and both are memoized in a
content-addressed on-disk cache (``cache_dir``) so re-running a campaign
only simulates what changed.  Parallel and serial execution produce
bit-identical results.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.config import SimConfig
from repro.core.features import REDUCED_FEATURES, FeatureSet
from repro.exec.cache import RunCache, run_cache_for
from repro.exec.pool import (
    PoolHealth,
    SimTask,
    TrainTask,
    feature_set_spec,
    run_sim_tasks,
    run_train_tasks,
)
from repro.experiments.runner import (
    MODEL_NAMES,
    ModelMetrics,
    NormalizedMetrics,
    normalize_to_baseline,
)
from repro.ml.training import DEFAULT_LAMBDAS
from repro.traffic.suite import TraceSuite, suite_for

#: Which models need a trained predictor.
ML_MODELS: tuple[str, ...] = ("lead", "dozznoc", "turbo")


@dataclass
class CampaignConfig:
    """Everything that parameterizes one campaign.

    ``jobs`` is the worker-process count for the exec layer (1 = serial,
    <=0 = one per CPU); ``cache_dir`` enables the content-addressed run
    cache, which holds the evaluation runs, training captures and
    trained weights alike.
    """

    sim: SimConfig = field(default_factory=SimConfig.paper_mesh)
    duration_ns: float = 12_000.0
    compressed: bool = False
    seed: int = 0
    feature_set: FeatureSet = REDUCED_FEATURES
    models: tuple[str, ...] = MODEL_NAMES
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    cache_dir: str | Path | None = None
    jobs: int = 1
    #: Attach invariant auditors (repro.validate) to every evaluation run;
    #: audits raise AuditError on violation and never change results.
    audit: bool = False
    #: When set, every evaluation run writes its per-epoch series and
    #: mergeable summary into this directory, and the campaign writes a
    #: merged ``campaign-summary.json`` plus phase wall-clock timers and
    #: pool-health counters.  Telemetry never changes results and is not
    #: part of any cache key; cache hits therefore emit no fresh per-task
    #: series (they are counted as ``pool_tasks_cached``).
    telemetry_dir: str | Path | None = None


@dataclass
class CampaignResult:
    """Per-trace and averaged results of one campaign."""

    config: CampaignConfig
    metrics: dict[str, dict[str, ModelMetrics]]  # trace -> model -> metrics
    normalized: dict[str, dict[str, NormalizedMetrics]]
    weights: dict[str, np.ndarray]  # ML model -> trained weight vector
    #: Evaluation tasks served from the run cache without simulating:
    #: the work a previous (interrupted) attempt, or any earlier run
    #: sharing the cache, already finished (0 for a fresh or cacheless
    #: campaign).
    resumed_tasks: int = 0

    def average_normalized(self, model: str) -> NormalizedMetrics:
        """Mean normalized metrics for ``model`` across test traces."""
        rows = [self.normalized[t][model] for t in self.normalized]
        if not rows:
            raise ValueError("campaign produced no results")
        return NormalizedMetrics(
            model=model,
            trace="average",
            static_energy=float(np.mean([r.static_energy for r in rows])),
            dynamic_energy=float(np.mean([r.dynamic_energy for r in rows])),
            throughput_loss=float(np.mean([r.throughput_loss for r in rows])),
            latency_increase=float(np.mean([r.latency_increase for r in rows])),
            gated_fraction=float(np.mean([r.gated_fraction for r in rows])),
        )

    def undrained_runs(self) -> list[tuple[str, str]]:
        """``(trace, model)`` pairs whose run did not empty the network.

        An undrained run hit the kernel safety cap or its horizon with
        packets still stuck — its metrics measure a truncated run and must
        not be read as a clean result.
        """
        return [
            (trace, model)
            for trace, per_model in self.metrics.items()
            for model, m in per_model.items()
            if not m.drained
        ]

    def summary_rows(self) -> list[dict[str, float | str]]:
        """One averaged row per model (Fig 8 / Section IV.B.2 shape).

        ``undrained_runs`` counts the model's test-trace runs that failed
        to drain; renderers must flag any non-zero value loudly.
        """
        rows: list[dict[str, float | str]] = []
        for model in self.config.models:
            if model == "baseline":
                continue
            avg = self.average_normalized(model)
            undrained = sum(
                1 for per_model in self.metrics.values()
                if not per_model[model].drained
            )
            rows.append(
                {
                    "model": model,
                    "static_savings_pct": 100 * avg.static_savings,
                    "dynamic_savings_pct": 100 * avg.dynamic_savings,
                    "throughput_loss_pct": 100 * avg.throughput_loss,
                    "latency_increase_pct": 100 * avg.latency_increase,
                    "gated_fraction_pct": 100 * avg.gated_fraction,
                    "undrained_runs": undrained,
                }
            )
        return rows


def train_ml_models(
    suite: TraceSuite,
    campaign: CampaignConfig,
    jobs: int | None = None,
) -> dict[str, np.ndarray]:
    """Offline phase: one trained weight vector per ML model.

    Every (model, trace) capture fans out over ``jobs`` workers and is
    cached under the campaign's ``cache_dir`` alongside the trained
    weights.
    """
    jobs = campaign.jobs if jobs is None else jobs
    spec = feature_set_spec(campaign.feature_set)
    models = [m for m in ML_MODELS if m in campaign.models]
    tasks = [
        TrainTask(
            policy=model,
            train_traces=suite.train,
            validation_traces=suite.validation,
            sim=campaign.sim,
            feature_set=spec,
            lambdas=campaign.lambdas,
            cache_dir=campaign.cache_dir,
        )
        for model in models
    ]
    return dict(zip(models, run_train_tasks(tasks, jobs=jobs)))


def campaign_run_cache(campaign: CampaignConfig) -> RunCache | None:
    """The simulation-result cache a campaign's config implies."""
    return run_cache_for(campaign.cache_dir)


def write_campaign_telemetry(
    directory: Path,
    recorder,
    health: PoolHealth,
    campaign: CampaignConfig,
) -> Path:
    """Merge per-task telemetry into ``campaign-summary.json``.

    The campaign aggregate is the *exact* associative merge of every
    per-task summary in the directory (order-independent, so it does not
    depend on ``jobs``), folded together with the campaign recorder's own
    phase wall-clock timers and the exec layer's pool-health counters.
    ``pool_tasks_cached`` counts the tasks the run cache served, which
    :attr:`CampaignResult.resumed_tasks` reports too.
    """
    from repro.telemetry import merge_metric_sets
    from repro.telemetry.diff import CAMPAIGN_SUMMARY
    from repro.telemetry.io import load_summary, summary_payload

    directory.mkdir(parents=True, exist_ok=True)
    for name, value in (
        ("pool_tasks_total", health.tasks),
        ("pool_tasks_cached", health.cached),
    ):
        recorder.metrics.counter(
            name, help=f"exec-layer health: {name.replace('_', ' ')}"
        ).inc(value)
    task_paths = sorted(directory.glob("summary-*.json"))
    task_sets = [load_summary(p)[1] for p in task_paths]
    merged = merge_metric_sets([recorder.metrics, *task_sets])
    meta = {
        "kind": "campaign",
        "models": list(campaign.models),
        "jobs": campaign.jobs,
        "duration_ns": campaign.duration_ns,
        "seed": campaign.seed,
        "pool": dataclasses.asdict(health),
        "merged_from": [p.name for p in task_paths],
    }
    json_path = directory / CAMPAIGN_SUMMARY
    json_path.write_text(
        json.dumps(summary_payload(merged, meta), indent=2, sort_keys=True)
        + "\n"
    )
    return json_path


def _phase(recorder, name: str):
    """``recorder``'s phase timer for ``name``, or a no-op without one."""
    return nullcontext() if recorder is None else recorder.phase(name)


# ---------------------------------------------------------------------- #
# Deterministic campaign summary artifact
# ---------------------------------------------------------------------- #

#: Schema tag inside the deterministic summary payload.  v2: the per-run
#: metrics lost ``forced_wakes``, ``flits_retransmitted`` and
#: ``vr_safe_mode_entries`` when fault injection was retired.
CAMPAIGN_SUMMARY_SCHEMA = 2


def campaign_summary_payload(result: CampaignResult) -> dict:
    """A campaign's results as a fully deterministic JSON payload.

    Unlike the telemetry ``campaign-summary.json`` (which carries
    wall-clock phase timers and can never be byte-stable), this payload
    contains only content: configuration, per-trace metrics, normalized
    metrics and the averaged summary rows.  Two runs of the same
    campaign — serial or parallel, uninterrupted or killed and resumed —
    serialize to identical bytes.
    """
    campaign = result.config
    sim = {
        f.name: getattr(campaign.sim, f.name)
        for f in dataclasses.fields(campaign.sim)
        if f.name != "extra"
    }
    return {
        "kind": "campaign-summary",
        "schema": CAMPAIGN_SUMMARY_SCHEMA,
        "config": {
            "sim": sim,
            "duration_ns": campaign.duration_ns,
            "seed": campaign.seed,
            "compressed": campaign.compressed,
            "models": list(campaign.models),
        },
        "metrics": {
            trace: {
                model: dataclasses.asdict(m)
                for model, m in per_model.items()
            }
            for trace, per_model in result.metrics.items()
        },
        "normalized": {
            trace: {
                model: dataclasses.asdict(n)
                for model, n in per_model.items()
            }
            for trace, per_model in result.normalized.items()
        },
        "summary_rows": result.summary_rows(),
        "undrained": [list(pair) for pair in result.undrained_runs()],
    }


def campaign_summary_text(result: CampaignResult) -> str:
    """Canonical serialization of :func:`campaign_summary_payload`."""
    return (
        json.dumps(
            campaign_summary_payload(result),
            sort_keys=True,
            separators=(",", ":"),
            default=float,
        )
        + "\n"
    )


def write_campaign_summary(result: CampaignResult, path: str | Path) -> Path:
    """Write the deterministic summary artifact; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(campaign_summary_text(result))
    return path


def run_campaign(
    campaign: CampaignConfig,
    jobs: int | None = None,
    cache: RunCache | None = None,
) -> CampaignResult:
    """Execute the full train-then-test evaluation.

    ``jobs`` overrides ``campaign.jobs``; ``cache`` overrides the run
    cache derived from ``campaign.cache_dir`` (pass an explicit
    :class:`RunCache` to inspect hit/miss statistics afterwards).
    Every evaluation run is cached the moment it finishes, so a killed
    campaign rerun over the same cache simulates only what had not
    finished; the runs served from the cache are ``resumed_tasks``.
    With ``campaign.telemetry_dir`` set, the exec layer's task counters
    and phase timers go into the merged telemetry summary.
    """
    jobs = campaign.jobs if jobs is None else jobs
    if cache is None:
        cache = campaign_run_cache(campaign)
    recorder = None
    if campaign.telemetry_dir is not None:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(series=False)
    health = PoolHealth()

    with _phase(recorder, "build_suite"):
        suite = suite_for(campaign, campaign.compressed)
    with _phase(recorder, "train"):
        weights = train_ml_models(suite, campaign, jobs=jobs)
    spec = feature_set_spec(campaign.feature_set)
    tasks = [
        SimTask(
            policy=model,
            trace=trace,
            sim=campaign.sim,
            weights=weights.get(model),
            feature_set=spec,
            audit=campaign.audit,
            telemetry_dir=(
                None if recorder is None else str(campaign.telemetry_dir)
            ),
        )
        for trace in suite.test
        for model in campaign.models
    ]
    with _phase(recorder, "simulate"):
        results = iter(run_sim_tasks(
            tasks, jobs=jobs, cache=cache, health=health,
        ))
    if recorder is not None:
        write_campaign_telemetry(
            Path(campaign.telemetry_dir), recorder, health, campaign,
        )

    metrics: dict[str, dict[str, ModelMetrics]] = {}
    normalized: dict[str, dict[str, NormalizedMetrics]] = {}
    for trace in suite.test:
        per_model = {model: next(results) for model in campaign.models}
        metrics[trace.name] = per_model
        base = per_model["baseline"]
        normalized[trace.name] = {
            m: normalize_to_baseline(base, per_model[m])
            for m in campaign.models
            if m != "baseline"
        }
    return CampaignResult(
        config=campaign,
        metrics=metrics,
        normalized=normalized,
        weights=weights,
        resumed_tasks=health.cached,
    )
