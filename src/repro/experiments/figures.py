"""Reproduction of the paper's figures and in-text results.

Every function regenerates the data behind one figure (or a block of
Section IV.B numbers) and returns a structured result that the
``repro-all`` registry turns into a payload.  Simulation-backed figures
take an :class:`EvalScale` so unit tests can run them in seconds while
``repro-all --scale paper`` runs them at the paper's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import (
    REDUCED_FEATURES,
    FULL_FEATURES,
    SINGLE_FEATURE_CANDIDATES,
    single_feature_set,
)
from repro.exec.cache import run_cache_for
from repro.exec.pool import (
    CaptureTask,
    SimTask,
    TrainTask,
    run_capture_tasks,
    run_sim_tasks,
    train_models,
    training_set_group,
)
from repro.experiments.campaign import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from repro.experiments.profiles import EvalScale
from repro.ml.metrics import mode_selection_accuracy
from repro.ml.ridge import fit_ridge
from repro.ml.training import stack_dataset
from repro.regulator.efficiency import EfficiencyComparison, compare_efficiency
from repro.regulator.ldo import LdoModel, LdoTransient
from repro.traffic.suite import suite_for


# ---------------------------------------------------------------------- #
# Figure 5 — regulator transients
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Fig5Result:
    """The two Figure 5 waveforms and their measured settling times."""

    wakeup: LdoTransient
    switch: LdoTransient
    t_wakeup_ns: float
    t_switch_ns: float


def fig5_waveforms() -> Fig5Result:
    """Fig 5: T-Wakeup (0 V -> 0.8 V) and T-Switch (0.8 V -> 1.2 V)."""
    ldo = LdoModel()
    wakeup = ldo.wakeup_transient(0.8)
    switch = ldo.switch_transient(0.8, 1.2)
    return Fig5Result(
        wakeup=wakeup,
        switch=switch,
        t_wakeup_ns=wakeup.settling_time_ns(ldo.settle_eps_v),
        t_switch_ns=switch.settling_time_ns(ldo.settle_eps_v),
    )


# ---------------------------------------------------------------------- #
# Figure 6 — power-delivery efficiency
# ---------------------------------------------------------------------- #


def fig6_efficiency(n_points: int = 41) -> EfficiencyComparison:
    """Fig 6: SIMO system vs baseline array across 0.8-1.2 V."""
    sweep = np.linspace(0.8, 1.2, n_points)
    return compare_efficiency(sweep)


# ---------------------------------------------------------------------- #
# Figure 7 — DVFS mode distribution
# ---------------------------------------------------------------------- #


def fig7_mode_distribution(
    campaign_result: CampaignResult,
) -> dict[str, dict[str, dict[int, float]]]:
    """Fig 7: per-benchmark DVFS mode breakdown for the three ML models.

    Returns ``model -> benchmark -> {mode: fraction}`` from a campaign on
    the uncompressed test traces (the figure's setting).
    """
    out: dict[str, dict[str, dict[int, float]]] = {}
    for model in ("dozznoc", "lead", "turbo"):
        out[model] = {
            trace: campaign_result.metrics[trace][model].mode_distribution
            for trace in campaign_result.metrics
        }
    return out


# ---------------------------------------------------------------------- #
# Figure 9/11 — single-feature mode-selection accuracy
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FeatureAccuracy:
    """Accuracy of one single-feature model across the five test traces."""

    feature: str
    per_benchmark: dict[str, float]

    @property
    def average(self) -> float:
        return float(np.mean(list(self.per_benchmark.values())))


def fig9_feature_accuracy(scale: EvalScale | None = None) -> list[FeatureAccuracy]:
    """Fig 9/11: train DozzNoC with bias + one feature, test accuracy.

    For each candidate feature, a ridge model is trained on the training
    traces and its *mode-selection accuracy* (same mode as the true future
    IBU would select) is measured on each test trace.  Every candidate
    set is covered by reduced-5, so the whole study is one capture batch:
    each training and test trace is captured once (or read from the run
    cache) and sliced per feature.
    """
    scale = scale or EvalScale()
    suite = suite_for(scale)
    sets = [single_feature_set(f) for f in SINGLE_FEATURE_CANDIDATES]
    group = training_set_group(suite.train)
    captures = iter(run_capture_tasks(
        [
            CaptureTask("dozznoc", trace, scale.sim, fs, group)
            for fs in sets
            for trace in suite.train + suite.test
        ],
        jobs=scale.jobs,
        cache=run_cache_for(scale.cache_dir),
    ))
    results = []
    for feature, fs in zip(SINGLE_FEATURE_CANDIDATES, sets):
        x_train, y_train = stack_dataset(
            [next(captures) for _ in suite.train], scale.sim
        )
        model = fit_ridge(x_train, y_train, lam=1e-2, feature_names=fs.names)
        per_bench: dict[str, float] = {}
        for trace in suite.test:
            x_test, y_test = stack_dataset([next(captures)], scale.sim)
            per_bench[trace.name] = mode_selection_accuracy(
                y_test, model.predict(x_test)
            )
        results.append(FeatureAccuracy(feature=feature, per_benchmark=per_bench))
    return results


# ---------------------------------------------------------------------- #
# Section IV.B.1 ablations — epoch size, 5 vs 41 features
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EpochSweepPoint:
    """Validation quality of the DozzNoC predictor at one epoch size."""

    epoch_cycles: int
    validation_rmse: float
    validation_accuracy: float
    n_train_samples: int


def epoch_size_sweep(
    scale: EvalScale | None = None,
    epoch_sizes: tuple[int, ...] = (100, 250, 500, 750, 1000),
) -> list[EpochSweepPoint]:
    """Sweep the decision-epoch size, retraining per size (Section IV.B.1).

    The paper trains one model per epoch size and reports that 500 balances
    model quality against the amount of training data per trace.  Every
    (epoch size, trace) capture is an independent task, so the sweep fans
    out over ``scale.jobs`` workers and caches under ``scale.cache_dir``.
    """
    scale = scale or EvalScale()
    suite = suite_for(scale)
    tasks = [
        TrainTask(
            policy="dozznoc",
            train_traces=suite.train,
            validation_traces=suite.validation,
            sim=scale.sim.with_(epoch_cycles=epoch),
            feature_set=REDUCED_FEATURES.name,
            cache_dir=scale.cache_dir,
        )
        for epoch in epoch_sizes
    ]
    results = train_models(tasks, jobs=scale.jobs)
    return [
        EpochSweepPoint(
            epoch_cycles=epoch,
            validation_rmse=result.validation_rmse,
            validation_accuracy=result.validation_accuracy,
            n_train_samples=result.n_train_samples,
        )
        for epoch, result in zip(epoch_sizes, results)
    ]


@dataclass(frozen=True)
class TIdlePoint:
    """DozzNoC outcome for one T-Idle threshold."""

    t_idle: int
    static_savings: float
    dynamic_savings: float
    throughput_loss: float
    gated_fraction: float
    wake_events: float


def t_idle_sweep(
    scale: EvalScale | None = None,
    t_idles: tuple[int, ...] = (2, 4, 8, 16, 64),
    benchmark_index: int = 1,
) -> list[TIdlePoint]:
    """Ablate the T-Idle gating threshold (Section III.B's design choice).

    The paper argues T-Idle = 4 balances two failure modes: a small T-Idle
    gates so eagerly that break-even times are missed and traffic blocks on
    wakeups; a large T-Idle forfeits static savings.  This sweep runs the
    reactive DozzNoC model on one test trace per threshold.
    """
    scale = scale or EvalScale()
    suite = suite_for(scale)
    trace = suite.test[benchmark_index]
    from repro.experiments.runner import normalize_to_baseline

    tasks = [SimTask(policy="baseline", trace=trace, sim=scale.sim)] + [
        SimTask(
            policy="dozznoc", trace=trace, sim=scale.sim.with_(t_idle=t_idle)
        )
        for t_idle in t_idles
    ]
    base, *rest = run_sim_tasks(
        tasks, jobs=scale.jobs, cache=run_cache_for(scale.cache_dir)
    )
    points = []
    for t_idle, metrics in zip(t_idles, rest):
        norm = normalize_to_baseline(base, metrics)
        points.append(
            TIdlePoint(
                t_idle=t_idle,
                static_savings=norm.static_savings,
                dynamic_savings=norm.dynamic_savings,
                throughput_loss=norm.throughput_loss,
                gated_fraction=norm.gated_fraction,
                wake_events=metrics.wake_events,
            )
        )
    return points


@dataclass(frozen=True)
class BufferDepthPoint:
    """DozzNoC outcome at one input-buffer depth."""

    buffer_depth: int
    static_savings: float
    dynamic_savings: float
    throughput_loss: float
    avg_latency_ns: float


def buffer_depth_sweep(
    scale: EvalScale | None = None,
    depths: tuple[int, ...] = (5, 8, 16, 32),
    benchmark_index: int = 2,
) -> list[BufferDepthPoint]:
    """Ablate the per-port input-FIFO depth (extension study).

    Deeper buffers raise the utilization denominator (the "theoretical
    maximum" of Fig 3b), shifting the mode mix; they also absorb bursts,
    trading latency for throughput.  Each depth is normalized against a
    baseline *at the same depth*.
    """
    scale = scale or EvalScale()
    suite = suite_for(scale)
    trace = suite.test[benchmark_index]
    from repro.experiments.runner import normalize_to_baseline

    tasks = []
    for depth in depths:
        sim = scale.sim.with_(buffer_depth=depth)
        tasks.append(SimTask(policy="baseline", trace=trace, sim=sim))
        tasks.append(SimTask(policy="dozznoc", trace=trace, sim=sim))
    results = run_sim_tasks(
        tasks, jobs=scale.jobs, cache=run_cache_for(scale.cache_dir)
    )
    points = []
    for depth, base, metrics in zip(depths, results[::2], results[1::2]):
        norm = normalize_to_baseline(base, metrics)
        points.append(
            BufferDepthPoint(
                buffer_depth=depth,
                static_savings=norm.static_savings,
                dynamic_savings=norm.dynamic_savings,
                throughput_loss=norm.throughput_loss,
                avg_latency_ns=metrics.avg_latency_ns,
            )
        )
    return points


@dataclass(frozen=True)
class LadderPoint:
    """DozzNoC outcome with a restricted V/F ladder."""

    label: str
    allowed_modes: tuple[int, ...]
    static_savings: float
    dynamic_savings: float
    throughput_loss: float


def mode_ladder_ablation(
    scale: EvalScale | None = None,
    ladders: tuple[tuple[str, tuple[int, ...]], ...] = (
        ("5 modes (paper)", (3, 4, 5, 6, 7)),
        ("3 modes", (3, 5, 7)),
        ("2 modes", (3, 7)),
        ("1 mode (M7)", (7,)),
    ),
    benchmark_index: int = 2,
) -> list[LadderPoint]:
    """Ablate DVFS granularity: how much of the saving needs 5 V/F levels?

    Restricted ladders round the threshold decision *up* to the nearest
    allowed mode, so performance is preserved while intermediate savings
    disappear — quantifying the value of the SIMO regulator's multi-rail
    design over a simpler two-level scheme.
    """
    scale = scale or EvalScale()
    suite = suite_for(scale)
    trace = suite.test[benchmark_index]
    from repro.experiments.runner import normalize_to_baseline

    tasks = [SimTask(policy="baseline", trace=trace, sim=scale.sim)]
    tasks += [
        SimTask(policy="dozznoc", trace=trace, sim=scale.sim,
                allowed_modes=allowed)
        for _, allowed in ladders
    ]
    base, *results = run_sim_tasks(
        tasks, jobs=scale.jobs, cache=run_cache_for(scale.cache_dir)
    )
    points = []
    for (label, allowed), metrics in zip(ladders, results):
        norm = normalize_to_baseline(base, metrics)
        points.append(
            LadderPoint(
                label=label,
                allowed_modes=allowed,
                static_savings=norm.static_savings,
                dynamic_savings=norm.dynamic_savings,
                throughput_loss=norm.throughput_loss,
            )
        )
    return points


@dataclass(frozen=True)
class FeatureAblationResult:
    """DozzNoC-5 vs DozzNoC-41 comparison (Section IV.B.1)."""

    reduced: dict[str, float]
    full: dict[str, float]

    def relative_difference(self, key: str) -> float:
        """|5-feature - 41-feature| relative to the 41-feature value."""
        denom = abs(self.full[key]) or 1.0
        return abs(self.reduced[key] - self.full[key]) / denom


def feature_ablation(scale: EvalScale | None = None) -> FeatureAblationResult:
    """Train and evaluate DozzNoC with 5 vs 41 features on the test traces.

    The paper observes "almost no impact" from the reduction; we report the
    averaged normalized metrics for both variants.
    """
    scale = scale or EvalScale()

    def run_with(feature_set) -> dict[str, float]:
        cfg = CampaignConfig(
            sim=scale.sim,
            duration_ns=scale.duration_ns,
            seed=scale.seed,
            feature_set=feature_set,
            models=("baseline", "dozznoc"),
            cache_dir=scale.cache_dir,
            jobs=scale.jobs,
        )
        result = run_campaign(cfg)
        avg = result.average_normalized("dozznoc")
        return {
            "static_savings": avg.static_savings,
            "dynamic_savings": avg.dynamic_savings,
            "throughput_loss": avg.throughput_loss,
            "latency_increase": avg.latency_increase,
        }

    return FeatureAblationResult(
        reduced=run_with(REDUCED_FEATURES), full=run_with(FULL_FEATURES)
    )
