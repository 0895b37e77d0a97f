"""Single-run execution and cross-model normalization.

The evaluation always compares the five Section III.B models on the same
trace; this module runs one (policy, trace) pair, extracts the headline
metrics, and normalizes a set of model results against the Baseline —
exactly the presentation of Figure 8 ("static and dynamic energy
normalized to the baseline", throughput loss in percent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.core.features import REDUCED_FEATURES, FeatureSet
from repro.experiments.profiles import MODEL_NAMES  # noqa: F401  (re-export)
from repro.noc.simulator import SimResult, run_simulation
from repro.traffic.trace import Trace

#: Human-readable labels used in reports.
MODEL_LABELS: dict[str, str] = {
    "baseline": "Baseline",
    "pg": "Power Punch (PG)",
    "lead": "LEAD-tau (ML+DVFS)",
    "dozznoc": "DozzNoC (ML+DVFS+PG)",
    "turbo": "ML+TURBO",
}


@dataclass(frozen=True)
class ModelMetrics:
    """Headline metrics for one model on one trace.

    ``drained`` records whether the run actually emptied the network.  A
    run that hit the safety cap (kernel deadlock backstop) or ended at its
    horizon with stuck packets produces metrics that look plausible but
    measure a *truncated* run — consumers must treat ``drained=False``
    rows as suspect, and the campaign/figure tables flag them loudly.
    """

    model: str
    trace: str
    throughput_flits_per_ns: float
    avg_latency_ns: float
    static_pj: float
    dynamic_pj: float
    gated_fraction: float
    elapsed_ns: float
    packets_delivered: int
    mode_distribution: dict[int, float]
    wake_events: float = 0.0
    drained: bool = True
    #: Epochs whose non-finite prediction fell back to measured IBU.
    predictor_fallbacks: float = 0.0

    @classmethod
    def from_result(cls, result: SimResult) -> "ModelMetrics":
        summary = result.summary()
        return cls(
            model=result.policy_name,
            trace=result.trace_name,
            throughput_flits_per_ns=summary["throughput_flits_per_ns"],
            avg_latency_ns=summary["avg_latency_ns"],
            static_pj=summary["static_pj"],
            dynamic_pj=summary["dynamic_pj"],
            gated_fraction=summary["gated_fraction"],
            elapsed_ns=summary["elapsed_ns"],
            packets_delivered=int(summary["packets_delivered"]),
            mode_distribution=result.stats.mode_distribution(),
            wake_events=summary["wake_events"],
            drained=result.drained,
            predictor_fallbacks=summary["predictor_fallbacks"],
        )


@dataclass(frozen=True)
class NormalizedMetrics:
    """A model's metrics relative to the Baseline on the same trace.

    ``static_energy`` / ``dynamic_energy`` are energy ratios (< 1 is a
    saving); ``throughput_loss`` / ``latency_increase`` are fractions
    (positive = worse than baseline), matching the paper's reporting.
    """

    model: str
    trace: str
    static_energy: float
    dynamic_energy: float
    throughput_loss: float
    latency_increase: float
    gated_fraction: float

    @property
    def static_savings(self) -> float:
        """Fractional static-power saving vs the baseline."""
        return 1.0 - self.static_energy

    @property
    def dynamic_savings(self) -> float:
        """Fractional dynamic-energy saving vs the baseline."""
        return 1.0 - self.dynamic_energy


def run_model(
    policy_name: str,
    trace: Trace,
    config: SimConfig,
    weights: np.ndarray | None = None,
    feature_set: FeatureSet = REDUCED_FEATURES,
) -> SimResult:
    """Run one model on one trace (proactive when ``weights`` is given)."""
    policy = make_policy(policy_name, weights=weights, feature_set=feature_set)
    return run_simulation(config, trace, policy)


def normalize_to_baseline(
    baseline: ModelMetrics, model: ModelMetrics
) -> NormalizedMetrics:
    """Express one model's metrics relative to the baseline run."""
    if baseline.trace != model.trace:
        raise ValueError(
            f"cannot normalize across traces ({baseline.trace} vs {model.trace})"
        )
    if baseline.static_pj <= 0 or baseline.dynamic_pj <= 0:
        raise ValueError("baseline consumed no energy; trace is probably empty")
    thr_base = baseline.throughput_flits_per_ns
    lat_base = baseline.avg_latency_ns
    return NormalizedMetrics(
        model=model.model,
        trace=model.trace,
        static_energy=model.static_pj / baseline.static_pj,
        dynamic_energy=model.dynamic_pj / baseline.dynamic_pj,
        throughput_loss=(
            0.0
            if thr_base == 0
            else 1.0 - model.throughput_flits_per_ns / thr_base
        ),
        latency_increase=(
            0.0 if lat_base == 0 else model.avg_latency_ns / lat_base - 1.0
        ),
        gated_fraction=model.gated_fraction,
    )
