"""Run statistics: delivery/latency/throughput plus ML epoch records.

:class:`NetworkStats` is the simulator's measurement sink.  Besides the
usual NoC metrics it implements the paper's offline-training data-capture
protocol (Section III.D): every epoch each router emits a feature vector;
the *label* of that vector — the router's future input buffer utilization —
"is tacked onto the feature set at the end" when the next epoch closes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EpochRecord:
    """One training sample: a router's epoch features awaiting its label."""

    router: int
    epoch: int
    features: np.ndarray
    label: float = float("nan")


@dataclass
class NetworkStats:
    """Aggregated measurements for one simulation run."""

    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    hops_sum: int = 0
    latency_sum_ns: float = 0.0
    latencies_ns: list[float] = field(default_factory=list)
    max_latency_sample: int = 50_000
    #: Seed for the latency reservoir (the simulator passes the config seed
    #: so sampled percentiles are deterministic for a given run).
    sample_seed: int = 0
    _sample_rng: random.Random | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-epoch DVFS decisions (Figure 7): mode index -> count.
    mode_selections: dict[int, int] = field(
        default_factory=lambda: {m: 0 for m in range(3, 8)}
    )
    #: Epochs where a non-finite prediction fell back to the threshold
    #: (measured-utilization) policy; the auditor requires it to stay 0.
    predictor_fallbacks: int = 0
    #: Offline-training capture (populated when feature collection is on).
    epoch_records: list[EpochRecord] = field(default_factory=list)
    _open_records: dict[int, EpochRecord] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Delivery metrics
    # ------------------------------------------------------------------ #

    def record_injection(self) -> None:
        """Count one packet entering the network."""
        self.packets_injected += 1

    def record_delivery(self, latency_ns: float, flits: int, hops: int) -> None:
        """Count one packet reaching its destination NI.

        Latencies feeding :meth:`latency_percentile` are kept in a
        bounded reservoir (Vitter's Algorithm R, seeded from
        ``sample_seed``): every delivery — not just the first
        ``max_latency_sample`` — has an equal chance of being retained, so
        long-run percentiles are not biased toward warmup traffic.  Runs
        shorter than the bound keep every latency exactly.
        """
        n = self.packets_delivered
        self.packets_delivered = n + 1
        self.flits_delivered += flits
        self.hops_sum += hops
        self.latency_sum_ns += latency_ns
        if n < self.max_latency_sample:
            self.latencies_ns.append(latency_ns)
        else:
            rng = self._sample_rng
            if rng is None:
                rng = self._sample_rng = random.Random(self.sample_seed)
            j = rng.randrange(n + 1)
            if j < self.max_latency_sample:
                self.latencies_ns[j] = latency_ns

    @property
    def avg_latency_ns(self) -> float:
        """Mean end-to-end packet latency (0.0 when nothing delivered)."""
        if self.packets_delivered == 0:
            return 0.0
        return self.latency_sum_ns / self.packets_delivered

    @property
    def avg_hops(self) -> float:
        """Mean hop count per delivered packet."""
        if self.packets_delivered == 0:
            return 0.0
        return self.hops_sum / self.packets_delivered

    def throughput_flits_per_ns(self, elapsed_ns: float) -> float:
        """Accepted throughput: delivered flits per nanosecond."""
        if elapsed_ns <= 0:
            raise ValueError("elapsed_ns must be positive")
        return self.flits_delivered / elapsed_ns

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over the (sampled) delivered packets."""
        if not self.latencies_ns:
            return 0.0
        return float(np.percentile(self.latencies_ns, q))

    # ------------------------------------------------------------------ #
    # DVFS decisions
    # ------------------------------------------------------------------ #

    def record_mode_selection(self, mode_index: int) -> None:
        """Count one per-epoch DVFS decision (Fig 7 input)."""
        self.mode_selections[mode_index] += 1

    def mode_distribution(self) -> dict[int, float]:
        """Fractional mode breakdown across all epoch decisions."""
        total = sum(self.mode_selections.values())
        if total == 0:
            return {m: 0.0 for m in self.mode_selections}
        return {m: c / total for m, c in self.mode_selections.items()}

    # ------------------------------------------------------------------ #
    # ML data capture
    # ------------------------------------------------------------------ #

    def record_epoch_features(
        self, router: int, epoch: int, features: np.ndarray, current_ibu: float
    ) -> None:
        """Capture an epoch's features; label the previous epoch's record.

        ``current_ibu`` is *this* epoch's measured utilization — which is
        exactly the "future input buffer utilization" label of the record
        captured one epoch earlier for the same router.
        """
        prev = self._open_records.get(router)
        if prev is not None:
            prev.label = current_ibu
        rec = EpochRecord(router=router, epoch=epoch, features=features)
        self._open_records[router] = rec
        self.epoch_records.append(rec)

    def training_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, y)`` over all *labelled* epoch records.

        The final epoch of each router never receives a label (its future
        is unobserved) and is dropped, mirroring the paper's capture scheme.
        """
        rows = [r for r in self.epoch_records if not np.isnan(r.label)]
        if not rows:
            return np.empty((0, 0)), np.empty(0)
        x = np.vstack([r.features for r in rows])
        y = np.array([r.label for r in rows])
        return x, y
