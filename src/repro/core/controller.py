"""Power-policy interface (Model Select unit + Figure 3 logic).

A :class:`PowerPolicy` tells the simulation kernel which mechanisms a model
uses and makes the per-epoch DVFS decision:

* ``uses_gating`` — the kernel runs the Fig 3a idle/T-Idle/inactive logic,
* ``uses_dvfs`` — :meth:`on_epoch` runs the Fig 3b threshold mode
  selection on the (predicted or measured) buffer utilization,
* ``proactive`` — utilization is *predicted* by the offline-trained ridge
  weights (Label Generate); otherwise the policy is *reactive* and reuses
  the epoch's measured utilization (exactly how the paper builds the
  reactive variants that generate training data).

The per-cycle gating logic itself lives in the kernel (it is identical for
every gated model and is the hot path); policies own only the epoch-rate
decisions, matching the paper's split of fine-grain power-gating versus
coarse-grain DVFS.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.features import REDUCED_FEATURES, FeatureSet
from repro.core.modes import MAX_MODE as MAX_MODE_INDEX
from repro.core.modes import MODE_MAX, Mode, mode
from repro.core.states import PowerState
from repro.core.thresholds import mode_index_for_utilization

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.router import Router


class PowerPolicy:
    """Base policy: no power management (the Baseline model)."""

    name = "baseline"
    uses_gating = False
    uses_dvfs = False

    def __init__(
        self,
        weights: np.ndarray | None = None,
        feature_set: FeatureSet | None = None,
        allowed_modes: tuple[int, ...] | None = None,
    ) -> None:
        self.feature_set = feature_set or REDUCED_FEATURES
        self.weights: np.ndarray | None = None
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(self.feature_set),):
                raise ValueError(
                    f"weight vector has shape {weights.shape}, expected "
                    f"({len(self.feature_set)},) for feature set "
                    f"{self.feature_set.name!r}"
                )
            self.weights = weights
        # Raw prediction from the most recent select_mode_index call, so
        # observers (telemetry) reuse it instead of repeating the dot
        # product on the hot path.  None until the first decision.
        self.last_prediction: float | None = None
        # Optional V/F-ladder restriction (granularity ablations): the
        # threshold choice is rounded *up* to the nearest allowed mode so a
        # coarser ladder never under-provisions performance.
        if allowed_modes is not None:
            allowed_modes = tuple(sorted(set(allowed_modes)))
            if not allowed_modes or any(
                m not in range(3, 8) for m in allowed_modes
            ):
                raise ValueError(
                    f"allowed_modes must be a subset of 3-7, got {allowed_modes}"
                )
            if MAX_MODE_INDEX not in allowed_modes:
                raise ValueError(
                    "allowed_modes must include mode 7 (saturation fallback)"
                )
        self.allowed_modes = allowed_modes

    @property
    def proactive(self) -> bool:
        """Whether mode selection uses the trained predictor."""
        return self.weights is not None

    def initial_mode(self) -> Mode:
        """Mode every router starts in (always the highest, per the paper)."""
        return MODE_MAX

    # ------------------------------------------------------------------ #
    # Epoch-rate decision (Fig 3b)
    # ------------------------------------------------------------------ #

    def predict_utilization(
        self, router: "Router", features: np.ndarray | None
    ) -> float:
        """Label Generate: predicted future IBU (proactive) or measured IBU."""
        if self.proactive:
            if features is None:
                raise ValueError("proactive policy needs epoch features")
            # A non-finite weight or feature gives a NaN product; the
            # caller falls back to measured IBU.
            with np.errstate(invalid="ignore"):
                return float(self.weights @ features)
        return router.current_ibu()

    def select_mode_index(
        self, router: "Router", features: np.ndarray | None, sim=None
    ) -> int:
        """Model Select: map the utilization estimate to a mode index.

        A non-finite prediction falls back to the epoch's *measured*
        utilization — the reactive threshold policy — instead of steering
        the VR with garbage.  ``sim`` (optional) counts the fallback in
        ``predictor_fallbacks``.
        """
        u = self.predict_utilization(router, features)
        self.last_prediction = u
        if not math.isfinite(u):
            u = router.current_ibu()
            if sim is not None:
                sim.stats.predictor_fallbacks += 1
        target = self.adjust_mode(router, mode_index_for_utilization(u))
        if self.allowed_modes is not None and target not in self.allowed_modes:
            target = min(m for m in self.allowed_modes if m >= target)
        return target

    def adjust_mode(self, router: "Router", target: int) -> int:
        """Hook for variants (ML+TURBO) to override the threshold choice."""
        return target

    def on_epoch(self, router: "Router", sim, features: np.ndarray | None) -> None:
        """Epoch-boundary decision; default does nothing (Baseline/PG)."""

    def _apply_mode(self, router: "Router", target: int, sim) -> None:
        """Apply a mode decision respecting the router's power state."""
        sim.stats.record_mode_selection(target)
        if self.proactive:
            sim.accountant.add_ml_label(router.rid, len(self.feature_set))
        if target == router.mode.index:
            return
        if router.state is PowerState.ACTIVE and router.switch_stall == 0:
            sim.settle(router)
            # The kernel owns the switch so telemetry can observe it.
            sim.begin_switch(router, target)
        elif router.state is PowerState.INACTIVE:
            # A gated router re-targets for free: it will pay T-Wakeup into
            # the newly predicted mode when it wakes.
            sim.settle(router)
            router.mode = mode(target)
        # A waking or mid-switch router keeps its in-progress target.


class BaselinePolicy(PowerPolicy):
    """All routers always active at mode 7; no savings, best performance."""

    name = "baseline"


class PowerGatedPolicy(PowerPolicy):
    """Power Punch-style gating only (Section III.B "PG").

    Routers are either gated or active at the highest mode; the kernel's
    shared look-ahead securing makes the scheme partially non-blocking.
    """

    name = "pg"
    uses_gating = True


class LeadPolicy(PowerPolicy):
    """LEAD-tau: DVFS+ML with no power-gating (Section III.B)."""

    name = "lead"
    uses_dvfs = True

    def on_epoch(self, router: "Router", sim, features: np.ndarray | None) -> None:
        self._apply_mode(router, self.select_mode_index(router, features, sim), sim)


class DozzNocPolicy(PowerPolicy):
    """The proposed model: power-gating + DVFS + ML (Fig 3a + 3b)."""

    name = "dozznoc"
    uses_gating = True
    uses_dvfs = True

    def on_epoch(self, router: "Router", sim, features: np.ndarray | None) -> None:
        self._apply_mode(router, self.select_mode_index(router, features, sim), sim)


class TurboPolicy(DozzNocPolicy):
    """ML+TURBO: every third mid-mode prediction is promoted to mode 7.

    "Every three times we predict that a router should be at any active
    mode other than mode 3 or mode 7, we instead select the highest voltage
    level for the next epoch."
    """

    name = "turbo"

    def adjust_mode(self, router: "Router", target: int) -> int:
        if target in (4, 5, 6):
            router.turbo_counter += 1
            if router.turbo_counter % 3 == 0:
                return 7
        return target


#: Model registry (Section III.B names -> policy classes).
POLICIES: dict[str, type[PowerPolicy]] = {
    "baseline": BaselinePolicy,
    "pg": PowerGatedPolicy,
    "lead": LeadPolicy,
    "dozznoc": DozzNocPolicy,
    "turbo": TurboPolicy,
}


def make_policy(
    name: str,
    weights: np.ndarray | None = None,
    feature_set: FeatureSet | None = None,
    allowed_modes: tuple[int, ...] | None = None,
) -> PowerPolicy:
    """Instantiate a policy by its paper name.

    ``weights`` turns an ML policy proactive; without weights, ML policies
    run in their *reactive* form (used to gather training data).
    ``allowed_modes`` restricts the DVFS ladder (granularity studies).
    """
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choices: {sorted(POLICIES)}"
        ) from None
    return cls(weights=weights, feature_set=feature_set,
               allowed_modes=allowed_modes)
