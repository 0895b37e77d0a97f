"""Per-router energy accounting.

The accountant is the single sink for every energy-relevant event the
simulator emits:

* **static energy** — integrated over real (wall-clock) time whenever a
  router's rail is up: active intervals at the current mode's voltage, and
  wakeup / mode-switch intervals (the paper: a waking router "consumes the
  same amount of power as if it were in active state").  Power-gated
  intervals accrue zero.
* **dynamic energy** — charged per flit forwarded through a router+link
  hop, at the upstream router's voltage (``C V^2`` from the DSENT model).
* **wakeup (break-even) charge** — each gating exit costs the energy that
  defines T-Breakeven: ``P_static(V_target) x T_breakeven`` cycles.  Off
  periods shorter than T-Breakeven therefore produce a *net loss*, exactly
  the accounting the break-even concept encodes.
* **ML overhead** — one label computation per router per epoch (7.1 pJ for
  the 5-feature set, 61.1 pJ for 41 features).

All internal accumulators are picojoules.
"""

from __future__ import annotations

import numpy as np

from repro.core.modes import MODE_BY_INDEX, Mode
from repro.power.dsent import (
    ML_LABEL_ENERGY_41FEAT_PJ,
    ML_LABEL_ENERGY_5FEAT_PJ,
    dynamic_energy_pj,
    static_power_w,
)


class EnergyAccountant:
    """Accumulates static/dynamic/overhead energy per router.

    Parameters
    ----------
    num_routers:
        Number of routers to track.
    """

    def __init__(self, num_routers: int) -> None:
        if num_routers < 1:
            raise ValueError("need at least one router")
        self.num_routers = num_routers
        self.static_pj = np.zeros(num_routers)
        self.dynamic_pj = np.zeros(num_routers)
        self.wake_pj = np.zeros(num_routers)
        self.ml_pj = np.zeros(num_routers)
        self.gated_time_ns = np.zeros(num_routers)
        self.powered_time_ns = np.zeros(num_routers)
        self.flit_hops = np.zeros(num_routers, dtype=np.int64)
        self.wake_events = np.zeros(num_routers, dtype=np.int64)
        #: Wall-clock residency per active mode index (3-7), per router (ns).
        self.mode_time_ns: dict[int, np.ndarray] = {
            idx: np.zeros(num_routers) for idx in MODE_BY_INDEX
        }

    # ------------------------------------------------------------------ #
    # Event sinks (called by the simulation kernel)
    # ------------------------------------------------------------------ #

    def add_static(self, router: int, voltage: float, dt_ns: float) -> None:
        """Charge static energy for ``dt_ns`` at rail voltage ``voltage``."""
        self.static_pj[router] += static_power_w(voltage) * dt_ns * 1e3
        self.powered_time_ns[router] += dt_ns

    def add_mode_residency(self, router: int, mode_index: int, dt_ns: float) -> None:
        """Record wall-clock time spent operating in active mode ``mode_index``."""
        self.mode_time_ns[mode_index][router] += dt_ns

    def add_gated(self, router: int, dt_ns: float) -> None:
        """Record a power-gated interval (zero static power)."""
        self.gated_time_ns[router] += dt_ns

    def add_hop(self, router: int, voltage: float, flits: int) -> None:
        """Charge dynamic energy for ``flits`` flit-hops at ``voltage``."""
        self.dynamic_pj[router] += dynamic_energy_pj(voltage) * flits
        self.flit_hops[router] += flits

    def add_wake_event(self, router: int, target_mode: Mode) -> None:
        """Charge the break-even wakeup cost for one gating exit."""
        cycles = target_mode.t_breakeven_cycles
        self.wake_pj[router] += (
            static_power_w(target_mode.voltage) * cycles * target_mode.period_ns * 1e3
        )
        self.wake_events[router] += 1

    def add_ml_label(self, router: int, n_features: int) -> None:
        """Charge one label computation (per router, per epoch)."""
        if n_features <= 6:
            self.ml_pj[router] += ML_LABEL_ENERGY_5FEAT_PJ
        else:
            self.ml_pj[router] += ML_LABEL_ENERGY_41FEAT_PJ

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    @property
    def total_static_pj(self) -> float:
        """Total static energy including break-even wakeup charges."""
        return float(self.static_pj.sum() + self.wake_pj.sum())

    @property
    def total_dynamic_pj(self) -> float:
        """Total dynamic energy: delivered flits and ML labels."""
        return float(self.dynamic_pj.sum() + self.ml_pj.sum())

    @property
    def total_pj(self) -> float:
        """All energy, every category."""
        return self.total_static_pj + self.total_dynamic_pj

    def residency_time_ns(self, router: int) -> float:
        """Gated plus powered wall-clock time settled for ``router`` (ns).

        After the simulator's end-of-run residency flush this must match
        the elapsed simulated time — audited by :mod:`repro.validate`.
        """
        return float(self.gated_time_ns[router] + self.powered_time_ns[router])

    def average_static_power_w(self, elapsed_ns: float) -> float:
        """Mean static power over the run, across all routers (watts)."""
        if elapsed_ns <= 0:
            raise ValueError("elapsed_ns must be positive")
        return self.total_static_pj * 1e-3 / elapsed_ns

    def gated_fraction(self, elapsed_ns: float) -> float:
        """Fraction of total router-time spent power-gated."""
        if elapsed_ns <= 0:
            raise ValueError("elapsed_ns must be positive")
        return float(self.gated_time_ns.sum()) / (elapsed_ns * self.num_routers)

    def summary(self, elapsed_ns: float) -> dict[str, float]:
        """Flat dictionary of the headline accounting numbers."""
        return {
            "static_pj": self.total_static_pj,
            "dynamic_pj": self.total_dynamic_pj,
            "wake_pj": float(self.wake_pj.sum()),
            "ml_pj": float(self.ml_pj.sum()),
            "total_pj": self.total_pj,
            "avg_static_power_w": self.average_static_power_w(elapsed_ns),
            "gated_fraction": self.gated_fraction(elapsed_ns),
            "flit_hops": float(self.flit_hops.sum()),
            "wake_events": float(self.wake_events.sum()),
        }
