"""Per-run telemetry capture: epoch series, latency histograms, timers.

:class:`TelemetryRecorder` is the object the simulation kernel talks to.
It is designed around the kernel's cost budget:

* **Zero cost when absent.**  The simulator stores ``telemetry=None`` and
  every hook site is guarded by ``if tel is not None`` — a disabled run
  executes no telemetry code at all and is bit-identical to a pre-telemetry
  run (proved by ``tests/test_telemetry.py``).
* **Pre-registered handles on the fast path.**  ``bind()`` allocates every
  per-router slot (wake-start ticks, last predictions) and registers
  every counter/histogram **once**; the per-event hooks touch only bound
  attributes and pre-sized lists — no dict lookups, no string formatting.
* **Read-only.**  Hooks observe kernel state and never mutate it, so a
  telemetry-on run produces bit-identical simulation results too.

The recorder emits two artifacts (written by :mod:`repro.telemetry.io`):

* a per-epoch, per-router JSONL **series** (mode decisions, buffer
  occupancy, predicted vs measured utilization, wakes/switches, off-cycle
  residency),
* a mergeable **summary** (:class:`~repro.telemetry.metrics.MetricSet`)
  of counters, gauges and fixed-bucket histograms plus wall-clock phase
  timers; campaign-level aggregates are exact merges of per-task
  summaries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.telemetry.metrics import (
    Counter,
    MetricSet,
    quantize,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.noc.simulator import Simulator

#: Bucket edges (base ticks) for wakeup latency: nominal T-Wakeup spans
#: ~72-324 ticks across the mode ladder.
WAKE_LATENCY_BOUNDS = (100, 150, 200, 250, 300, 400, 600, 900, 1400, 2000)

#: Bucket edges (router cycles) for switch stalls: T-Switch is 7-16
#: cycles.
SWITCH_STALL_BOUNDS = (8, 12, 16, 24, 32, 48, 64, 96)

#: Bucket edges (micro-units) for utilization fractions in [0, 1].
IBU_BOUNDS = (
    10_000, 20_000, 50_000, 100_000, 200_000, 300_000,
    500_000, 750_000, 1_000_000,
)

#: Bucket edges (micro-units) for absolute prediction error.
PRED_ERROR_BOUNDS = (
    1_000, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000,
)


class TelemetryRecorder:
    """Collects one run's telemetry; see the module docstring.

    Parameters
    ----------
    series:
        Capture the per-epoch JSONL series (aggregates are always on).
        Long paper-scale runs can disable it to bound memory.
    """

    def __init__(self, series: bool = True) -> None:
        self.capture_series = series
        self.metrics = MetricSet()
        m = self.metrics
        self._c_epochs = m.counter(
            "epochs_total", "epoch boundaries crossed (all routers)")
        self._c_wakes = m.counter(
            "wake_events_total", "power-gating exits begun")
        self._c_switches = m.counter(
            "vf_switches_total", "active->active V/F switches begun")
        self._c_pred = m.counter(
            "predictions_total", "proactive utilization predictions made")
        self._h_wake = m.histogram(
            "wake_latency_ticks", WAKE_LATENCY_BOUNDS,
            "observed INACTIVE->ACTIVE wakeup latency (base ticks)")
        self._h_switch = m.histogram(
            "switch_stall_cycles", SWITCH_STALL_BOUNDS,
            "stall cycles charged per V/F switch")
        self._h_ibu = m.histogram(
            "epoch_ibu_micro", IBU_BOUNDS,
            "measured per-epoch input-buffer utilization (micro-units)")
        self._h_pred_err = m.histogram(
            "pred_abs_error_micro", PRED_ERROR_BOUNDS,
            "|predicted - measured| next-epoch utilization (micro-units)")
        self._g_ibu = m.gauge(
            "ibu_micro", "last/min/max measured epoch utilization")
        self._mode_sel = [
            m.counter(f"mode_selected_total_mode{i}",
                      f"epoch decisions selecting mode {i}")
            for i in range(3, 8)
        ]
        self._mode_res = [
            m.counter(f"mode_residency_ticks_mode{i}",
                      f"settled residency in active mode {i} (base ticks)")
            for i in range(3, 8)
        ]
        self._c_gated = m.counter(
            "gated_residency_ticks", "settled power-gated residency (ticks)")
        self._c_off = m.counter(
            "off_cycles_total", "router heartbeat cycles spent gated")
        self._phases: dict[str, Counter] = {}

        # Series rows: plain tuples appended on the epoch path, rendered
        # to dicts only at write time.
        self.epoch_rows: list[tuple] = []
        self.meta: dict = {}

        # Per-router handles, allocated in bind().
        self._wake_start: list[int] = []
        self._prev_pred: list[float] = []
        self._bound = False

    # ------------------------------------------------------------------ #
    # Kernel binding
    # ------------------------------------------------------------------ #

    def bind(self, sim: "Simulator") -> None:
        """Pre-register per-router handles for one run."""
        n = sim.network.topology.num_routers
        self._wake_start = [-1] * n
        self._prev_pred = [float("nan")] * n
        self._bound = True
        self.meta.update(
            policy=sim.policy.name,
            trace=sim.trace.name,
            seed=sim.config.seed,
            topology=sim.config.topology,
            num_routers=n,
            epoch_cycles=sim.epoch_cycles,
            proactive=sim.policy.proactive,
        )

    # ------------------------------------------------------------------ #
    # Event hooks (called from the kernel; bound handles only)
    # ------------------------------------------------------------------ #

    def on_wake_begin(self, rid: int, tick: int) -> None:
        """A gated router started its wakeup handshake at ``tick``."""
        self._c_wakes.value += 1
        self._wake_start[rid] = tick

    def on_wake_complete(self, rid: int, tick: int) -> None:
        """A waking router reached ACTIVE."""
        start = self._wake_start[rid]
        if start >= 0:
            self._h_wake.observe(tick - start)
            self._wake_start[rid] = -1

    def on_switch(
        self, rid: int, tick: int, from_idx: int, to_idx: int,
        stall_cycles: int,
    ) -> None:
        """An active->active V/F switch landed."""
        self._c_switches.value += 1
        self._h_switch.observe(stall_cycles)

    def on_epoch(self, sim: "Simulator", router, features) -> None:
        """One router crossed an epoch boundary (post-decision, pre-reset).

        Called after the policy's DVFS decision but before
        ``reset_epoch()``, so the epoch accumulators are still live and
        ``router.mode`` already reflects the decision.
        """
        self._c_epochs.value += 1
        tick = sim.now_tick
        ibu = router.current_ibu()
        ibu_q = quantize(ibu)
        self._h_ibu.observe(ibu_q)
        self._g_ibu.set(ibu_q, tick)

        rid = router.rid
        pred = None
        policy = sim.policy
        if policy.proactive and features is not None:
            # Reuse the exact prediction the decision just produced
            # (stashed by select_mode_index) instead of repeating the dot
            # product on the hot path; proactive policies that make no
            # epoch decision (e.g. a weighted baseline) leave no stash,
            # so fall back to the read-only recompute.
            p = policy.last_prediction
            if p is None:
                p = float(policy.weights @ features)
            if p - p == 0:  # finite: rejects NaN and +/-inf without imports
                pred = p
                self._c_pred.value += 1
        prev = self._prev_pred[rid]
        if prev == prev:  # a prediction for *this* epoch exists: score it
            self._h_pred_err.observe(abs(quantize(prev) - ibu_q))
        self._prev_pred[rid] = float("nan") if pred is None else pred

        if self.capture_series:
            self.epoch_rows.append((
                tick, rid, router.epoch_index, router.mode.index,
                router.state.name, ibu, pred, router.epoch_idle_cycles,
                router.epoch_sends, router.epoch_recvs,
                router.epoch_flits_out, router.epoch_wakes,
                router.epoch_switches, router.total_off_cycles,
            ))

    def on_end(self, sim: "Simulator", drained: bool) -> None:
        """Fold end-of-run state into the summary aggregates."""
        for r in sim.network.routers:
            self._c_gated.value += r.gated_ticks
            self._c_off.value += r.total_off_cycles
            for i, ticks in enumerate(r.mode_ticks[3:8]):
                self._mode_res[i].value += ticks
        for i in range(3, 8):
            self._mode_sel[i - 3].value += sim.stats.mode_selections[i]
        stats = sim.stats
        self.meta.update(
            drained=drained,
            final_tick=sim.now_tick,
            elapsed_ns=sim.now_ns,
            packets_injected=stats.packets_injected,
            packets_delivered=stats.packets_delivered,
        )

    # ------------------------------------------------------------------ #
    # Wall-clock phase timers
    # ------------------------------------------------------------------ #

    def phase_counter(self, name: str) -> Counter:
        """The (lazily registered) wall-clock counter for one phase."""
        c = self._phases.get(name)
        if c is None:
            c = self.metrics.counter(
                f"phase_{name}_wall_ns", f"wall-clock spent in {name!r} (ns)"
            )
            self._phases[name] = c
        return c

    @contextmanager
    def phase(self, name: str):
        """Time one named phase (integer ns; mergeable across tasks)."""
        c = self.phase_counter(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            c.value += time.perf_counter_ns() - start


#: Column order of one serialized epoch row (see docs/observability.md).
EPOCH_ROW_FIELDS = (
    "tick", "router", "epoch", "mode", "state", "ibu", "pred",
    "idle_cycles", "sends", "recvs", "flits_out", "wakes", "switches",
    "off_cycles_total",
)


@contextmanager
def maybe_cprofile(enabled: bool):
    """Optionally capture a cProfile around a kernel section.

    Yields the active :class:`cProfile.Profile` (or ``None`` when
    disabled); pair with :func:`write_profile` to persist it.
    """
    if not enabled:
        yield None
        return
    import cProfile

    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()


def write_profile(prof, directory, name: str = "kernel") -> "tuple":
    """Dump a captured profile as ``.pstats`` plus a top-40 text report."""
    import io as _io
    import pstats
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    raw = directory / f"profile-{name}.pstats"
    prof.dump_stats(str(raw))
    buf = _io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(40)
    txt = directory / f"profile-{name}.txt"
    txt.write_text(buf.getvalue())
    return raw, txt
