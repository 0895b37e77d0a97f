"""The DozzNoC router model (Figure 1c).

Each router owns one input FIFO per port (LOCAL plus the four mesh
directions: :data:`~repro.noc.topology.NUM_PORTS` in all), one output per
port with virtual cut-through serialization, a round-robin switch
allocator, a per-router clock (its current V/F mode), and the
power-management state machine of Figure 3a:

* ``PowerState.ACTIVE`` — forwards packets at the current mode's clock;
  may additionally be stalled ``switch_stall`` cycles during an
  active->active voltage switch (T-Switch),
* ``PowerState.WAKEUP`` — rail charging for ``wakeup_remaining`` cycles
  (T-Wakeup); consumes active power, moves nothing,
* ``PowerState.INACTIVE`` — power-gated; fires only a slow heartbeat (at
  the lowest mode's period) to observe wake conditions.

The router also hosts the Feature-Extract bookkeeping: per-epoch input
buffer utilization, core send/receive counters, cumulative off time, and
(optionally) the per-port accumulators needed by the 41-feature set.

Securing (the "downstream router" rule of Section III.B) is reference
counted: a packet buffered at an upstream router holds ``secure_count`` on
its look-ahead next hop from the moment it commits upstream until the
moment it commits here.  A secured router may not gate; if it is off when
secured, it begins waking immediately.
"""

from __future__ import annotations

import heapq

from repro.common.units import BASE_TICKS_PER_NS
from repro.core.modes import MODE_MIN, Mode
from repro.core.states import PowerState
from repro.noc.buffer import InputBuffer
from repro.noc.packet import Packet
from repro.noc.topology import NUM_PORTS

#: Heartbeat period (ticks) for power-gated routers: the slowest clock.
GATED_HEARTBEAT_TICKS = MODE_MIN.period_ticks


class Router:
    """One router and its attached network interface state."""

    __slots__ = (
        "rid",
        "buffer_depth",
        "capacity_total",
        "in_buffers",
        "arrivals",
        "out_busy_until",
        "rr",
        "inject_queue",
        "inject_pos",
        "state",
        "mode",
        "cur_period",
        "switch_stall",
        "wakeup_remaining",
        "idle_count",
        "secure_count",
        "total_off_cycles",
        "last_settle_tick",
        "next_event_tick",
        "epoch_cycle",
        "epoch_index",
        "occ_sum",
        "epoch_sends",
        "epoch_recvs",
        "epoch_idle_cycles",
        "epoch_wakes",
        "epoch_switches",
        "epoch_flits_out",
        "prev_ibu",
        "turbo_counter",
        "track_ports",
        "occ_port_sums",
        "flits_out_port",
        "neighbor_ids",
        "gated_ticks",
        "mode_ticks",
    )

    def __init__(
        self,
        rid: int,
        buffer_depth: int,
        initial_mode: Mode,
    ) -> None:
        self.rid = rid
        self.buffer_depth = buffer_depth
        self.capacity_total = buffer_depth * NUM_PORTS
        self.in_buffers = [InputBuffer(buffer_depth) for _ in range(NUM_PORTS)]
        # Min-heap of (arrival_tick, seq, in_port, packet) in-flight transfers.
        self.arrivals: list[tuple[int, int, int, Packet]] = []
        self.out_busy_until = [0] * NUM_PORTS
        self.rr = [0] * NUM_PORTS
        # Pre-split trace entries: (t_ns, src_core, dst_core, kind) ascending.
        self.inject_queue: list[tuple[float, int, int, int]] = []
        self.inject_pos = 0

        self.state = PowerState.ACTIVE
        self.mode = initial_mode
        # Cached period_ticks, maintained by the transition methods so the
        # scheduler reads one slot instead of a property on every fire.
        self.cur_period = initial_mode.period_ticks
        self.switch_stall = 0
        self.wakeup_remaining = 0
        self.idle_count = 0
        self.secure_count = 0
        self.total_off_cycles = 0
        self.last_settle_tick = 0
        self.next_event_tick = 0

        self.epoch_cycle = 0
        self.epoch_index = 0
        self.occ_sum = 0.0
        self.epoch_sends = 0
        self.epoch_recvs = 0
        self.epoch_idle_cycles = 0
        self.epoch_wakes = 0
        self.epoch_switches = 0
        self.epoch_flits_out = 0
        self.prev_ibu = 0.0
        self.turbo_counter = 0

        self.track_ports = False
        self.occ_port_sums = [0.0] * NUM_PORTS
        self.flits_out_port = [0] * NUM_PORTS
        self.neighbor_ids: list[int] = []

        # Energy residency, accumulated in ticks and flushed to the
        # EnergyAccountant once at end of run (hot path: one int add/fire).
        self.gated_ticks = 0
        self.mode_ticks = [0] * 8  # indexed by mode index 3..7

    # ------------------------------------------------------------------ #
    # Clocking
    # ------------------------------------------------------------------ #

    @property
    def period_ticks(self) -> int:
        """Current firing period: mode clock when powered, heartbeat when off."""
        if self.state is PowerState.INACTIVE:
            return GATED_HEARTBEAT_TICKS
        return self.mode.period_ticks

    # ------------------------------------------------------------------ #
    # Occupancy / idleness queries (Feature Extract inputs)
    # ------------------------------------------------------------------ #

    def total_occupancy(self) -> int:
        """Flits currently resident across all input FIFOs."""
        total = 0
        for buf in self.in_buffers:
            total += buf.occupancy
        return total

    def occupancy_fraction(self) -> float:
        """Input buffer utilization: resident flits / theoretical maximum."""
        return self.total_occupancy() / self.capacity_total

    def inject_pending(self, now_ns: float) -> bool:
        """Whether the attached cores have a packet due for injection."""
        q, i = self.inject_queue, self.inject_pos
        return i < len(q) and q[i][0] <= now_ns

    def has_future_injections(self) -> bool:
        """Whether any trace entries remain for this router's cores."""
        return self.inject_pos < len(self.inject_queue)

    def is_idle(self, now_ns: float, now_tick: int) -> bool:
        """R-Idle (Section III.B): empty, unsecured, nothing in flight or due.

        A router is idle only if its input buffers hold no packets and no
        reservations, no transfer is arriving or departing on any port, no
        attached core has a packet due, and it is not a secured downstream
        router.
        """
        if self.secure_count > 0 or self.arrivals:
            return False
        for buf in self.in_buffers:
            if buf.occupancy or buf.reserved:
                return False
        for busy in self.out_busy_until:
            if busy > now_tick:
                return False
        if self.inject_pending(now_ns):
            return False
        return True

    # ------------------------------------------------------------------ #
    # Power-state transitions (callers settle energy accounting first)
    # ------------------------------------------------------------------ #

    def begin_gate(self) -> None:
        """ACTIVE -> INACTIVE (single-cycle transition per Section III.A)."""
        self.state = PowerState.INACTIVE
        self.cur_period = GATED_HEARTBEAT_TICKS
        self.idle_count = 0
        self.switch_stall = 0

    def begin_wakeup(self) -> None:
        """INACTIVE -> WAKEUP; waits T-Wakeup cycles of the target mode."""
        self.state = PowerState.WAKEUP
        self.cur_period = self.mode.period_ticks
        self.wakeup_remaining = self.mode.t_wakeup_cycles
        self.epoch_wakes += 1

    def finish_wakeup(self) -> None:
        """WAKEUP -> ACTIVE."""
        self.state = PowerState.ACTIVE
        self.cur_period = self.mode.period_ticks
        self.wakeup_remaining = 0

    def begin_switch(self, new_mode: Mode) -> None:
        """Start an active->active voltage/frequency switch (T-Switch stall)."""
        if new_mode.index == self.mode.index:
            return
        self.mode = new_mode
        self.cur_period = new_mode.period_ticks
        self.switch_stall = new_mode.t_switch_cycles
        self.epoch_switches += 1

    @property
    def can_receive(self) -> bool:
        """Whether upstream may start a new transfer toward this router."""
        return self.state is PowerState.ACTIVE and self.switch_stall == 0

    # ------------------------------------------------------------------ #
    # Epoch bookkeeping
    # ------------------------------------------------------------------ #

    def current_ibu(self) -> float:
        """Mean input-buffer-utilization fraction over the epoch so far."""
        if self.epoch_cycle == 0:
            return 0.0
        return self.occ_sum / self.epoch_cycle

    def residency_ticks(self) -> int:
        """Total settled residency: gated plus every active mode (ticks).

        After the end-of-run flush this must equal the final simulated
        tick — the residency-conservation invariant audited by
        :mod:`repro.validate`.
        """
        return self.gated_ticks + sum(self.mode_ticks)

    def reset_epoch(self) -> None:
        """Clear per-epoch accumulators (the label was already captured)."""
        self.prev_ibu = self.current_ibu()
        self.epoch_index += 1
        self.epoch_cycle = 0
        self.occ_sum = 0.0
        self.epoch_sends = 0
        self.epoch_recvs = 0
        self.epoch_idle_cycles = 0
        self.epoch_wakes = 0
        self.epoch_switches = 0
        self.epoch_flits_out = 0
        if self.track_ports:
            self.occ_port_sums = [0.0] * NUM_PORTS
            self.flits_out_port = [0] * NUM_PORTS

    # ------------------------------------------------------------------ #
    # Arrival queue helpers
    # ------------------------------------------------------------------ #

    def push_arrival(self, tick: int, seq: int, in_port: int, packet: Packet) -> None:
        """Register an in-flight transfer that commits at ``tick``."""
        heapq.heappush(self.arrivals, (tick, seq, in_port, packet))

    def pop_due_arrival(self, now_tick: int) -> tuple[int, Packet] | None:
        """Pop one arrival whose tail has landed by ``now_tick``."""
        if self.arrivals and self.arrivals[0][0] <= now_tick:
            _, _, in_port, packet = heapq.heappop(self.arrivals)
            return in_port, packet
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Router({self.rid}, {self.state.name}, {self.mode.name}, "
            f"occ={self.total_occupancy()})"
        )


def ticks_to_ns(ticks: int) -> float:
    """Local fast path for tick->ns conversion."""
    return ticks / BASE_TICKS_PER_NS
