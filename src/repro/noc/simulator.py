"""Event-driven, multi-clock-domain simulation kernel.

Each router is a clocked agent firing at its own period (its current V/F
mode, or a slow heartbeat while power-gated).  Timestamps are integer base
ticks of 1/18 ns, so all five paper frequencies beat exactly (see
:mod:`repro.common.units`).  A binary heap orders router firings; stale
heap entries (left behind when a router is expedited, e.g. woken by a
secure signal) are skipped via the ``next_event_tick`` guard.  Every
router fires once per period, gated heartbeats included: nothing is
skipped, so this kernel is the plain per-cycle reference that the fast
array kernel (:mod:`repro.noc.array_sim`) must match bit for bit.

One router cycle performs, in order:

1. commit in-flight transfers whose tail flit has arrived (and hand over
   the look-ahead security reference: release the hold this packet placed
   on us, place a hold on its next hop),
2. if mid voltage-switch: burn one T-Switch stall cycle; otherwise run
   transport — ejection, directional switch allocation (round-robin,
   virtual cut-through with full-packet reservation), and NI injection,
3. power-gating bookkeeping (R-Idle counting, T-Idle gating) when the
   active policy gates,
4. epoch accounting; at an epoch boundary, feature extraction, training
   capture, and the policy's DVFS decision.

Hop latency is ``packet_length`` cycles of the *upstream* router's clock
(Section III.A's frequency-mismatch behaviour falls out naturally).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.units import BASE_TICKS_PER_NS, ns_to_ticks
from repro.core.states import PowerState

if TYPE_CHECKING:  # pragma: no cover - avoids a core<->noc import cycle
    from repro.core.controller import PowerPolicy
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.stats import NetworkStats
from repro.noc.topology import LOCAL, NUM_PORTS
from repro.power.accounting import EnergyAccountant
from repro.traffic.trace import KIND_REQUEST, Trace

_ACTIVE = PowerState.ACTIVE
_WAKEUP = PowerState.WAKEUP
_INACTIVE = PowerState.INACTIVE


@dataclass
class SimResult:
    """Everything measured in one run."""

    policy_name: str
    trace_name: str
    config: SimConfig
    stats: NetworkStats
    accountant: EnergyAccountant
    elapsed_ns: float
    drained: bool

    @property
    def throughput_flits_per_ns(self) -> float:
        """Accepted throughput over the run."""
        return self.stats.throughput_flits_per_ns(self.elapsed_ns)

    @property
    def avg_latency_ns(self) -> float:
        """Mean packet latency including NI queueing."""
        return self.stats.avg_latency_ns

    @property
    def energy_delay_product(self) -> float:
        """EDP (Section IV.B.1): total energy x mean packet latency (pJ*ns)."""
        return self.accountant.total_pj * self.stats.avg_latency_ns

    def summary(self) -> dict[str, float]:
        """Flat metric dictionary (energy + performance)."""
        out = {
            "throughput_flits_per_ns": self.throughput_flits_per_ns,
            "avg_latency_ns": self.avg_latency_ns,
            "packets_delivered": float(self.stats.packets_delivered),
            "packets_injected": float(self.stats.packets_injected),
            "elapsed_ns": self.elapsed_ns,
            "edp_pj_ns": self.energy_delay_product,
        }
        out.update(self.accountant.summary(self.elapsed_ns))
        out["predictor_fallbacks"] = float(self.stats.predictor_fallbacks)
        return out


class Simulator:
    """Run one (policy, trace, config) combination."""

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        policy: "PowerPolicy",
        collect_features: bool = False,
        audit=None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.policy = policy
        self.collect_features = collect_features
        self.epoch_cycles = config.epoch_cycles
        self.t_idle = config.t_idle
        self.wormhole = config.switching == "wormhole"
        # Invariant auditor (see repro.validate): observes state at epoch
        # boundaries and end-of-run, never mutates it, so audited runs are
        # bit-identical to unaudited ones.  ``audit=True`` builds the
        # default auditor.
        if audit is True:
            from repro.validate.invariants import InvariantAuditor

            audit = InvariantAuditor()
        self.audit = audit or None

        self.network = Network(config, policy.initial_mode())
        self.entries_remaining = self.network.load_trace(trace)
        self.total_trace_entries = self.entries_remaining
        self.accountant = EnergyAccountant(self.network.topology.num_routers)
        self.stats = NetworkStats(sample_seed=config.seed)

        self.now_tick = 0
        self.now_ns = 0.0
        self.packets_live = 0
        self._pid = 0
        self._arr_seq = 0
        # Look-ahead securing ledger: holds placed vs released over the
        # whole run (audited for symmetry at drain by repro.validate).
        self.secures_placed = 0
        self.secures_released = 0

        # Telemetry recorder (repro.telemetry): observes epoch boundaries
        # and wake/switch events through pre-registered handles, never
        # mutates state.  ``None`` (the default) executes zero telemetry
        # code — disabled runs are bit-identical to pre-telemetry ones.
        self._telemetry = telemetry
        if telemetry is not None:
            telemetry.bind(self)

        fs = policy.feature_set
        self._needs_features = collect_features or policy.proactive
        if self._needs_features and fs.needs_port_tracking:
            for r in self.network.routers:
                r.track_ports = True

        # Hot-path constants hoisted out of the per-cycle loop.
        self._uses_gating = policy.uses_gating
        self._req_flits = config.request_flits
        self._resp_flits = config.response_flits
        self._links = self.network.links
        self._nbr_port = self.network.neighbor_port
        self._route_tab = self.network.route_port

        if config.horizon_ns is not None:
            self.horizon_tick: int | None = ns_to_ticks(config.horizon_ns)
        else:
            self.horizon_tick = None
        # Safety cap so a kernel bug can never spin forever.
        cap_ns = (trace.duration_ns + 1_000.0) * config.drain_margin + 10_000.0
        if config.horizon_ns is not None:
            cap_ns = max(cap_ns, config.horizon_ns)
        self._cap_tick = ns_to_ticks(cap_ns)

        self._heap: list[tuple[int, int]] = []
        for r in self.network.routers:
            r.next_event_tick = 0
            heapq.heappush(self._heap, (0, r.rid))

    # ------------------------------------------------------------------ #
    # Energy settlement
    # ------------------------------------------------------------------ #

    def settle(self, router: Router) -> None:
        """Charge the elapsed interval at the router's *current* state.

        Must be called before any state/mode mutation so each interval is
        billed at the voltage that actually held during it.
        """
        dt = self.now_tick - router.last_settle_tick
        if dt <= 0:
            return
        if router.state is _INACTIVE:
            router.gated_ticks += dt
        else:
            router.mode_ticks[router.mode.index] += dt
        router.last_settle_tick = self.now_tick

    def _flush_residency(self) -> None:
        """Convert per-router tick residency into accountant energy."""
        from repro.core.modes import MODE_BY_INDEX

        for r in self.network.routers:
            self.settle(r)
            self.accountant.add_gated(r.rid, r.gated_ticks / BASE_TICKS_PER_NS)
            for idx, ticks in enumerate(r.mode_ticks):
                if ticks:
                    m = MODE_BY_INDEX[idx]
                    dt_ns = ticks / BASE_TICKS_PER_NS
                    self.accountant.add_static(r.rid, m.voltage, dt_ns)
                    self.accountant.add_mode_residency(r.rid, idx, dt_ns)

    # ------------------------------------------------------------------ #
    # Security (look-ahead downstream protection, Section III.B)
    # ------------------------------------------------------------------ #

    def secure(self, router: Router) -> None:
        """Place a downstream hold; wake the router if it is gated."""
        router.secure_count += 1
        self.secures_placed += 1
        if router.state is _INACTIVE:
            self.settle(router)
            router.begin_wakeup()
            self.accountant.add_wake_event(router.rid, router.mode)
            if self._telemetry is not None:
                self._telemetry.on_wake_begin(router.rid, self.now_tick)
            self._expedite(router)

    def unsecure(self, router: Router) -> None:
        """Release a downstream hold."""
        router.secure_count -= 1
        self.secures_released += 1
        if router.secure_count < 0:
            raise SimulationError(
                f"secure refcount underflow on router {router.rid}"
            )

    # ------------------------------------------------------------------ #
    # V/F switching
    # ------------------------------------------------------------------ #

    def begin_switch(self, router: Router, target: int) -> None:
        """Start an active->active V/F switch toward mode ``target``.

        The power policies route every switch request through here so
        telemetry sees each switch that actually changes the mode.
        """
        from repro.core.modes import mode

        prev_index = router.mode.index
        router.begin_switch(mode(target))
        if self._telemetry is not None and router.mode.index != prev_index:
            self._telemetry.on_switch(
                router.rid, self.now_tick, prev_index, router.mode.index,
                router.switch_stall,
            )

    def _expedite(self, router: Router) -> None:
        """Reschedule a woken router's next firing.

        The router was INACTIVE, so its next firing is a gated heartbeat;
        it now runs at its mode clock, so fire at the earlier of one
        period from now and that heartbeat.  A heartbeat due this very
        tick pops after the securing router and runs in WAKEUP state.
        """
        nxt = self.now_tick + router.cur_period
        if nxt < router.next_event_tick:
            router.next_event_tick = nxt
            heapq.heappush(self._heap, (nxt, router.rid))

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> SimResult:
        """Execute the simulation and return its measurements."""
        heap = self._heap
        routers = self.network.routers
        horizon = self.horizon_tick
        cap = self._cap_tick
        fire = self._fire
        heappop = heapq.heappop
        heappush = heapq.heappush
        base = BASE_TICKS_PER_NS
        final_tick = 0
        drained = False

        while heap:
            tick, rid = heappop(heap)
            router = routers[rid]
            if tick != router.next_event_tick:
                continue  # stale entry superseded by an expedited wakeup
            if horizon is not None and tick > horizon:
                final_tick = horizon
                break
            if tick > cap:
                final_tick = tick
                break
            self.now_tick = tick
            self.now_ns = tick / base
            fire(router, tick)
            nxt = tick + router.cur_period
            router.next_event_tick = nxt
            heappush(heap, (nxt, router.rid))
            final_tick = tick
            if (
                horizon is None
                and self.packets_live == 0
                and self.entries_remaining == 0
            ):
                drained = True
                break

        if horizon is not None:
            drained = self.packets_live == 0 and self.entries_remaining == 0
        self.now_tick = final_tick
        self.now_ns = final_tick / BASE_TICKS_PER_NS
        self._flush_residency()
        if self.audit is not None:
            self.audit.on_end(self, drained)
        if self._telemetry is not None:
            self._telemetry.on_end(self, drained)
        elapsed_ns = max(self.now_ns, 1e-9)
        return SimResult(
            policy_name=self.policy.name,
            trace_name=self.trace.name,
            config=self.config,
            stats=self.stats,
            accountant=self.accountant,
            elapsed_ns=elapsed_ns,
            drained=drained,
        )

    # ------------------------------------------------------------------ #
    # One router cycle
    # ------------------------------------------------------------------ #

    def _fire(self, router: Router, tick: int) -> None:
        """One router cycle (the caller advances it one period)."""
        # Inlined self.settle(router) — this is the hottest call site.
        dt = tick - router.last_settle_tick
        state = router.state
        if dt > 0:
            if state is _INACTIVE:
                router.gated_ticks += dt
            else:
                router.mode_ticks[router.mode.index] += dt
            router.last_settle_tick = tick
        now_ns = self.now_ns

        if state is _INACTIVE:
            router.total_off_cycles += 1
            if (
                router.secure_count > 0
                or router.arrivals
                or router.inject_pending(now_ns)
            ):
                router.begin_wakeup()
                self.accountant.add_wake_event(router.rid, router.mode)
                if self._telemetry is not None:
                    self._telemetry.on_wake_begin(router.rid, tick)
            router.epoch_cycle += 1
        elif state is _WAKEUP:
            router.wakeup_remaining -= 1
            if router.wakeup_remaining <= 0:
                router.finish_wakeup()
                if self._telemetry is not None:
                    self._telemetry.on_wake_complete(router.rid, tick)
            router.epoch_cycle += 1
        else:  # ACTIVE
            bufs = router.in_buffers
            # 1. Commit transfers whose tail flit has landed.
            arrivals = router.arrivals
            if arrivals and arrivals[0][0] <= tick:
                self._commit_arrivals(router, tick)
            # 2. Transport or switch-stall.
            if router.switch_stall > 0:
                router.switch_stall -= 1
            else:
                occupied = False
                for buf in bufs:
                    if buf.queue:
                        occupied = True
                        break
                if occupied:
                    used = self._eject(router, tick)
                    self._forward(router, tick, used)
                self._inject(router, tick, now_ns)
                # 3. Power-gating bookkeeping (Fig 3a).
                if self._uses_gating:
                    if router.is_idle(now_ns, tick):
                        router.idle_count += 1
                        router.epoch_idle_cycles += 1
                        if router.idle_count >= self.t_idle:
                            self.settle(router)
                            router.begin_gate()
                    else:
                        router.idle_count = 0
            # 4. Epoch accounting.
            occ = 0
            for buf in bufs:
                occ += buf.occupancy
            router.occ_sum += occ / router.capacity_total
            if router.track_ports:
                depth = router.buffer_depth
                sums = router.occ_port_sums
                for p in range(NUM_PORTS):
                    sums[p] += bufs[p].occupancy / depth
            router.epoch_cycle += 1

        if router.epoch_cycle >= self.epoch_cycles:
            self._epoch_boundary(router)

    def _commit_arrivals(self, router: Router, tick: int) -> None:
        routers = self.network.routers
        core_router = self.network.core_router
        nbr_of = self._nbr_port[router.rid]
        arrivals = router.arrivals
        in_buffers = router.in_buffers
        rid = router.rid
        pop = heapq.heappop
        unsecure = self.unsecure
        secure = self.secure
        route = self._route
        while arrivals and arrivals[0][0] <= tick:
            _, _, in_port, packet = pop(arrivals)
            in_buffers[in_port].commit(packet)
            unsecure(router)
            out_port = route(rid, core_router[packet.dst_core])
            packet.out_port = out_port
            if out_port != LOCAL:
                secure(routers[nbr_of[out_port]])

    def _route(self, rid: int, dst_router: int) -> int:
        """XY routing: two list indexes into the precomputed table."""
        return self._route_tab[rid][dst_router]

    def _eject(self, router: Router, tick: int) -> int:
        """Deliver one packet to the local NI; returns used-input bitmask."""
        rr = router.rr
        if router.out_busy_until[LOCAL] > tick:
            return 0
        bufs = router.in_buffers
        period = router.cur_period
        start = rr[LOCAL]
        ports = NUM_PORTS
        for k in range(ports):
            ip = (start + k) % ports
            queue = bufs[ip].queue
            if not queue or queue[0].out_port != LOCAL:
                continue
            packet = bufs[ip].pop()
            length = packet.length
            done = tick + length * period
            if self.wormhole:
                # The tail may still be streaming in from upstream; the
                # ejection port cannot finish before it lands.
                done = max(done, packet.tail_tick + period)
            router.out_busy_until[LOCAL] = done
            packet.eject_ns = done / BASE_TICKS_PER_NS
            packet.hops += 1
            self.stats.record_delivery(
                packet.eject_ns - packet.inject_ns, length, packet.hops
            )
            router.epoch_recvs += 1
            self.accountant.add_hop(router.rid, router.mode.voltage, length)
            self.packets_live -= 1
            rr[LOCAL] = (ip + 1) % ports
            return 1 << ip
        return 0

    def _forward(self, router: Router, tick: int, used: int) -> None:
        """Switch allocation for the four directional outputs."""
        routers = self.network.routers
        bufs = router.in_buffers
        busy = router.out_busy_until
        rr = router.rr
        rid = router.rid
        mode = router.mode
        period = router.cur_period
        voltage = mode.voltage
        wormhole = self.wormhole
        add_hop = self.accountant.add_hop
        ports = NUM_PORTS
        for port, nbr_id, opp in self._links[rid]:
            if busy[port] > tick:
                continue
            nbr = routers[nbr_id]
            start = rr[port]
            for k in range(ports):
                ip = (start + k) % ports
                if used >> ip & 1:
                    continue
                queue = bufs[ip].queue
                if not queue:
                    continue
                packet = queue[0]
                if packet.out_port != port:
                    continue
                # The downstream router gates this whole output: if it
                # cannot receive, no other input can use the port either
                # (inlined Router.can_receive).
                if nbr.state is not _ACTIVE or nbr.switch_stall:
                    break
                nbuf = nbr.in_buffers[opp]
                length = packet.length
                # Inlined InputBuffer.can_accept + reserve (the guard just
                # performed is exactly reserve()'s over-reservation check).
                if nbuf.capacity - nbuf.occupancy - nbuf.reserved < length:
                    break
                nbuf.reserved += length
                bufs[ip].pop()
                used |= 1 << ip
                done = tick + length * period
                if wormhole:
                    # Wormhole pipelining: the head commits downstream after
                    # one flit time and may be granted onward immediately;
                    # the tail finishes streaming no earlier than one flit
                    # time after it fully arrived here.
                    done = max(done, packet.tail_tick + period)
                    commit_tick = tick + period
                    packet.tail_tick = done
                else:
                    commit_tick = done
                busy[port] = done
                packet.hops += 1
                self._arr_seq += 1
                nbr.push_arrival(commit_tick, self._arr_seq, opp, packet)
                add_hop(rid, voltage, length)
                router.epoch_flits_out += length
                if router.track_ports:
                    router.flits_out_port[port] += length
                rr[port] = (ip + 1) % ports
                break

    def _inject(self, router: Router, tick: int, now_ns: float) -> None:
        """Admit at most one NI packet per cycle into the LOCAL buffer."""
        q = router.inject_queue
        pos = router.inject_pos
        if pos >= len(q):
            return
        t_ns, src, dst, kind = q[pos]
        if t_ns > now_ns:
            return
        length = (
            self._req_flits if kind == KIND_REQUEST else self._resp_flits
        )
        buf = router.in_buffers[LOCAL]
        if buf.capacity - buf.occupancy - buf.reserved < length:
            return
        packet = Packet(self._pid, src, dst, kind, length, t_ns)
        self._pid += 1
        if self.wormhole:
            # NI serialization: the tail enters the local buffer L cycles on.
            packet.tail_tick = tick + length * router.cur_period
        # Inlined reserve-then-commit on the buffer we just space-checked.
        buf.occupancy += length
        buf.queue.append(packet)
        router.inject_pos = pos + 1
        self.entries_remaining -= 1
        dst_router = self.network.core_router[dst]
        out_port = self._route(router.rid, dst_router)
        packet.out_port = out_port
        if out_port != LOCAL:
            self.secure(self.network.routers[self._nbr_port[router.rid][out_port]])
        router.epoch_sends += 1
        self.stats.record_injection()
        self.packets_live += 1

    # ------------------------------------------------------------------ #
    # Epoch boundary
    # ------------------------------------------------------------------ #

    def _epoch_boundary(self, router: Router) -> None:
        features = None
        if self._needs_features:
            features = self.policy.feature_set.extract(router, self)
            if self.collect_features:
                self.stats.record_epoch_features(
                    router.rid,
                    router.epoch_index,
                    features,
                    router.current_ibu(),
                )
        self.policy.on_epoch(router, self, features)
        if self._telemetry is not None:
            # Post-decision, pre-reset: epoch accumulators are still live
            # and router.mode reflects the fresh DVFS choice.
            self._telemetry.on_epoch(self, router, features)
        router.reset_epoch()
        if self.audit is not None:
            self.audit.on_epoch(self, router)


def run_simulation(
    config: SimConfig,
    trace: Trace,
    policy: "PowerPolicy",
    collect_features: bool = False,
    audit=None,
    telemetry=None,
) -> SimResult:
    """One-call convenience wrapper around :class:`Simulator`.

    ``audit`` may be ``True`` (default invariant auditor) or an
    :class:`repro.validate.InvariantAuditor`; audits raise
    :class:`repro.common.errors.AuditError` on any conservation violation
    and never change results.  ``telemetry`` may be a
    :class:`repro.telemetry.TelemetryRecorder`; recording is read-only and
    never changes results.

    ``config.backend`` selects the kernel implementation: ``"object"``
    (this module) or ``"array"`` (:mod:`repro.noc.array_sim`, imported
    lazily to avoid a circular import).  Both produce bit-identical
    results; see ``docs/backends.md``.
    """
    if config.backend == "array":
        from repro.noc.array_sim import ArraySimulator

        sim_cls = ArraySimulator
    else:
        sim_cls = Simulator
    sim = sim_cls(
        config, trace, policy, collect_features,
        audit=audit, telemetry=telemetry,
    )
    return sim.run()
