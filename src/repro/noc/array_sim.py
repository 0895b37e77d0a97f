"""Structure-of-arrays simulation kernel with span skipping.

This is the ``--backend array`` kernel: a drop-in replacement for
:class:`repro.noc.simulator.Simulator` that produces **bit-identical**
results faster.  It layers two mechanisms on the object kernel:

**Scheduler lanes (structure-of-arrays).**  The per-router quantities the
scheduler consults every cycle — resident flits, outstanding
reservations, the high-water output-busy tick, and, per output port, a
head-of-line bitmask of the input FIFOs whose head packet wants that
output — are mirrored into rid-indexed lanes maintained incrementally at
the handful of mutation sites (commit, pop, reserve, inject).  The
O(ports) scans in the object kernel's ``is_idle`` / ejection /
switch-allocation paths become lane reads: the round-robin-first wanting
head of an output is one lookup of its bitmask in a
``[rr pointer][mask]`` table (:data:`_RR_WINNER`).
The lanes are plain Python lists rather than ndarrays because the hot
loop makes *scalar* accesses, and CPython boxes every scalar read from an
ndarray into a fresh ``float``/``int`` object — measurably slower than
list indexing.  NumPy is used where access is bulk, not scalar (lane
export via :meth:`ArraySimulator.lanes`, which the equivalence tests
recompute from the routers' FIFOs mid-run).  See ``docs/backends.md``.

**Lazy residency.**  The object kernel settles a router's residency
(ticks per mode, or gated) at every fire.  Here a fire settles nothing:
every change of power state or mode settles first (gating, wake-up, the
policy's mode switch), and integer tick sums are exact in any grouping,
so the end-of-run flush bills bit-identical residency.

**Span skipping (the gated-epoch fast path).**  After a live cycle the
kernel proves, from the lanes, that the *next* k cycles of the router
cannot observably differ from no-ops — no arrival commits, no transfer or
ejection can be granted, no injection comes due, no epoch boundary or
gating threshold is crossed — and elides them by scheduling the router
``1 + k`` periods out.  Every router state has a span kind, gated
heartbeats included; the object kernel skips nothing and is the
per-cycle reference.  The proof rests on a frozen-state argument:
between a router's live cycles its FIFOs, reservations, round-robin
pointers and output-busy ticks cannot change except through *another*
router's live cycle, and every such cross-router mutation site
interrupts the target's span (rolling back elided cycles that per-step
execution would not have run, with a ``(tick, rid)`` heap-order
tie-break for a cycle landing exactly on the interrupting tick).

Elided cycles would only have bumped a handful of per-epoch counters, so
their credits are folded in lazily — at the next live cycle, at an
interrupt, or at end-of-run — which makes rollback exact by
construction: a span rolled back to ``m`` kept cycles folds ``m``
applications of the per-cycle update, bit-for-bit the sequence the
object kernel would have executed (including ``m`` sequential float
additions into ``occ_sum``, which is *not* equivalent to adding
``m * f`` once).

Spans are disabled when the active feature set is not router-local
(:attr:`repro.core.features.FeatureSet.router_local`): a neighbour read
(``neighbor_*``) would see a spanning router's lazily deferred counters,
and per-port occupancy accumulators are not folded.  Router-local
features read only the boundary router's own state at its own live
epoch boundary, where every credit has been folded.
"""

from __future__ import annotations

import heapq

from repro.common.errors import SimulationError
from repro.common.units import BASE_TICKS_PER_NS
from repro.core.modes import MODES
from repro.core.states import PowerState
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.simulator import SimResult, Simulator
from repro.noc.topology import LOCAL, NUM_PORTS, OPPOSITE
from repro.power.dsent import dynamic_energy_pj
from repro.traffic.trace import KIND_REQUEST

_ACTIVE = PowerState.ACTIVE
_WAKEUP = PowerState.WAKEUP
_INACTIVE = PowerState.INACTIVE

#: Span kinds.  PLAIN: non-gating policy, no idle bookkeeping.  IDLE:
#: gating policy, every elided cycle passes R-Idle (idle_count grows).
#: HELD: gating policy, every elided cycle fails R-Idle (idle_count
#: pinned at zero).  WAKE: WAKEUP countdown cycles.  STALL: T-Switch
#: stall cycles (transport, injection and gating are all skipped; only
#: the stall countdown and occupancy accounting tick).  GATED: heartbeats
#: of a power-gated router (only the off-cycle and epoch counters tick).
_SPAN_PLAIN = 0
_SPAN_IDLE = 1
_SPAN_HELD = 2
_SPAN_WAKE = 3
_SPAN_STALL = 4
_SPAN_GATED = 5


#: ``_RR_WINNER[start][mask]``: the first input port set in ``mask`` in
#: round-robin order from ``start`` (an output's ``rr`` pointer).  One
#: lookup of a ``_want`` head bitmask replaces the object kernel's
#: ``for j in range(ports)`` scan for the first FIFO head that wants an
#: output.  An empty mask has no winner (-1); every lookup site tests the
#: mask first.
_RR_WINNER = tuple(
    tuple(
        next(
            (ip for ip in (
                (start + j) % NUM_PORTS for j in range(NUM_PORTS)
            ) if mask >> ip & 1),
            -1,
        )
        for mask in range(1 << NUM_PORTS)
    )
    for start in range(NUM_PORTS)
)


def _cycles_before_due(t_ns: float, tick: int, period: int, k: int) -> int:
    """Largest ``j <= k`` such that an NI entry due at ``t_ns`` is still in
    the future at every cycle ``tick + i * period`` for ``0 < i <= j``.

    Replicates :meth:`Router.inject_pending`'s float comparison
    bit-for-bit, so a span ends on exactly the cycle where per-cycle
    execution first sees the entry due.  ``run`` inlines a copy at its
    hot site; keep the two in step.
    """
    base = BASE_TICKS_PER_NS
    j = int((t_ns * base - tick) / period)
    if j > k:
        j = k
    elif j < 0:
        j = 0
    while j > 0 and t_ns <= (tick + j * period) / base:
        j -= 1
    while j < k and t_ns > (tick + (j + 1) * period) / base:
        j += 1
    return j


class ArraySimulator(Simulator):
    """Bit-identical fast kernel (``SimConfig.backend == "array"``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        n = self.network.topology.num_routers
        # Scheduler lanes (see module docstring).
        self._occ_total = [0] * n  # resident flits per router
        self._res_total = [0] * n  # outstanding reservations per router
        self._busy_max = [0] * n  # max(out_busy_until) per router
        # Head-of-line bitmask per router and output port: bit ``ip`` of
        # ``_want[rid][port]`` is set iff input FIFO ``ip``'s head packet
        # routes to that output.
        self._want = [[0] * NUM_PORTS for _ in range(n)]
        # Open-span records (one per router, folded lazily).
        self._in_span = [False] * n
        self._span_kind = [0] * n
        self._span_k = [0] * n
        self._span_period = [1] * n
        self._span_f = [0.0] * n
        # Output ports whose head-of-line block (downstream state or
        # capacity) the open span relies on.  A downstream pop or wake
        # only interrupts the span if it can unblock one of these ports;
        # busy-capped ports never depend on downstream state, so spans
        # that only wait out their own busy windows are never
        # interrupted by neighbour activity.
        self._span_block = [0] * n
        # Shadow accumulators for EnergyAccountant.add_hop: plain-list
        # sums flushed into the NumPy ledgers once at end-of-run.  Each
        # ledger cell starts at 0.0 and receives the identical sequence
        # of additions it would have received directly, merely batched,
        # so the flush is bit-exact.
        self._dyn_acc = [0.0] * n
        self._hops_acc = [0] * n
        # Dynamic hop energy per rail voltage — a pure function of the
        # five mode voltages, precomputed off the hot path.
        self._dyn_e = {m.voltage: dynamic_energy_pj(m.voltage) for m in MODES}
        # The one span-eligibility predicate, for every span kind: when
        # features are extracted, a router-local feature set (see module
        # docstring).
        self._span_ok = (
            not self._needs_features or self.policy.feature_set.router_local
        )
        # Router whose fire is in progress: the same-tick tie-break of
        # span interrupts (see _interrupt_span).
        self._firing_rid = -1

    def lanes(self) -> dict:
        """Export the scheduler lanes as NumPy arrays (for cross-checks).

        ``occ_total``, ``res_total`` and ``busy_max`` are ``(routers,)``;
        ``want`` is ``(routers, ports)``, each entry the head-of-line
        bitmask of one output.  The equivalence tests recompute every
        lane from the routers' FIFOs, reservations and busy ticks of a
        run stopped mid-flight; any drift means a maintenance site was
        missed.
        """
        import numpy as np

        return {
            "occ_total": np.asarray(self._occ_total),
            "res_total": np.asarray(self._res_total),
            "busy_max": np.asarray(self._busy_max),
            "want": np.asarray(self._want),
        }

    # ------------------------------------------------------------------ #
    # Span folding / interruption
    # ------------------------------------------------------------------ #

    def _fold_span(self, router: Router, kept: int) -> None:
        """Materialize ``kept`` elided cycles of the router's open span.

        Replays exactly the per-cycle updates the object kernel would
        have made, in sequence — lazily deferring the credits until here
        is what makes partial rollback (interrupt / end-of-run) exact.
        ``run`` inlines a copy where a live fire consumes its own span;
        keep the two in step.
        """
        if kept <= 0:
            return
        router.epoch_cycle += kept
        kind = self._span_kind[router.rid]
        if kind == _SPAN_IDLE:
            router.idle_count += kept
            router.epoch_idle_cycles += kept
        elif kind == _SPAN_GATED:
            router.total_off_cycles += kept
        elif kind == _SPAN_WAKE:
            router.wakeup_remaining -= kept
        else:  # PLAIN / HELD / STALL
            f = self._span_f[router.rid]
            if f:
                s = router.occ_sum
                for _ in range(kept):
                    s += f
                router.occ_sum = s
            if kind == _SPAN_HELD:
                router.idle_count = 0
            elif kind == _SPAN_STALL:
                router.switch_stall -= kept

    def _interrupt_span(self, router: Router, now: int) -> None:
        """End a router's span early: another router just mutated state
        it can observe (arrival, reservation, secure, freed space, a
        neighbour waking or finishing a V/F stall, a wake-up).

        Elided cycles strictly after ``now`` are discarded (per-step
        execution would have run them against the new state) and the
        first of them becomes the next live fire; a cycle landing exactly
        ``now`` only stays elided if its ``(tick, rid)`` heap entry would
        have popped *before* the currently firing router's — otherwise
        the router refires this tick.  The kept cycles are folded and the
        span is closed.
        """
        rid = router.rid
        cur = router.next_event_tick
        delta = cur - now
        if delta <= 0:
            # The span-end fire is this very tick and pops after us; all
            # elided cycles are in the past and it folds them.
            return
        period = self._span_period[rid]
        over = (delta - 1) // period
        nxt = cur - over * period
        if delta % period == 0 and self._firing_rid < rid:
            over += 1
            nxt = now
        self._fold_span(router, self._span_k[rid] - over)
        self._in_span[rid] = False
        if nxt < cur:
            router.next_event_tick = nxt
            heapq.heappush(self._heap, (nxt, rid))

    def _rollback_spans(self, final_tick: int, drain_rid: int | None) -> None:
        """End-of-run folding of still-open spans.

        Folds only the elided cycles per-step execution would have run:
        those at or before ``final_tick``.  ``drain_rid`` is the router
        whose fire drained the network, or ``None`` for a horizon/cap
        stop; on a drain stop, a cycle landing exactly on the final tick
        only ran if its ``(tick, rid)`` heap entry popped before the
        draining fire.
        """
        for router in self.network.routers:
            rid = router.rid
            if not self._in_span[rid]:
                continue
            k = self._span_k[rid]
            period = self._span_period[rid]
            delta = router.next_event_tick - final_tick
            if delta > 0:
                over = (delta - 1) // period
                if (
                    delta % period == 0
                    and drain_rid is not None
                    and router.rid > drain_rid
                ):
                    over += 1
                k -= over
            self._fold_span(router, k)

    def _notify_neighbors(self, router: Router, tick: int) -> None:
        """A router became able to receive (woke, or cleared its V/F
        stall): spanning *feeders* whose spans rely on a head-of-line
        block toward it must re-evaluate."""
        in_span = self._in_span
        span_block = self._span_block
        routers = self.network.routers
        for _, feeder_rid, fport in self.network.links[router.rid]:
            # Links are bidirectional: each neighbour feeds us, and
            # ``fport`` is its output port toward us.
            if in_span[feeder_rid] and span_block[feeder_rid] >> fport & 1:
                self._interrupt_span(routers[feeder_rid], tick)

    def _gated_span(self, router: Router, tick: int) -> int:
        """Elide heartbeats of a gated router.  They are silent until a
        secure() wakes it (which interrupts the span) or an injection
        comes due; arrivals cannot target a gated router."""
        period = router.cur_period
        k = self.epoch_cycles - router.epoch_cycle - 1
        c = (self._cap_tick - tick) // period
        if c < k:
            k = c
        q = router.inject_queue
        pos = router.inject_pos
        if k > 0 and pos < len(q):
            k = _cycles_before_due(q[pos][0], tick, period, k)
        if k <= 0:
            return 0
        rid = router.rid
        self._in_span[rid] = True
        self._span_kind[rid] = _SPAN_GATED
        self._span_k[rid] = k
        self._span_period[rid] = period
        self._span_block[rid] = 0
        return k

    def _wake_span(self, router: Router, tick: int) -> int:
        """Elide WAKEUP countdown cycles (the completing cycle stays
        live: it flips the state and must notify blocked neighbours)."""
        k = router.wakeup_remaining - 1
        c = self.epoch_cycles - router.epoch_cycle - 1
        if c < k:
            k = c
        period = router.cur_period
        c = (self._cap_tick - tick) // period
        if c < k:
            k = c
        if k <= 0:
            return 0
        rid = router.rid
        self._in_span[rid] = True
        self._span_kind[rid] = _SPAN_WAKE
        self._span_k[rid] = k
        self._span_period[rid] = period
        self._span_block[rid] = 0
        return k

    # ------------------------------------------------------------------ #
    # Overridden mutation sites (lane maintenance + span interrupts)
    # ------------------------------------------------------------------ #

    def _wake_router(self, router: Router) -> None:
        """A secure() hold just landed on a gated router: end its
        heartbeat span and wake it (the object kernel's INACTIVE branch
        of secure)."""
        if self._in_span[router.rid]:
            self._interrupt_span(router, self.now_tick)
        self.settle(router)
        router.begin_wakeup()
        self.accountant.add_wake_event(router.rid, router.mode)
        if self._telemetry is not None:
            self._telemetry.on_wake_begin(router.rid, self.now_tick)
        self._expedite(router)

    def _flush_hop_shadow(self) -> None:
        """Fold the add_hop shadow accumulators into the accountant."""
        dynamic_pj = self.accountant.dynamic_pj
        flit_hops = self.accountant.flit_hops
        for rid, e in enumerate(self._dyn_acc):
            if e:
                dynamic_pj[rid] += e
                flit_hops[rid] += self._hops_acc[rid]

    def secure(self, router: Router) -> None:
        """Place a downstream hold; wake the router if it is gated.

        ``run`` inlines the hot path of this; the method remains the
        canonical definition (and serves any out-of-loop caller).
        """
        router.secure_count += 1
        self.secures_placed += 1
        if router.state is _INACTIVE:
            self._wake_router(router)
        elif (
            self._in_span[router.rid]
            and self._span_kind[router.rid] == _SPAN_IDLE
        ):
            # The hold flips R-Idle for the elided cycles.
            self._interrupt_span(router, self.now_tick)

    # ------------------------------------------------------------------ #
    # Main loop (the object kernel's loop + _fire + transport, inlined)
    # ------------------------------------------------------------------ #

    def run(self) -> SimResult:  # noqa: C901 - deliberately monolithic
        """Execute the simulation and return its measurements.

        One inlined loop (see the module docstring for why).  Every
        block is a faithful transcription of the corresponding object
        kernel method — ``_fire`` (less its per-fire settle),
        ``_commit_arrivals``, ``_eject``, ``_forward``, ``_inject`` —
        plus lane maintenance, span interrupts, and span eligibility.
        Two bitmasks link the transport scan to span eligibility so the
        latter need not re-scan the FIFOs: ``blocked`` marks output ports
        whose round-robin-first wanting head was head-of-line blocked on
        *frozen* downstream state this cycle, and ``unknown`` marks
        ports that gained a new FIFO head after their allocation scan
        (those must be re-scanned before trusting ``blocked``).
        """
        heap = self._heap
        net = self.network
        routers = net.routers
        core_router = net.core_router
        route_tab = self._route_tab
        links = self._links
        nbr_port = self._nbr_port
        ports = NUM_PORTS
        opposite = OPPOSITE
        occ_total = self._occ_total
        res_total = self._res_total
        busy_max = self._busy_max
        want = self._want
        rr_win = _RR_WINNER
        in_span = self._in_span
        span_kind = self._span_kind
        span_k = self._span_k
        span_period = self._span_period
        span_f = self._span_f
        span_block = self._span_block
        span_ok = self._span_ok
        dyn_acc = self._dyn_acc
        hops_acc = self._hops_acc
        dyn_e = self._dyn_e
        epoch_cycles = self.epoch_cycles
        t_idle = self.t_idle
        uses_gating = self._uses_gating
        wormhole = self.wormhole
        req_flits = self._req_flits
        resp_flits = self._resp_flits
        horizon = self.horizon_tick
        cap = self._cap_tick
        stop = cap if horizon is None or cap < horizon else horizon
        stats = self.stats
        record_delivery = stats.record_delivery
        add_wake_event = self.accountant.add_wake_event
        telemetry = self._telemetry
        interrupt = self._interrupt_span
        notify = self._notify_neighbors
        gated_span = self._gated_span
        wake_span = self._wake_span
        wake_router = self._wake_router
        boundary = self._epoch_boundary
        heappop = heapq.heappop
        heappush = heapq.heappush
        base = BASE_TICKS_PER_NS
        active = _ACTIVE
        wakeup = _WAKEUP
        inactive = _INACTIVE
        arr_seq = self._arr_seq
        final_tick = 0
        drained = False
        drain_rid: int | None = None
        # Only a run without a horizon stops at drain, and the network
        # can only become drained at an ejection (an injection makes a
        # packet live) -- or be drained before the first fire.
        drain_check = (
            horizon is None
            and self.packets_live == 0
            and self.entries_remaining == 0
        )

        while heap:
            tick, rid = heappop(heap)
            router = routers[rid]
            if tick != router.next_event_tick:
                continue  # stale entry superseded by expedite/interrupt
            if tick > stop:
                # Past the horizon (the run ends there) or the cap.
                if horizon is not None and tick > horizon:
                    final_tick = horizon
                else:
                    final_tick = tick
                break
            now_ns = tick / base

            # --- consume the open span: this live cycle ends it, so
            # every elided cycle is in the past — fold all its credits
            # (_fold_span, inlined).
            if in_span[rid]:
                in_span[rid] = False
                kept = span_k[rid]
                if kept > 0:
                    router.epoch_cycle += kept
                    kind = span_kind[rid]
                    if kind == _SPAN_IDLE:
                        router.idle_count += kept
                        router.epoch_idle_cycles += kept
                    elif kind == _SPAN_GATED:
                        router.total_off_cycles += kept
                    elif kind == _SPAN_WAKE:
                        router.wakeup_remaining -= kept
                    else:  # PLAIN / HELD / STALL
                        f = span_f[rid]
                        if f:
                            s = router.occ_sum
                            for _ in range(kept):
                                s += f
                            router.occ_sum = s
                        if kind == _SPAN_HELD:
                            router.idle_count = 0
                        elif kind == _SPAN_STALL:
                            router.switch_stall -= kept

            self._firing_rid = rid
            # No settle here: residency is settled lazily (module
            # docstring), before each change of state or mode.
            state = router.state
            mult = 1
            blocked = 0
            unknown = 0

            if state is active:
                wrow = want[rid]
                bufs = router.in_buffers
                # 1. Commit transfers whose tail flit has landed
                #    (inlined _commit_arrivals + buffer.commit).
                arrivals = router.arrivals
                if arrivals and arrivals[0][0] <= tick:
                    nbr_row = nbr_port[rid]
                    while arrivals and arrivals[0][0] <= tick:
                        _, _, in_port, packet = heappop(arrivals)
                        buf = bufs[in_port]
                        length = packet.length
                        if buf.reserved < length:
                            raise SimulationError(
                                f"commit without reservation for packet "
                                f"{packet.pid}"
                            )
                        queue = buf.queue
                        was_empty = not queue
                        buf.reserved -= length
                        buf.occupancy += length
                        queue.append(packet)
                        occ_total[rid] += length
                        res_total[rid] -= length
                        router.secure_count -= 1
                        self.secures_released += 1
                        if router.secure_count < 0:
                            raise SimulationError(
                                f"secure refcount underflow on router {rid}"
                            )
                        # Precomputed XY routing (_route).
                        out_port = route_tab[rid][core_router[packet.dst_core]]
                        packet.out_port = out_port
                        if was_empty:
                            wrow[out_port] |= 1 << in_port
                        if out_port != LOCAL:
                            # Inlined secure() fast path.
                            nbr = routers[nbr_row[out_port]]
                            nbr.secure_count += 1
                            self.secures_placed += 1
                            if nbr.state is inactive:
                                self.now_tick = tick
                                self.now_ns = now_ns
                                wake_router(nbr)
                            else:
                                nrid = nbr.rid
                                if (
                                    in_span[nrid]
                                    and span_kind[nrid] == _SPAN_IDLE
                                ):
                                    interrupt(nbr, tick)
                # 2. Transport or switch-stall.
                if router.switch_stall > 0:
                    router.switch_stall -= 1
                    if router.switch_stall == 0:
                        notify(router, tick)
                else:
                    occ = occ_total[rid]
                    if occ:
                        obusy = router.out_busy_until
                        rr = router.rr
                        period = router.cur_period
                        nbr_row = nbr_port[rid]
                        e_hop = dyn_e[router.mode.voltage]
                        used = 0
                        # 2a. Ejection (inlined _eject + buffer.pop).
                        m = wrow[LOCAL]
                        if m and obusy[LOCAL] <= tick:
                            ip = rr_win[rr[LOCAL]][m]
                            used = 1 << ip
                            buf = bufs[ip]
                            queue = buf.queue
                            packet = queue.popleft()
                            length = packet.length
                            buf.occupancy -= length
                            if buf.occupancy < 0:
                                raise SimulationError(
                                    "buffer occupancy went negative"
                                )
                            occ_total[rid] -= length
                            wrow[LOCAL] = m ^ used
                            if queue:
                                h = queue[0].out_port
                                wrow[h] |= used
                                unknown |= 1 << h
                            done = tick + length * period
                            if wormhole:
                                tt = packet.tail_tick + period
                                if tt > done:
                                    done = tt
                            obusy[LOCAL] = done
                            if done > busy_max[rid]:
                                busy_max[rid] = done
                            eject_ns = done / base
                            packet.eject_ns = eject_ns
                            packet.hops += 1
                            record_delivery(
                                eject_ns - packet.inject_ns,
                                length, packet.hops,
                            )
                            router.epoch_recvs += 1
                            dyn_acc[rid] += e_hop * length
                            hops_acc[rid] += length
                            live = self.packets_live - 1
                            self.packets_live = live
                            if not live and horizon is None:
                                drain_check = True
                            rr[LOCAL] = (ip + 1) % ports
                            up = nbr_row[ip]
                            if (
                                up >= 0
                                and in_span[up]
                                and span_block[up] >> opposite[ip] & 1
                            ):
                                # Freed space unblocks an upstream span
                                # that relied on this input being full.
                                interrupt(routers[up], tick)
                        # 2b. Switch allocation (inlined _forward).
                        for port, nbr_id, opp in links[rid]:
                            m = wrow[port] & ~used
                            if not m or obusy[port] > tick:
                                continue
                            nbr = routers[nbr_id]
                            if nbr.state is not active or nbr.switch_stall:
                                # The round-robin-first wanting head is
                                # blocked on the neighbour.
                                blocked |= 1 << port
                                continue
                            nbuf = nbr.in_buffers[opp]
                            ip = rr_win[rr[port]][m]
                            buf = bufs[ip]
                            queue = buf.queue
                            packet = queue[0]
                            length = packet.length
                            if (
                                nbuf.capacity - nbuf.occupancy
                                - nbuf.reserved < length
                            ):
                                blocked |= 1 << port
                                continue
                            nbuf.reserved += length
                            res_total[nbr_id] += length
                            queue.popleft()
                            buf.occupancy -= length
                            if buf.occupancy < 0:
                                raise SimulationError(
                                    "buffer occupancy went negative"
                                )
                            occ_total[rid] -= length
                            bit = 1 << ip
                            wrow[port] ^= bit
                            if queue:
                                h = queue[0].out_port
                                wrow[h] |= bit
                                unknown |= 1 << h
                            used |= bit
                            done = tick + length * period
                            if wormhole:
                                tt = packet.tail_tick + period
                                if tt > done:
                                    done = tt
                                commit_tick = tick + period
                                packet.tail_tick = done
                            else:
                                commit_tick = done
                            obusy[port] = done
                            if done > busy_max[rid]:
                                busy_max[rid] = done
                            packet.hops += 1
                            arr_seq += 1
                            heappush(
                                nbr.arrivals,
                                (commit_tick, arr_seq, opp, packet),
                            )
                            if in_span[nbr_id]:
                                # The in-flight arrival only perturbs
                                # elided cycles at ticks >= its commit:
                                # earlier HELD/PLAIN cycles stay no-ops
                                # with it pending (it cannot commit, and
                                # R-Idle is already false there); WAKEUP
                                # countdowns never read arrivals.  IDLE
                                # spans cannot receive grants at all (we
                                # hold their secure), but interrupt
                                # defensively.
                                nk = span_kind[nbr_id]
                                if nk == _SPAN_IDLE:
                                    interrupt(nbr, tick)
                                elif nk != _SPAN_WAKE:
                                    nxt_n = nbr.next_event_tick
                                    p_n = span_period[nbr_id]
                                    if nxt_n - p_n >= commit_tick:
                                        # Truncate in place: drop the
                                        # elided cycles at or after the
                                        # commit, so the next live fire is
                                        # exactly the object kernel's first
                                        # fire >= commit_tick — still on
                                        # the router's own period grid, no
                                        # off-grid refire needed.
                                        drop = (nxt_n - commit_tick) // p_n
                                        span_k[nbr_id] -= drop
                                        nxt_n -= drop * p_n
                                        nbr.next_event_tick = nxt_n
                                        heappush(heap, (nxt_n, nbr_id))
                            dyn_acc[rid] += e_hop * length
                            hops_acc[rid] += length
                            router.epoch_flits_out += length
                            if router.track_ports:
                                router.flits_out_port[port] += length
                            rr[port] = (ip + 1) % ports
                            up = nbr_row[ip]
                            if (
                                up >= 0
                                and in_span[up]
                                and span_block[up] >> opposite[ip] & 1
                            ):
                                interrupt(routers[up], tick)
                    # 2c. NI injection (inlined _inject).
                    q = router.inject_queue
                    pos = router.inject_pos
                    if pos < len(q):
                        t_ns, src, dst, pkind = q[pos]
                        if t_ns <= now_ns:
                            length = (
                                req_flits if pkind == KIND_REQUEST
                                else resp_flits
                            )
                            buf = bufs[LOCAL]
                            if (
                                buf.capacity - buf.occupancy
                                - buf.reserved >= length
                            ):
                                packet = Packet(
                                    self._pid, src, dst, pkind, length, t_ns
                                )
                                self._pid += 1
                                if wormhole:
                                    packet.tail_tick = (
                                        tick + length * router.cur_period
                                    )
                                queue = buf.queue
                                was_empty = not queue
                                buf.occupancy += length
                                queue.append(packet)
                                occ_total[rid] += length
                                router.inject_pos = pos + 1
                                self.entries_remaining -= 1
                                # Precomputed XY routing (_route).
                                out_port = route_tab[rid][core_router[dst]]
                                packet.out_port = out_port
                                if was_empty:
                                    # The LOCAL input's bit (LOCAL == 0).
                                    wrow[out_port] |= 1
                                    unknown |= 1 << out_port
                                if out_port != LOCAL:
                                    nbr = routers[nbr_port[rid][out_port]]
                                    nbr.secure_count += 1
                                    self.secures_placed += 1
                                    if nbr.state is inactive:
                                        self.now_tick = tick
                                        self.now_ns = now_ns
                                        wake_router(nbr)
                                    else:
                                        nrid = nbr.rid
                                        if (
                                            in_span[nrid]
                                            and span_kind[nrid]
                                            == _SPAN_IDLE
                                        ):
                                            interrupt(nbr, tick)
                                router.epoch_sends += 1
                                stats.packets_injected += 1
                                self.packets_live += 1
                    # 3. Power-gating bookkeeping: Router.is_idle inlined
                    #    via the lanes.
                    if uses_gating:
                        if (
                            router.secure_count == 0
                            and not router.arrivals
                            and occ_total[rid] == 0
                            and res_total[rid] == 0
                            and busy_max[rid] <= tick
                        ):
                            q = router.inject_queue
                            pos = router.inject_pos
                            if pos < len(q) and q[pos][0] <= now_ns:
                                router.idle_count = 0
                            else:
                                router.idle_count += 1
                                router.epoch_idle_cycles += 1
                                if router.idle_count >= t_idle:
                                    self.now_tick = tick
                                    self.settle(router)
                                    router.begin_gate()
                        else:
                            router.idle_count = 0
                # 4. Epoch accounting.  The object kernel adds
                #    occupancy/capacity every ACTIVE cycle; with zero
                #    occupancy the addend is +0.0 and occ_sum (a sum of
                #    non-negatives) is unchanged bit-for-bit, so the
                #    zero case is skipped.
                occ = occ_total[rid]
                if occ:
                    router.occ_sum += occ / router.capacity_total
                    if router.track_ports:
                        depth = router.buffer_depth
                        sums = router.occ_port_sums
                        for p in range(ports):
                            sums[p] += bufs[p].occupancy / depth

            elif state is inactive:
                # Gated heartbeat (inlined _fire INACTIVE branch).
                router.total_off_cycles += 1
                q = router.inject_queue
                pos = router.inject_pos
                if (
                    router.secure_count > 0
                    or router.arrivals
                    or (pos < len(q) and q[pos][0] <= now_ns)
                ):
                    self.now_tick = tick
                    self.settle(router)
                    router.begin_wakeup()
                    add_wake_event(rid, router.mode)
                    if telemetry is not None:
                        telemetry.on_wake_begin(rid, tick)

            else:  # WAKEUP (inlined _fire WAKEUP branch + notify)
                router.wakeup_remaining -= 1
                if router.wakeup_remaining <= 0:
                    router.finish_wakeup()
                    if telemetry is not None:
                        telemetry.on_wake_complete(rid, tick)
                    notify(router, tick)

            ec = router.epoch_cycle + 1
            router.epoch_cycle = ec
            if ec >= epoch_cycles:
                self.now_tick = tick
                self.now_ns = now_ns
                boundary(router)
                ec = router.epoch_cycle

            # --- span eligibility: prove the next k cycles silent ----
            if span_ok:
                state = router.state
                if state is active:
                    if router.switch_stall:
                        # T-Switch stall: each remaining cycle only
                        # decrements the countdown and accrues occupancy
                        # (transport, injection and gating are all
                        # skipped), so every cycle strictly before the
                        # stall's last is elidable.  The last stall
                        # cycle runs live to notify blocked neighbours.
                        period = router.cur_period
                        k = epoch_cycles - ec - 1
                        c = (cap - tick) // period
                        if c < k:
                            k = c
                        c = router.switch_stall - 1
                        if c < k:
                            k = c
                        if k > 0:
                            arr = router.arrivals
                            if arr:
                                c = (arr[0][0] - tick - 1) // period
                                if c < k:
                                    k = c
                        if k > 0:
                            occ = occ_total[rid]
                            in_span[rid] = True
                            span_kind[rid] = _SPAN_STALL
                            span_k[rid] = k
                            span_period[rid] = period
                            span_f[rid] = (
                                occ / router.capacity_total if occ else 0.0
                            )
                            span_block[rid] = 0
                            mult += k
                    else:
                        period = router.cur_period
                        # Never elide across the epoch boundary or the
                        # safety cap.
                        k = epoch_cycles - ec - 1
                        c = (cap - tick) // period
                        if c < k:
                            k = c
                        if k > 0:
                            arr = router.arrivals
                            if arr:
                                # Stop before the earliest commit.  This
                                # cheap cap runs first: a commit due next
                                # cycle short-circuits the port scans.
                                c = (arr[0][0] - tick - 1) // period
                                if c < k:
                                    k = c
                        if k > 0:
                            blk = 0
                            occ = occ_total[rid]
                            if occ:
                                # Some FIFO head might be grantable:
                                # decide each wanted output as the next
                                # cycle's allocation would, reusing this
                                # cycle's scan outcome where still valid.
                                wrow = want[rid]
                                obusy = router.out_busy_until
                                nxt_t = tick + period
                                if wrow[LOCAL]:
                                    b = obusy[LOCAL]
                                    if b <= nxt_t:
                                        k = 0  # ejectable next cycle
                                    else:
                                        c = (b - tick - 1) // period
                                        if c < k:
                                            k = c
                                if k > 0:
                                    bufs = router.in_buffers
                                    rr = router.rr
                                    for port, nbr_id, opp in links[rid]:
                                        if not wrow[port]:
                                            continue
                                        b = obusy[port]
                                        if b > nxt_t:
                                            # Busy past the next cycle:
                                            # elide until its expiry
                                            # (no reliance on downstream
                                            # state).
                                            c = (b - tick - 1) // period
                                            if c < k:
                                                k = c
                                                if k <= 0:
                                                    break
                                            continue
                                        if (
                                            blocked >> port & 1
                                            and not unknown >> port & 1
                                        ):
                                            # Head-of-line blocked on
                                            # frozen downstream state; a
                                            # span interrupt covers every
                                            # way it can unblock.
                                            blk |= 1 << port
                                            continue
                                        nbr = routers[nbr_id]
                                        if (
                                            nbr.state is not active
                                            or nbr.switch_stall
                                        ):
                                            # Unblocks only via the
                                            # neighbour's own live fire,
                                            # which notifies us.
                                            blk |= 1 << port
                                            continue
                                        # Re-scan: replay next cycle's
                                        # allocation for this port.
                                        nbuf = nbr.in_buffers[opp]
                                        ip = rr_win[rr[port]][wrow[port]]
                                        if (
                                            nbuf.capacity
                                            - nbuf.occupancy
                                            - nbuf.reserved
                                            < bufs[ip].queue[0].length
                                        ):
                                            # Capacity-blocked: space
                                            # frees only via a downstream
                                            # pop, which interrupts us.
                                            blk |= 1 << port
                                            continue
                                        k = 0  # grantable next cycle
                                        break
                            if k > 0:
                                inj_blocked = False
                                q = router.inject_queue
                                pos = router.inject_pos
                                if pos < len(q):
                                    entry = q[pos]
                                    t_ns = entry[0]
                                    lbuf = router.in_buffers[LOCAL]
                                    length = (
                                        req_flits
                                        if entry[3] == KIND_REQUEST
                                        else resp_flits
                                    )
                                    fits = (
                                        lbuf.capacity - lbuf.occupancy
                                        - lbuf.reserved >= length
                                    )
                                    if t_ns <= now_ns:
                                        if fits:
                                            k = 0  # injects next cycle
                                        else:
                                            # Frees only via our own
                                            # (live) pops.
                                            inj_blocked = True
                                    elif fits:
                                        # Inlined _cycles_before_due.
                                        j = int((t_ns * base - tick) / period)
                                        if j > k:
                                            j = k
                                        elif j < 0:
                                            j = 0
                                        while j > 0 and (
                                            t_ns <= (tick + j * period) / base
                                        ):
                                            j -= 1
                                        while j < k and t_ns > (
                                            (tick + (j + 1) * period) / base
                                        ):
                                            j += 1
                                        k = j
                                    # else: due later but already over
                                    # capacity -- it cannot inject before
                                    # one of our own pops, and every pop
                                    # is live.
                                if k > 0:
                                    if uses_gating:
                                        bm = busy_max[rid]
                                        if (
                                            occ == 0
                                            and res_total[rid] == 0
                                            and not router.arrivals
                                            and router.secure_count == 0
                                            and bm <= tick
                                            and not inj_blocked
                                        ):
                                            # Every elided cycle passes
                                            # R-Idle; stop short of
                                            # T-Idle so the gating cycle
                                            # runs live.
                                            kind = _SPAN_IDLE
                                            c = t_idle - router.idle_count - 1
                                            if c < k:
                                                k = c
                                            f = 0.0
                                        else:
                                            kind = _SPAN_HELD
                                            if bm > tick:
                                                # Once every output
                                                # drains, R-Idle starts
                                                # counting: end there.
                                                c = (bm - tick - 1) // period
                                                if c < k:
                                                    k = c
                                            f = (
                                                occ / router.capacity_total
                                                if occ else 0.0
                                            )
                                    else:
                                        kind = _SPAN_PLAIN
                                        f = (
                                            occ / router.capacity_total
                                            if occ else 0.0
                                        )
                                    if k > 0:
                                        in_span[rid] = True
                                        span_kind[rid] = kind
                                        span_k[rid] = k
                                        span_period[rid] = period
                                        span_f[rid] = f
                                        span_block[rid] = blk
                                        mult += k
                elif state is wakeup:
                    mult += wake_span(router, tick)
                else:
                    mult += gated_span(router, tick)

            nxt = tick + router.cur_period * mult
            router.next_event_tick = nxt
            heappush(heap, (nxt, rid))
            final_tick = tick
            if drain_check:
                if self.packets_live == 0 and self.entries_remaining == 0:
                    drained = True
                    drain_rid = rid
                    break
                drain_check = False

        # --- epilogue (object run + span rollback + shadow flush) -----
        self._arr_seq = arr_seq
        if horizon is not None:
            drained = self.packets_live == 0 and self.entries_remaining == 0
        self.now_tick = final_tick
        self.now_ns = final_tick / BASE_TICKS_PER_NS
        if span_ok:
            self._rollback_spans(final_tick, drain_rid)
        self._flush_hop_shadow()
        self._flush_residency()
        if self.audit is not None:
            self.audit.on_end(self, drained)
        if telemetry is not None:
            telemetry.on_end(self, drained)
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

