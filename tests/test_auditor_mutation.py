"""Mutation tests for the invariant auditor: every law must have teeth.

Each case runs one *clean* simulation to completion, corrupts exactly one
audited quantity in the final kernel state, and re-audits.  The auditor
must raise :class:`AuditError` and its ``.check`` attribute must name the
specific violated law — an auditor that fires the wrong check (or none)
would misdirect every future kernel debugging session.
"""

from __future__ import annotations

import pytest

from repro.common.config import SimConfig
from repro.common.errors import AuditError
from repro.core.controller import make_policy
from repro.noc.simulator import Simulator
from repro.traffic.benchmarks import generate_benchmark_trace
from repro.validate.invariants import InvariantAuditor

CONFIG = SimConfig(topology="mesh", radix=4, concentration=1,
                   epoch_cycles=100)


def _finished_sim():
    """A drained simulator whose final state is open to corruption."""
    trace = generate_benchmark_trace(
        "blackscholes", num_cores=16, duration_ns=400.0, seed=0
    )
    sim = Simulator(CONFIG, trace, make_policy("pg"))
    result = sim.run()
    assert result.drained
    return sim


# One entry per audited law: (id, mutation(sim), expected check name).
MUTATIONS = [
    ("extra-injection",
     lambda sim: setattr(sim.stats, "packets_injected",
                         sim.stats.packets_injected + 1),
     "packet-conservation"),
    ("negative-live-packets",
     lambda sim: setattr(sim, "packets_live", -1),
     "packet-conservation"),
    ("phantom-queued-entry",
     lambda sim: setattr(sim, "entries_remaining", 1),
     "trace-conservation"),
    ("trace-total-drift",
     lambda sim: setattr(sim, "total_trace_entries",
                         sim.total_trace_entries + 1),
     "trace-conservation"),
    ("occupancy-counter-drift",
     lambda sim: setattr(sim.network.routers[0].in_buffers[0], "occupancy",
                         sim.network.routers[0].in_buffers[0].occupancy + 1),
     "flit-conservation"),
    ("reservation-overflow",
     lambda sim: setattr(sim.network.routers[0].in_buffers[0], "reserved",
                         sim.network.routers[0].in_buffers[0].capacity + 1),
     "flit-conservation"),
    ("epoch-cycle-overrun",
     lambda sim: setattr(sim.network.routers[0], "epoch_cycle",
                         sim.epoch_cycles),
     "epoch-cycle-bounds"),
    ("negative-off-cycles",
     lambda sim: setattr(sim.network.routers[0], "total_off_cycles", -5),
     "epoch-cycle-bounds"),
    ("leaked-secure-hold",
     lambda sim: setattr(sim.network.routers[0], "secure_count", 1),
     "secure-refcount"),
    ("secure-refcount-underflow",
     lambda sim: setattr(sim.network.routers[0], "secure_count", -1),
     "secure-refcount"),
    ("secure-ledger-imbalance",
     lambda sim: setattr(sim, "secures_placed", sim.secures_placed + 1),
     "secure-ledger"),
    ("phantom-predictor-fallback",
     lambda sim: setattr(sim.stats, "predictor_fallbacks", 1),
     "predictor-fallback"),
    ("firing-scheduled-in-past",
     lambda sim: setattr(sim.network.routers[0], "next_event_tick",
                         sim.now_tick - 1),
     "monotone-fire-tick"),
    ("settle-in-future",
     lambda sim: setattr(sim.network.routers[0], "last_settle_tick",
                         sim.now_tick + 10),
     "monotone-fire-tick"),
    ("residency-tick-leak",
     lambda sim: setattr(sim.network.routers[0], "gated_ticks",
                         sim.network.routers[0].gated_ticks + 5),
     "residency-conservation"),
    ("accountant-wall-clock-drift",
     lambda sim: sim.accountant.powered_time_ns.__setitem__(
         0, sim.accountant.powered_time_ns[0] + 1.0),
     "residency-conservation"),
    ("ghost-arrival-after-drain",
     lambda sim: sim.network.routers[0].arrivals.append(
         (sim.now_tick + 100, 0, 0, None)),
     "drain-state"),
]


@pytest.mark.parametrize(
    "mutate,expected", [(m, c) for _, m, c in MUTATIONS],
    ids=[name for name, _, _ in MUTATIONS],
)
def test_each_corruption_trips_its_law(mutate, expected):
    sim = _finished_sim()
    auditor = InvariantAuditor()
    auditor.on_end(sim, drained=True)  # clean state passes first
    mutate(sim)
    with pytest.raises(AuditError) as excinfo:
        auditor.on_end(sim, drained=True)
    err = excinfo.value
    assert err.check == expected, (
        f"corruption tripped {err.check!r}, expected {expected!r}: {err}"
    )
    assert err.artifact["check"] == expected
    assert err.artifact["tick"] == sim.now_tick


def test_frozen_progress_trips_watchdog():
    """A live packet whose progress vector never moves past the watchdog
    window is a deadlock, not congestion.  The corruption keeps packet
    conservation balanced so only the watchdog can catch it."""
    sim = _finished_sim()
    auditor = InvariantAuditor()
    auditor.on_epoch(sim)  # anchors the progress vector
    sim.stats.packets_delivered -= 1
    sim.packets_live = 1
    auditor.on_epoch(sim)  # vector changed: re-anchors, still passes
    window = auditor._progress_window
    assert window is not None and window > 0
    sim.now_tick += window + 1
    for r in sim.network.routers:
        r.next_event_tick = sim.now_tick
    with pytest.raises(AuditError) as excinfo:
        auditor.on_epoch(sim)
    err = excinfo.value
    assert err.check == "progress-watchdog"
    assert err.artifact["check"] == "progress-watchdog"


def test_watchdog_tolerates_frozen_drained_state():
    """With no live packets a frozen vector is legal (drained network
    idling toward the horizon must never be flagged)."""
    sim = _finished_sim()
    auditor = InvariantAuditor()
    auditor.on_epoch(sim)
    window = auditor._progress_window
    sim.now_tick += window + 1
    for r in sim.network.routers:
        r.next_event_tick = sim.now_tick
    auditor.on_epoch(sim)  # must not raise
    assert auditor.epoch_audits == 2


def test_epoch_hook_also_fires(small_config):
    """The same corruption is caught mid-run through on_epoch."""
    sim = _finished_sim()
    auditor = InvariantAuditor()
    auditor.on_epoch(sim)
    sim.stats.packets_injected += 1
    with pytest.raises(AuditError) as excinfo:
        auditor.on_epoch(sim)
    assert excinfo.value.check == "packet-conservation"


def test_clean_run_passes_every_law():
    sim = _finished_sim()
    auditor = InvariantAuditor()
    auditor.on_epoch(sim)
    auditor.on_end(sim, drained=True)
    assert auditor.checks_passed > 0
    assert auditor.epoch_audits == 1 and auditor.end_audits == 1
