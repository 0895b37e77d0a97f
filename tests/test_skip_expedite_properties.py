"""Gated-heartbeat skipping must be invisible.

The array kernel elides heartbeats of gated routers as ``GATED`` spans,
interrupts a span when a secure() wakes the router mid-span, and rolls
back elided heartbeats a terminated run never reached.  The object
kernel fires every heartbeat one cycle at a time.  The contract is
*exactness*: the two kernels agree bit for bit — summary metrics,
per-router off-cycle and epoch counters, energy residency — across
random gated-traffic workloads, with invariant audits on for both runs.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import SimConfig
from repro.core.controller import make_policy
from repro.noc.array_sim import _SPAN_GATED, ArraySimulator
from repro.noc.simulator import Simulator
from repro.traffic.trace import KIND_REQUEST, KIND_RESPONSE, Trace
from repro.validate import InvariantAuditor


class _CountingArray(ArraySimulator):
    """Array kernel that counts the GATED spans it folds."""

    gated_folds = 0

    def _fold_span(self, router, kept):
        if kept > 0 and self._span_kind[router.rid] == _SPAN_GATED:
            self.gated_folds += 1
        super()._fold_span(router, kept)


# Small epochs and idle-heavy traffic so gating (and thus skipping,
# wake interrupts, and epoch-boundary interactions) actually happens.
CFG = SimConfig(topology="mesh", radix=3, concentration=1, epoch_cycles=40,
                t_idle=2)


@st.composite
def gappy_traffic(draw):
    """Sparse bursts separated by long idle gaps, plus a gating policy."""
    n_cores = 9
    n_bursts = draw(st.integers(min_value=1, max_value=4))
    entries = []
    t = 0.0
    for _ in range(n_bursts):
        t += draw(st.floats(min_value=30.0, max_value=400.0))  # idle gap
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            t += draw(st.floats(min_value=0.0, max_value=3.0))
            src = draw(st.integers(0, n_cores - 1))
            dst = draw(st.integers(0, n_cores - 2))
            if dst >= src:
                dst += 1
            kind = draw(st.sampled_from([KIND_REQUEST, KIND_RESPONSE]))
            entries.append((src, dst, kind, t))
    policy = draw(st.sampled_from(["pg", "lead", "dozznoc", "turbo"]))
    return entries, policy


def _run_both(entries, policy, config=CFG):
    """(object sim, result), (array sim, result), both audited."""
    trace = Trace.from_entries(entries, 9, "skipprop")
    runs = []
    for cls, cfg in ((Simulator, config),
                     (_CountingArray, config.with_(backend="array"))):
        sim = cls(cfg, trace, make_policy(policy), audit=InvariantAuditor())
        runs.append((sim, sim.run()))
    return runs


def _assert_same_routers(sim_obj, sim_arr):
    for r_obj, r_arr in zip(sim_obj.network.routers,
                            sim_arr.network.routers):
        # Interrupts and end-of-run rollback must keep exactly the
        # heartbeats the per-cycle kernel ran; any off-by-one shows here.
        assert r_arr.total_off_cycles == r_obj.total_off_cycles
        assert r_arr.gated_ticks == r_obj.gated_ticks
        assert list(r_arr.mode_ticks) == list(r_obj.mode_ticks)
        assert r_arr.epoch_cycle == r_obj.epoch_cycle
    acc_obj, acc_arr = sim_obj.accountant, sim_arr.accountant
    assert (acc_arr.gated_time_ns == acc_obj.gated_time_ns).all()
    assert (acc_arr.powered_time_ns == acc_obj.powered_time_ns).all()
    # Both legs were fully audited.
    assert sim_obj.audit.end_audits == 1
    assert sim_arr.audit.end_audits == 1


class TestSkipExactness:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gappy_traffic())
    def test_skip_on_off_bit_identical(self, data):
        entries, policy = data
        (sim_obj, res_obj), (sim_arr, res_arr) = _run_both(entries, policy)
        # The array leg runs with spans (GATED included) enabled.
        assert sim_arr._span_ok

        assert res_arr.summary() == res_obj.summary()
        assert res_arr.drained == res_obj.drained
        assert res_arr.stats.latencies_ns == res_obj.stats.latencies_ns
        _assert_same_routers(sim_obj, sim_arr)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(gappy_traffic(), st.floats(min_value=50.0, max_value=500.0))
    def test_skip_exact_under_horizon(self, data, horizon):
        # Horizon runs stop mid-flight — open spans must roll back to
        # exactly the heartbeats that ran, at an arbitrary stop point.
        entries, policy = data
        cfg = CFG.with_(horizon_ns=horizon)
        (sim_obj, res_obj), (sim_arr, res_arr) = _run_both(
            entries, policy, cfg
        )
        assert res_arr.summary() == res_obj.summary()
        assert res_arr.drained == res_obj.drained
        _assert_same_routers(sim_obj, sim_arr)


def test_gating_and_skipping_actually_occur():
    """Guard against the property tests silently testing nothing."""
    entries = [(0, 8, KIND_REQUEST, 50.0), (8, 0, KIND_RESPONSE, 700.0)]
    (sim_obj, res_obj), (sim_arr, res_arr) = _run_both(entries, "pg")
    assert res_obj.drained and res_arr.drained
    assert any(r.total_off_cycles > 0 for r in sim_obj.network.routers)
    # The array kernel elided gated heartbeats as GATED spans.
    assert sim_arr.gated_folds > 0
    _assert_same_routers(sim_obj, sim_arr)
