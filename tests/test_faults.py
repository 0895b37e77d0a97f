"""Fault injection: per-class behavior and the zero-rate identity.

Covers the four fault classes end-to-end (wakeup faults + watchdog, VR
switch aborts + safe mode, link retransmission + energy accounting,
feature corruption + predictor fallback) and the foundational property
that an *inert* scheduler — every rate zero — is bit-identical to running
with no scheduler at all.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.core.controller import make_policy
from repro.faults import FaultConfig, FaultScheduler
from repro.noc.simulator import Simulator, run_simulation
from repro.regulator.reliability import SAFE_MODE_INDEX, abort_stall_cycles
from repro.traffic.benchmarks import generate_benchmark_trace
from repro.traffic.patterns import generate_pattern_trace

SIM = SimConfig(topology="mesh", radix=4, concentration=1, epoch_cycles=100)

#: Hand-picked ridge weights whose predictions sweep the mode thresholds
#: (bias, sends, recvs, off_time, ibu), so proactive policies actually
#: issue VR switches instead of parking at one mode.
WEIGHTS = np.array([0.05, 1.5, 1.5, 0.0, 0.0])


def _trace(duration_ns: float = 1_500.0, seed: int = 0):
    return generate_benchmark_trace(
        "blackscholes", num_cores=SIM.num_cores, duration_ns=duration_ns,
        seed=seed,
    )


def _busy_trace(duration_ns: float = 1_500.0, seed: int = 0):
    """Uniform traffic heavy enough to keep routers active and DVFS busy."""
    return generate_pattern_trace(
        "uniform", num_cores=SIM.num_cores, duration_ns=duration_ns,
        rate_per_core_ns=0.05, seed=seed,
    )


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ConfigError, match="wake_slow_rate"):
            FaultConfig(wake_slow_rate=1.5)
        with pytest.raises(ConfigError, match="link_error_rate"):
            FaultConfig(link_error_rate=-0.1)
        with pytest.raises(ConfigError, match="wake_slow_multiplier"):
            FaultConfig(wake_slow_multiplier=1)
        with pytest.raises(ConfigError, match="link_max_retries"):
            FaultConfig(link_max_retries=0)

    def test_stuck_routers_sorted_and_deduped(self):
        cfg = FaultConfig(wake_stuck_routers=(5, 1, 5, 3))
        assert cfg.wake_stuck_routers == (1, 3, 5)

    def test_any_active(self):
        assert not FaultConfig().any_active
        assert FaultConfig(link_error_rate=0.1).any_active
        assert FaultConfig(wake_stuck_routers=(2,)).any_active
        assert FaultConfig.moderate().any_active

    def test_fingerprint_is_content_addressed(self):
        a = FaultConfig(seed=1, link_error_rate=0.05)
        b = FaultConfig(seed=1, link_error_rate=0.05)
        c = FaultConfig(seed=2, link_error_rate=0.05)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != FaultConfig().fingerprint()


class TestFaultScheduler:
    def test_explicit_stuck_routers_clipped_to_topology(self):
        sched = FaultScheduler(
            FaultConfig(wake_stuck_routers=(0, 3, 99)), num_routers=16
        )
        assert sched.stuck_routers == frozenset({0, 3})

    def test_stuck_wakeup_counted(self):
        sched = FaultScheduler(
            FaultConfig(wake_stuck_routers=(2,)), num_routers=16
        )
        assert sched.wakeup_outcome(2) == (True, 1)
        assert sched.wakeup_outcome(1) == (False, 1)
        assert sched.wakeups_stuck == 1

    def test_watchdog_backoff_caps(self):
        sched = FaultScheduler(
            FaultConfig(watchdog_timeout_cycles=8, watchdog_backoff_limit=3),
            num_routers=4,
        )
        assert sched.watchdog_deadline(0) == 8
        assert sched.watchdog_deadline(1) == 16
        assert sched.watchdog_deadline(3) == 64
        assert sched.watchdog_deadline(50) == 64  # capped

    def test_link_retry_bound_forces_success(self):
        sched = FaultScheduler(
            FaultConfig(link_error_rate=1.0, link_max_retries=2),
            num_routers=4,
        )
        assert sched.link_transfer_fails(retries=0, flits=3)
        assert sched.link_transfer_fails(retries=1, flits=3)
        assert not sched.link_transfer_fails(retries=2, flits=3)
        assert sched.link_faults == 2
        assert sched.retx_flits == 6

    def test_corruption_plants_one_non_finite_entry(self):
        sched = FaultScheduler(
            FaultConfig(feature_corrupt_rate=1.0), num_routers=4
        )
        clean = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        out = sched.maybe_corrupt_features(clean)
        assert out is not None
        assert np.isfinite(clean).all()  # input untouched
        bad = ~np.isfinite(out)
        assert bad.sum() == 1
        assert sched.features_corrupted == 1
        # No weight vector can mask the poisoned entry.
        assert not math.isfinite(float(np.zeros(5) @ out))

    def test_same_seed_same_schedule(self):
        cfg = FaultConfig.moderate(seed=7)
        a = FaultScheduler(cfg, num_routers=16)
        b = FaultScheduler(cfg, num_routers=16)
        assert a.stuck_routers == b.stuck_routers
        seq_a = [a.vr_switch_fails() for _ in range(50)]
        seq_b = [b.vr_switch_fails() for _ in range(50)]
        assert seq_a == seq_b
        assert [a.wakeup_outcome(3) for _ in range(20)] == [
            b.wakeup_outcome(3) for _ in range(20)
        ]


class TestReliabilityModel:
    def test_safe_mode_is_max_vf(self):
        assert SAFE_MODE_INDEX == 7

    def test_abort_burns_a_full_t_switch(self):
        from repro.core.modes import mode

        for idx in range(3, 8):
            assert abort_stall_cycles(mode(idx)) == mode(idx).t_switch_cycles


class TestWakeupFaults:
    def test_watchdog_rescues_every_stuck_router(self):
        faults = FaultConfig(
            wake_stuck_routers=tuple(range(16)),
            watchdog_timeout_cycles=16,
        )
        sim = Simulator(SIM, _trace(), make_policy("pg"), audit=True,
                        faults=faults)
        result = sim.run()
        assert result.drained
        assert result.stats.forced_wakes > 0
        # Every wakeup was stuck, so every wake event was a rescue.
        per_router = [r.forced_wakes for r in sim.network.routers]
        assert sum(per_router) == result.stats.forced_wakes
        assert result.faults.wakeups_stuck >= result.stats.forced_wakes

    def test_slow_wakeups_counted_and_run_drains(self):
        faults = FaultConfig(wake_slow_rate=1.0, wake_slow_multiplier=5)
        result = run_simulation(
            SIM, _trace(), make_policy("pg"), audit=True, faults=faults
        )
        assert result.drained
        sched = result.faults
        assert sched is not None and sched.wakeups_slowed > 0

    def test_degraded_wakeups_cost_latency(self):
        clean = run_simulation(SIM, _trace(), make_policy("pg"))
        slowed = run_simulation(
            SIM, _trace(), make_policy("pg"),
            faults=FaultConfig(wake_slow_rate=1.0, wake_slow_multiplier=8),
        )
        assert slowed.stats.avg_latency_ns > clean.stats.avg_latency_ns


class TestVrFaults:
    def test_aborts_and_safe_mode(self):
        faults = FaultConfig(seed=3, vr_fail_rate=0.6, vr_max_retries=0)
        result = run_simulation(
            SIM, _busy_trace(), make_policy("dozznoc", weights=WEIGHTS),
            audit=True, faults=faults,
        )
        assert result.drained
        assert result.stats.vr_switch_aborts > 0
        assert result.stats.vr_safe_mode_entries > 0

    def test_aborts_without_exhaustion_keep_target(self):
        faults = FaultConfig(seed=3, vr_fail_rate=0.3, vr_max_retries=10)
        result = run_simulation(
            SIM, _busy_trace(), make_policy("dozznoc", weights=WEIGHTS),
            audit=True, faults=faults,
        )
        assert result.stats.vr_switch_aborts > 0
        assert result.stats.vr_safe_mode_entries == 0


class TestLinkFaults:
    def test_retransmissions_charged_and_delivered(self):
        faults = FaultConfig(seed=5, link_error_rate=0.05)
        clean = run_simulation(SIM, _trace(), make_policy("baseline"))
        faulty = run_simulation(
            SIM, _trace(), make_policy("baseline"), audit=True, faults=faults
        )
        assert faulty.drained
        stats = faulty.stats
        assert stats.link_faults > 0
        assert stats.flits_retransmitted > 0
        # Degradation is graceful: every packet still arrives.
        assert stats.packets_delivered == clean.stats.packets_delivered
        # The wasted serializations are honestly charged.
        acct = faulty.accountant
        assert acct.retx_pj.sum() > 0
        assert int(acct.retx_flits.sum()) == stats.flits_retransmitted
        assert faulty.summary()["dynamic_pj"] > clean.summary()["dynamic_pj"]


class TestFeatureCorruption:
    @pytest.mark.parametrize("backend", ("object", "array"))
    def test_proactive_policy_falls_back_per_corruption(self, backend):
        faults = FaultConfig(seed=9, feature_corrupt_rate=0.5)
        result = run_simulation(
            SIM.with_(backend=backend), _trace(),
            make_policy("dozznoc", weights=WEIGHTS),
            audit=True, faults=faults,
        )
        assert result.drained
        stats = result.stats
        assert stats.features_corrupted > 0
        assert stats.predictor_fallbacks == stats.features_corrupted
        assert stats.features_corrupted_predicting == stats.features_corrupted

    @pytest.mark.parametrize("backend", ("object", "array"))
    def test_reactive_policy_never_falls_back(self, backend):
        """A corrupted vector consumed by a reactive epoch trips no
        fallback, and the run still audits clean."""
        faults = FaultConfig(seed=9, feature_corrupt_rate=0.5)
        result = run_simulation(
            SIM.with_(backend=backend), _trace(),
            make_policy("dozznoc"),  # reactive: no weights
            collect_features=True, audit=True, faults=faults,
        )
        assert result.stats.features_corrupted > 0
        assert result.stats.features_corrupted_predicting == 0
        assert result.stats.predictor_fallbacks == 0


def _summary_fingerprint(result) -> dict:
    out = dict(result.summary())
    out["drained"] = result.drained
    out["mode_distribution"] = result.stats.mode_distribution()
    return out


class TestZeroRateIdentity:
    """An inert scheduler must be invisible, bit for bit."""

    @settings(max_examples=8, deadline=None)
    @given(
        fault_seed=st.integers(min_value=0, max_value=2**31 - 1),
        policy=st.sampled_from(["baseline", "pg", "dozznoc", "turbo"]),
    )
    def test_zero_rates_identical_to_no_scheduler(self, fault_seed, policy):
        weights = WEIGHTS if policy in ("dozznoc", "turbo") else None
        trace = _trace(duration_ns=600.0)
        plain = run_simulation(
            SIM, trace, make_policy(policy, weights=weights), audit=True
        )
        inert = run_simulation(
            SIM, trace, make_policy(policy, weights=weights), audit=True,
            faults=FaultConfig(seed=fault_seed),
        )
        assert _summary_fingerprint(plain) == _summary_fingerprint(inert)

    def test_inert_scheduler_draws_nothing(self):
        result = run_simulation(
            SIM, _trace(duration_ns=600.0), make_policy("pg"),
            faults=FaultConfig(seed=123),
        )
        sched = result.faults
        assert sched is not None
        assert all(v == 0 for v in sched.counters().values())


class TestFaultsInMetrics:
    def test_model_metrics_carry_the_degradation_ledger(self):
        from repro.experiments.runner import ModelMetrics

        faults = FaultConfig.moderate(seed=1)
        result = run_simulation(
            SIM, _trace(), make_policy("dozznoc", weights=WEIGHTS),
            audit=True, faults=faults,
        )
        metrics = ModelMetrics.from_result(result)
        assert metrics.forced_wakes == result.stats.forced_wakes
        assert metrics.flits_retransmitted == result.stats.flits_retransmitted
        assert metrics.vr_safe_mode_entries == result.stats.vr_safe_mode_entries
        assert metrics.predictor_fallbacks == result.stats.predictor_fallbacks
        data = dataclasses.asdict(metrics)
        assert "forced_wakes" in data
