"""Tests for the five power policies and the Label-Generate/Model-Select path."""

import numpy as np
import pytest

from repro.core.controller import (
    POLICIES,
    BaselinePolicy,
    DozzNocPolicy,
    LeadPolicy,
    PowerGatedPolicy,
    TurboPolicy,
    make_policy,
)
from repro.core.features import FULL_FEATURES, REDUCED_FEATURES
from repro.core.modes import MODE_MAX
from repro.noc.router import Router


@pytest.fixture
def router():
    return Router(rid=0, buffer_depth=8, initial_mode=MODE_MAX)


class TestRegistry:
    def test_five_models(self):
        assert set(POLICIES) == {"baseline", "pg", "lead", "dozznoc", "turbo"}

    def test_make_policy_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("magic")

    @pytest.mark.parametrize(
        "name,gating,dvfs",
        [
            ("baseline", False, False),
            ("pg", True, False),
            ("lead", False, True),
            ("dozznoc", True, True),
            ("turbo", True, True),
        ],
    )
    def test_mechanism_flags(self, name, gating, dvfs):
        p = make_policy(name)
        assert p.uses_gating is gating
        assert p.uses_dvfs is dvfs

    def test_all_start_at_mode7(self):
        for name in POLICIES:
            assert make_policy(name).initial_mode() is MODE_MAX

    def test_policy_classes(self):
        assert isinstance(make_policy("baseline"), BaselinePolicy)
        assert isinstance(make_policy("pg"), PowerGatedPolicy)
        assert isinstance(make_policy("lead"), LeadPolicy)
        assert isinstance(make_policy("turbo"), TurboPolicy)
        assert isinstance(make_policy("dozznoc"), DozzNocPolicy)
        # TURBO is a DozzNoC variant.
        assert isinstance(make_policy("turbo"), DozzNocPolicy)


class TestPrediction:
    def test_reactive_uses_measured_ibu(self, router):
        policy = make_policy("lead")
        router.epoch_cycle = 10
        router.occ_sum = 1.5
        assert policy.predict_utilization(router, None) == pytest.approx(0.15)
        assert not policy.proactive

    def test_proactive_uses_weights(self, router):
        weights = np.array([0.1, 0.0, 0.0, 0.0, 2.0])
        policy = make_policy("lead", weights=weights)
        features = np.array([1.0, 0.0, 0.0, 0.0, 0.05])
        assert policy.predict_utilization(router, features) == pytest.approx(0.2)
        assert policy.proactive

    def test_proactive_without_features_rejected(self, router):
        policy = make_policy("lead", weights=np.zeros(5))
        with pytest.raises(ValueError):
            policy.predict_utilization(router, None)

    def test_weight_shape_validated(self):
        with pytest.raises(ValueError):
            make_policy("lead", weights=np.zeros(4))

    def test_weight_shape_follows_feature_set(self):
        policy = make_policy("lead", weights=np.zeros(41),
                             feature_set=FULL_FEATURES)
        assert len(policy.weights) == 41

    def test_default_feature_set_is_reduced(self):
        assert make_policy("dozznoc").feature_set is REDUCED_FEATURES


class TestModeSelection:
    def test_select_follows_thresholds(self, router):
        policy = make_policy("lead")
        router.epoch_cycle = 10
        for occ_sum, want in ((0.2, 3), (0.7, 4), (1.5, 5), (2.2, 6), (3.0, 7)):
            router.occ_sum = occ_sum
            assert policy.select_mode_index(router, None) == want

    def test_turbo_promotes_every_third_midmode(self, router):
        policy = make_policy("turbo")
        router.epoch_cycle = 10
        router.occ_sum = 1.5  # IBU 0.15 -> mode 5 (a mid mode)
        picks = [policy.select_mode_index(router, None) for _ in range(6)]
        assert picks == [5, 5, 7, 5, 5, 7]

    def test_turbo_leaves_extremes_alone(self, router):
        policy = make_policy("turbo")
        router.epoch_cycle = 10
        router.occ_sum = 0.1  # mode 3
        picks = [policy.select_mode_index(router, None) for _ in range(9)]
        assert picks == [3] * 9
        assert router.turbo_counter == 0

    def test_dozznoc_never_promotes(self, router):
        policy = make_policy("dozznoc")
        router.epoch_cycle = 10
        router.occ_sum = 1.5
        picks = [policy.select_mode_index(router, None) for _ in range(6)]
        assert picks == [5] * 6

    def test_non_finite_prediction_falls_back_to_measured_ibu(self, router):
        sim = _StubSim()
        policy = make_policy("dozznoc", weights=np.ones(5))
        router.epoch_cycle = 10
        router.occ_sum = 1.5  # measured IBU 0.15 -> mode 5
        features = np.array([1.0, 0.0, np.nan, 0.0, 0.0])
        assert policy.select_mode_index(router, features, sim) == 5
        assert sim.stats.predictor_fallbacks == 1
        # A finite prediction counts no fallback.
        policy.select_mode_index(router, np.zeros(5), sim)
        assert sim.stats.predictor_fallbacks == 1


class _StubSim:
    """Minimal sim facade for exercising _apply_mode."""

    def __init__(self):
        from repro.noc.stats import NetworkStats
        from repro.power.accounting import EnergyAccountant

        self.stats = NetworkStats()
        self.accountant = EnergyAccountant(1)
        self.settled = 0

    def settle(self, router):
        self.settled += 1

    def begin_switch(self, router, target):
        from repro.core.modes import mode

        router.begin_switch(mode(target))


class TestApplyMode:
    def test_epoch_decision_recorded_and_switch_started(self, router):
        sim = _StubSim()
        policy = make_policy("lead")
        router.epoch_cycle = 10
        router.occ_sum = 0.0  # -> mode 3
        policy.on_epoch(router, sim, None)
        assert sim.stats.mode_selections[3] == 1
        assert router.mode.index == 3
        assert router.switch_stall == router.mode.t_switch_cycles

    def test_no_switch_when_same_mode(self, router):
        sim = _StubSim()
        policy = make_policy("lead")
        router.epoch_cycle = 10
        router.occ_sum = 4.0  # -> mode 7 == current
        policy.on_epoch(router, sim, None)
        assert router.switch_stall == 0

    def test_ml_energy_charged_only_when_proactive(self, router):
        sim = _StubSim()
        reactive = make_policy("lead")
        router.epoch_cycle = 10
        router.occ_sum = 0.0
        reactive.on_epoch(router, sim, None)
        assert sim.accountant.ml_pj.sum() == 0.0

        sim2 = _StubSim()
        weights = np.zeros(5)
        proactive = make_policy("lead", weights=weights)
        proactive.on_epoch(router, sim2, np.ones(5))
        assert sim2.accountant.ml_pj.sum() > 0.0

    def test_baseline_on_epoch_is_noop(self, router):
        sim = _StubSim()
        make_policy("baseline").on_epoch(router, sim, None)
        assert sum(sim.stats.mode_selections.values()) == 0
        assert router.mode is MODE_MAX

    def test_waking_router_keeps_target(self, router):
        sim = _StubSim()
        router.begin_gate()
        router.begin_wakeup()
        policy = make_policy("dozznoc")
        router.epoch_cycle = 10
        router.occ_sum = 0.0
        policy.on_epoch(router, sim, None)
        # Mid-wakeup: the in-progress target is kept, no switch stall.
        assert router.mode is MODE_MAX
        assert router.switch_stall == 0

    def test_gated_router_retargets_without_stall(self, router):
        sim = _StubSim()
        router.begin_gate()
        policy = make_policy("dozznoc")
        router.epoch_cycle = 10
        router.occ_sum = 0.0
        policy.on_epoch(router, sim, None)
        assert router.mode.index == 3
        assert router.switch_stall == 0
