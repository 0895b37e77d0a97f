"""Property-based tests over the regulator and power scaling laws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.power.dsent import dynamic_energy_pj, static_power_w
from repro.regulator.ldo import LdoModel
from repro.regulator.simo import dropout_for, rail_for


class TestLdoProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        v_from=st.floats(min_value=0.8, max_value=1.2),
        v_to=st.floats(min_value=0.8, max_value=1.2),
    )
    def test_switch_time_symmetric_and_nonnegative(self, v_from, v_to):
        ldo = LdoModel()
        t = ldo.switch_time_ns(v_from, v_to)
        assert t >= 0.0
        assert t == pytest.approx(ldo.switch_time_ns(v_to, v_from))

    @settings(max_examples=30, deadline=None)
    @given(
        tau=st.floats(min_value=0.5, max_value=5.0),
        v_to=st.floats(min_value=0.8, max_value=1.2),
    )
    def test_waveform_measurement_tracks_any_tau(self, tau, v_to):
        ldo = LdoModel(tau_switch_ns=tau)
        wf = ldo.switch_transient(0.8, v_to) if v_to != 0.8 else None
        if wf is None:
            return
        measured = wf.settling_time_ns(ldo.settle_eps_v)
        assert measured == pytest.approx(
            ldo.switch_time_ns(0.8, v_to), abs=0.02
        )


class TestSimoProperties:
    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(min_value=0.8, max_value=1.2))
    def test_rail_always_covers_output(self, v):
        rail = rail_for(v)
        assert rail >= v - 1e-12
        assert dropout_for(v) == pytest.approx(rail - v, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(min_value=0.8, max_value=1.2))
    def test_dropout_bounded_by_largest_rail_gap(self, v):
        # With rails every <= 0.2 V apart above 0.8 V, dropout < 0.2 V;
        # at the DVFS grid itself it is <= 0.1 V (tested exactly elsewhere).
        assert dropout_for(v) < 0.2


class TestPowerScalingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        v=st.floats(min_value=0.1, max_value=2.0),
        k=st.floats(min_value=1.1, max_value=3.0),
    )
    def test_static_power_linear(self, v, k):
        assert static_power_w(k * v) == pytest.approx(k * static_power_w(v))

    @settings(max_examples=50, deadline=None)
    @given(
        v=st.floats(min_value=0.1, max_value=2.0),
        k=st.floats(min_value=1.1, max_value=3.0),
    )
    def test_dynamic_energy_quadratic(self, v, k):
        assert dynamic_energy_pj(k * v) == pytest.approx(
            k * k * dynamic_energy_pj(v)
        )

    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(min_value=0.0, max_value=2.0))
    def test_costs_nonnegative(self, v):
        assert static_power_w(v) >= 0.0
        assert dynamic_energy_pj(v) >= 0.0
        assert np.isfinite(static_power_w(v))
