"""Tests for SimConfig validation and presets."""

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ConfigError


class TestValidation:
    def test_default_is_paper_mesh(self):
        cfg = SimConfig()
        assert cfg.topology == "mesh"
        assert cfg.radix == 8
        assert cfg.num_routers == 64
        assert cfg.num_cores == 64

    def test_unknown_topology_rejected(self):
        # A generous buffer rules out every other validation failure.
        for topology in ("torus", "ring"):
            with pytest.raises(ConfigError, match=f"'{topology}'"):
                SimConfig(topology=topology, buffer_depth=64)

    def test_radix_too_small(self):
        with pytest.raises(ConfigError):
            SimConfig(radix=1)

    def test_mesh_requires_unit_concentration(self):
        with pytest.raises(ConfigError):
            SimConfig(topology="mesh", concentration=4)

    def test_cmesh_accepts_concentration(self):
        cfg = SimConfig(topology="cmesh", radix=4, concentration=4)
        assert cfg.num_cores == 64

    def test_zero_concentration_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(topology="cmesh", radix=4, concentration=0)

    def test_buffer_must_hold_longest_packet(self):
        with pytest.raises(ConfigError):
            SimConfig(buffer_depth=4, response_flits=5)

    def test_buffer_exactly_longest_packet_ok(self):
        cfg = SimConfig(buffer_depth=5, response_flits=5)
        assert cfg.buffer_depth == 5

    def test_zero_length_packet_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(request_flits=0)

    def test_tiny_epoch_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(epoch_cycles=1)

    def test_zero_t_idle_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(t_idle=0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(horizon_ns=-1.0)

    def test_none_horizon_allowed(self):
        assert SimConfig(horizon_ns=None).horizon_ns is None

    def test_drain_margin_below_one_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(drain_margin=0.5)


class TestPresetsAndCopies:
    def test_paper_mesh_preset(self):
        cfg = SimConfig.paper_mesh()
        assert (cfg.radix, cfg.concentration) == (8, 1)
        assert cfg.epoch_cycles == 500
        assert cfg.t_idle == 4

    def test_paper_cmesh_preset(self):
        cfg = SimConfig.paper_cmesh()
        assert (cfg.radix, cfg.concentration) == (4, 4)
        assert cfg.num_routers == 16
        assert cfg.num_cores == 64

    def test_preset_overrides(self):
        cfg = SimConfig.paper_mesh(epoch_cycles=100)
        assert cfg.epoch_cycles == 100
        assert cfg.radix == 8

    def test_with_returns_validated_copy(self):
        cfg = SimConfig()
        other = cfg.with_(radix=4)
        assert other.radix == 4
        assert cfg.radix == 8

    def test_with_revalidates(self):
        with pytest.raises(ConfigError):
            SimConfig().with_(radix=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimConfig().radix = 4
