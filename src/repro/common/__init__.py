"""Shared utilities: units, configuration, RNG management, errors.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.
"""

from repro._lazy import lazy_exports

#: Re-exports, resolved on first access: name -> defining module.
_EXPORTS = {
    "BASE_TICKS_PER_NS": "repro.common.units",
    "GHZ_PERIOD_TICKS": "repro.common.units",
    "ns_to_ticks": "repro.common.units",
    "ticks_to_ns": "repro.common.units",
    "period_ticks_for_ghz": "repro.common.units",
    "ReproError": "repro.common.errors",
    "ConfigError": "repro.common.errors",
    "TopologyError": "repro.common.errors",
    "RoutingError": "repro.common.errors",
    "SimulationError": "repro.common.errors",
    "TrafficError": "repro.common.errors",
    "TrainingError": "repro.common.errors",
    "make_rng": "repro.common.rng",
    "spawn_rngs": "repro.common.rng",
    "stable_seed": "repro.common.rng",
    "SimConfig": "repro.common.config",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
