"""DozzNoC reproduction: power-gating + DVFS + ML NoC power management.

Reproduces Clark et al., "DozzNoC: Reducing Static and Dynamic Energy in
NoCs with Low-latency Voltage Regulators using Machine Learning"
(IPDPS 2020), including every substrate the paper depends on: a
cycle-accurate multi-clock-domain NoC simulator, a DSENT-calibrated power
model, a behavioural SIMO/LDO voltage-regulator model, benchmark-signature
traffic generation, ridge-regression training, and a benchmark harness for
each table and figure.

Quick start::

    from repro import SimConfig, make_policy, run_simulation
    from repro.traffic import generate_benchmark_trace

    config = SimConfig.paper_mesh()
    trace = generate_benchmark_trace("blackscholes", num_cores=64)
    result = run_simulation(config, trace, make_policy("dozznoc"))
    print(result.summary())
"""

from repro._lazy import lazy_exports

#: Re-exports, resolved on first access: name -> defining module.
_EXPORTS = {
    "SimConfig": "repro.common.config",
    "MODES": "repro.core.modes",
    "MODE_MAX": "repro.core.modes",
    "MODE_MIN": "repro.core.modes",
    "PowerState": "repro.core.states",
    "make_policy": "repro.core.controller",
    "mode_for_utilization": "repro.core.thresholds",
    "SimResult": "repro.noc.simulator",
    "Simulator": "repro.noc.simulator",
    "run_simulation": "repro.noc.simulator",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]

__getattr__ = lazy_exports(__name__, _EXPORTS)
