"""SIMO/LDO voltage-regulator behavioural models (Section III.C).

Regenerates Tables I-III and Figures 5-6 from calibrated first-order
physics rather than hard-coded constants:

* :mod:`repro.regulator.ldo` — transient waveform synthesis and settling
  measurement for wakeup, gating and active-mode switches,
* :mod:`repro.regulator.simo` — rail selection, dropout (Table I), and the
  component-count argument,
* :mod:`repro.regulator.latency` — the full 6x6 latency matrix (Table II)
  and its conversion to per-mode cycle costs (Table III),
* :mod:`repro.regulator.efficiency` — SIMO vs conventional-array system
  efficiency (Figure 6).
"""

from repro.regulator.ldo import LdoModel, LdoTransient
from repro.regulator.simo import (
    SIMO_RAILS,
    MAX_DROPOUT_V,
    DropoutRow,
    rail_for,
    dropout_for,
    dropout_table,
    max_dropout,
)
from repro.regulator.latency import (
    CycleCosts,
    latency_matrix_ns,
    worst_case_switch_ns,
    worst_case_wakeup_ns,
    derive_cycle_costs,
    MATRIX_LABELS,
)
from repro.regulator.efficiency import (
    EfficiencyComparison,
    baseline_efficiency,
    simo_efficiency,
    ldo_efficiency,
    compare_efficiency,
)

__all__ = [
    "LdoModel",
    "LdoTransient",
    "SIMO_RAILS",
    "MAX_DROPOUT_V",
    "DropoutRow",
    "rail_for",
    "dropout_for",
    "dropout_table",
    "max_dropout",
    "CycleCosts",
    "latency_matrix_ns",
    "worst_case_switch_ns",
    "worst_case_wakeup_ns",
    "derive_cycle_costs",
    "MATRIX_LABELS",
    "EfficiencyComparison",
    "baseline_efficiency",
    "simo_efficiency",
    "ldo_efficiency",
    "compare_efficiency",
]
