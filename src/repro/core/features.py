"""Feature Extract unit (Figure 1c, Table IV).

Each epoch, a router gathers a feature vector that the Label Generate unit
dots with the offline-trained weights.  Two feature sets are implemented:

* :data:`REDUCED_FEATURES` — the paper's Table IV five-feature set:
  a constant 1 (normalization), requests sent / received by the router's
  attached cores this epoch, the router's cumulative off time, and the
  current epoch's mean input buffer utilization,
* :data:`FULL_FEATURES` — a 41-feature superset in the spirit of the prior
  LEAD work, adding per-port occupancy and forwarding detail, power-state
  history, and neighbour utilizations (used by the DozzNoC-41 ablation).

A feature is a named callable ``(router, sim) -> float``; a
:class:`FeatureSet` is an ordered collection that extracts a NumPy vector.
Utilization-like features are normalized fractions; count-like features are
normalized by the epoch length so that feature scales are comparable across
epoch sizes (the paper trains one model per epoch size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.noc.topology import NUM_PORTS, PORT_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.noc.router import Router

FeatureFn = Callable[["Router", object], float]


@dataclass(frozen=True)
class Feature:
    """A named per-epoch router feature."""

    name: str
    fn: FeatureFn


@dataclass(frozen=True)
class FeatureSet:
    """An ordered, named collection of features."""

    name: str
    features: tuple[Feature, ...]

    def __len__(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        """Feature names, extraction order."""
        return tuple(f.name for f in self.features)

    @property
    def needs_port_tracking(self) -> bool:
        """Whether routers must maintain per-port accumulators."""
        return any(f.name.startswith(("occ_port", "flits_port")) for f in self.features)

    @property
    def router_local(self) -> bool:
        """Whether every feature reads only its own router's per-epoch state.

        False when a feature reads a neighbour (``neighbor_*``) or needs
        per-port accumulators.  The array kernel elides silent cycles
        only for router-local sets (see :mod:`repro.noc.array_sim`).
        """
        return not self.needs_port_tracking and not any(
            f.name.startswith("neighbor_") for f in self.features
        )

    def extract(self, router: "Router", sim: object) -> np.ndarray:
        """Evaluate every feature for ``router`` at an epoch boundary."""
        return np.array([f.fn(router, sim) for f in self.features])

    def subset(self, names: list[str]) -> "FeatureSet":
        """A reduced set containing exactly ``names`` (order preserved).

        Used by the single-feature trade-off study (Fig 9/11), which trains
        each candidate feature alone alongside the bias term.
        """
        by_name = {f.name: f for f in self.features}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise KeyError(f"unknown features: {missing}")
        return FeatureSet(
            name=f"{self.name}[{','.join(names)}]",
            features=tuple(by_name[n] for n in names),
        )


# ---------------------------------------------------------------------- #
# Primitive feature functions
# ---------------------------------------------------------------------- #


def _bias(router: "Router", sim: object) -> float:
    return 1.0


def _sends(router: "Router", sim: object) -> float:
    # Requests sent by the cores attached to this router, per epoch cycle.
    return router.epoch_sends / max(router.epoch_cycle, 1)


def _recvs(router: "Router", sim: object) -> float:
    # Requests received by the attached cores, per epoch cycle.
    return router.epoch_recvs / max(router.epoch_cycle, 1)


def _off_time(router: "Router", sim: object) -> float:
    # Cumulative router off time, normalized by total cycles observed so far.
    total = router.epoch_index * getattr(sim, "epoch_cycles", 500) + router.epoch_cycle
    return router.total_off_cycles / max(total, 1)


def _ibu(router: "Router", sim: object) -> float:
    return router.current_ibu()


def _prev_ibu(router: "Router", sim: object) -> float:
    return router.prev_ibu


def _idle_frac(router: "Router", sim: object) -> float:
    return router.epoch_idle_cycles / max(router.epoch_cycle, 1)


def _wakes(router: "Router", sim: object) -> float:
    return float(router.epoch_wakes)


def _switches(router: "Router", sim: object) -> float:
    return float(router.epoch_switches)


def _mode_index(router: "Router", sim: object) -> float:
    return (router.mode.index - 3) / 4.0


def _flits_out(router: "Router", sim: object) -> float:
    return router.epoch_flits_out / max(router.epoch_cycle, 1)


def _occ_now(router: "Router", sim: object) -> float:
    return router.occupancy_fraction()


def _secure(router: "Router", sim: object) -> float:
    return float(router.secure_count)


def _is_gated(router: "Router", sim: object) -> float:
    return 1.0 if router.state.name == "INACTIVE" else 0.0


def _inject_backlog(router: "Router", sim: object) -> float:
    # Trace entries already due but not yet admitted by the NI.
    now_ns = getattr(sim, "now_ns", float("inf"))
    q, i = router.inject_queue, router.inject_pos
    n = 0
    while i + n < len(q) and q[i + n][0] <= now_ns and n < 32:
        n += 1
    return float(n)


def _reserved_frac(router: "Router", sim: object) -> float:
    reserved = sum(buf.reserved for buf in router.in_buffers)
    return reserved / router.capacity_total


def _in_flight(router: "Router", sim: object) -> float:
    return float(len(router.arrivals))


def _idle_count_now(router: "Router", sim: object) -> float:
    return float(router.idle_count)


def _make_port_occ(port: int) -> FeatureFn:
    def fn(router: "Router", sim: object) -> float:
        return router.occ_port_sums[port] / max(router.epoch_cycle, 1)

    return fn


def _make_port_flits(port: int) -> FeatureFn:
    def fn(router: "Router", sim: object) -> float:
        return router.flits_out_port[port] / max(router.epoch_cycle, 1)

    return fn


def _make_port_head(port: int) -> FeatureFn:
    def fn(router: "Router", sim: object) -> float:
        return router.in_buffers[port].occupancy / router.buffer_depth

    return fn


def _make_neighbor_ibu(slot: int) -> FeatureFn:
    def fn(router: "Router", sim: object) -> float:
        if slot >= len(router.neighbor_ids):
            return 0.0
        nbr = sim.network.routers[router.neighbor_ids[slot]]
        return nbr.current_ibu()

    return fn


def _make_neighbor_gated(slot: int) -> FeatureFn:
    def fn(router: "Router", sim: object) -> float:
        if slot >= len(router.neighbor_ids):
            return 0.0
        nbr = sim.network.routers[router.neighbor_ids[slot]]
        return 1.0 if nbr.state.name == "INACTIVE" else 0.0

    return fn


# ---------------------------------------------------------------------- #
# The two feature sets
# ---------------------------------------------------------------------- #

#: Table IV: the reduced five-feature set (bias + 4 local features).
REDUCED_FEATURES = FeatureSet(
    name="reduced-5",
    features=(
        Feature("bias", _bias),
        Feature("core_sends", _sends),
        Feature("core_recvs", _recvs),
        Feature("off_time", _off_time),
        Feature("ibu", _ibu),
    ),
)


def _full_features() -> tuple[Feature, ...]:
    feats: list[Feature] = [
        Feature("bias", _bias),
        Feature("core_sends", _sends),
        Feature("core_recvs", _recvs),
        Feature("off_time", _off_time),
        Feature("ibu", _ibu),
        Feature("prev_ibu", _prev_ibu),
        Feature("idle_frac", _idle_frac),
        Feature("wake_events", _wakes),
        Feature("switch_events", _switches),
        Feature("mode_index", _mode_index),
        Feature("flits_out", _flits_out),
        Feature("occ_now", _occ_now),
        Feature("secure_count", _secure),
        Feature("is_gated", _is_gated),
        Feature("inject_backlog", _inject_backlog),
        Feature("reserved_frac", _reserved_frac),
        Feature("in_flight", _in_flight),
        Feature("idle_count_now", _idle_count_now),
    ]
    for port in range(NUM_PORTS):
        feats.append(Feature(f"occ_port_{PORT_NAMES[port].lower()}", _make_port_occ(port)))
    for port in range(NUM_PORTS):
        feats.append(
            Feature(f"flits_port_{PORT_NAMES[port].lower()}", _make_port_flits(port))
        )
    for port in range(NUM_PORTS):
        feats.append(
            Feature(f"head_occ_{PORT_NAMES[port].lower()}", _make_port_head(port))
        )
    for slot in range(4):
        feats.append(Feature(f"neighbor_ibu_{slot}", _make_neighbor_ibu(slot)))
    for slot in range(4):
        feats.append(Feature(f"neighbor_gated_{slot}", _make_neighbor_gated(slot)))
    return tuple(feats)


#: The 41-feature superset (prior-work style) for the DozzNoC-41 ablation.
FULL_FEATURES = FeatureSet(name="full-41", features=_full_features())

assert len(FULL_FEATURES) == 41, f"full set has {len(FULL_FEATURES)} features"

#: The Fig 9/11 candidate features studied one at a time (plus the bias).
SINGLE_FEATURE_CANDIDATES: tuple[str, ...] = (
    "core_sends",
    "core_recvs",
    "off_time",
    "ibu",
)


def single_feature_set(feature_name: str) -> FeatureSet:
    """Bias + one candidate feature, for the Fig 9/11 accuracy study."""
    return FULL_FEATURES.subset(["bias", feature_name])
