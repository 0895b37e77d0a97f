"""Simulation configuration.

:class:`SimConfig` gathers every knob of the cycle-accurate NoC substrate
and the DozzNoC power-management layer.  The defaults reproduce the paper's
evaluation setup: an 8x8 mesh, 128-bit flits, epoch size of 500 router
cycles, T-Idle of 4 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class SimConfig:
    """Immutable configuration for one simulation run.

    Parameters
    ----------
    topology:
        ``"mesh"`` (one core per router) or ``"cmesh"`` (concentrated
        mesh, ``concentration`` cores per router); see
        :mod:`repro.noc.topology`.  The paper evaluates an 8x8 mesh and a
        4x4 cmesh, both with 64 cores.
    radix:
        Routers per mesh dimension (8 for the mesh, 4 for the cmesh).
    concentration:
        Cores attached to each router (1 for mesh, 4 for cmesh).
    buffer_depth:
        Input-FIFO capacity per port, in flits.  Must hold the longest
        packet (virtual cut-through reserves the full packet).
    request_flits / response_flits:
        Packet lengths in 128-bit flits.  A request is a coherence-style
        short packet; a response carries a cache line.
    epoch_cycles:
        DVFS decision epoch, counted in *local* router cycles (paper: 500).
    t_idle:
        Consecutive idle cycles before a router may power-gate (paper: 4).
    horizon_ns:
        Simulated wall-clock horizon.  ``None`` runs until the trace drains.
    drain_margin:
        When ``horizon_ns`` is ``None`` the run ends ``drain_margin`` x the
        trace duration after the last injection, or when the network empties.
    switching:
        ``"vct"`` (virtual cut-through, default): a packet commits at the
        next hop when its tail arrives, so hop latency is ``length`` cycles
        of the upstream clock.  ``"wormhole"``: the head commits one
        upstream cycle after the grant and may be granted onward while the
        tail is still streaming behind it (single-packet latency drops from
        ``~hops x length`` to ``~hops + length`` cycles).  Both modes
        reserve the full packet downstream, keeping admission deadlock-free
        under XY routing.
    backend:
        Simulation kernel implementation.  ``"array"`` (default) is the
        structure-of-arrays kernel with span skipping
        (:mod:`repro.noc.array_sim`); ``"object"`` selects the per-cycle
        object-model kernel.  The two are proven bit-identical (golden
        matrix, equivalence suite, differential fuzz), so the default
        only changes speed, never results.  See ``docs/backends.md``.
    seed:
        Master seed for any stochastic tie-breaking (the substrate itself is
        deterministic; the seed namespaces derived artifacts).
    """

    topology: str = "mesh"
    radix: int = 8
    concentration: int = 1
    buffer_depth: int = 8
    request_flits: int = 1
    response_flits: int = 5
    epoch_cycles: int = 500
    t_idle: int = 4
    horizon_ns: float | None = None
    drain_margin: float = 2.0
    switching: str = "vct"
    backend: str = "array"
    seed: int = 0
    extra: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.topology not in ("mesh", "cmesh"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.radix < 2:
            raise ConfigError(f"radix must be >= 2, got {self.radix}")
        if self.concentration < 1:
            raise ConfigError(f"concentration must be >= 1, got {self.concentration}")
        if self.topology != "cmesh" and self.concentration != 1:
            raise ConfigError(
                f"{self.topology} topology requires concentration == 1"
            )
        max_len = max(self.request_flits, self.response_flits)
        if self.buffer_depth < max_len:
            raise ConfigError(
                "buffer_depth must hold the longest packet "
                f"({max_len} flits), got {self.buffer_depth}"
            )
        if min(self.request_flits, self.response_flits) < 1:
            raise ConfigError("packet lengths must be >= 1 flit")
        if self.epoch_cycles < 2:
            raise ConfigError(f"epoch_cycles must be >= 2, got {self.epoch_cycles}")
        if self.t_idle < 1:
            raise ConfigError(f"t_idle must be >= 1, got {self.t_idle}")
        if self.horizon_ns is not None and self.horizon_ns <= 0:
            raise ConfigError("horizon_ns must be positive when set")
        if self.drain_margin < 1.0:
            raise ConfigError("drain_margin must be >= 1.0")
        if self.switching not in ("vct", "wormhole"):
            raise ConfigError(
                f"switching must be 'vct' or 'wormhole', got {self.switching!r}"
            )
        if self.backend not in ("object", "array"):
            raise ConfigError(
                f"backend must be 'object' or 'array', got {self.backend!r}"
            )

    @property
    def num_routers(self) -> int:
        """Total router count (``radix**2``)."""
        return self.radix * self.radix

    @property
    def num_cores(self) -> int:
        """Total core count (``radix**2 * concentration``)."""
        return self.num_routers * self.concentration

    def with_(self, **changes: Any) -> "SimConfig":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)

    @classmethod
    def paper_mesh(cls, **overrides: Any) -> "SimConfig":
        """The paper's 8x8 mesh setup (64 routers, 64 cores)."""
        base = cls(topology="mesh", radix=8, concentration=1)
        return base.with_(**overrides) if overrides else base

    @classmethod
    def paper_cmesh(cls, **overrides: Any) -> "SimConfig":
        """The paper's 4x4 concentrated mesh setup (16 routers, 64 cores)."""
        base = cls(topology="cmesh", radix=4, concentration=4)
        return base.with_(**overrides) if overrides else base
