"""Cycle-accurate, multi-clock-domain NoC simulator substrate.

Flit-accurate virtual cut-through switching, per-router voltage/frequency
domains on an exact 1/18 ns tick grid, XY dimension-order routing with
look-ahead, mesh and concentrated-mesh topologies, and the power-gating /
DVFS state machinery of Figure 3 driven by pluggable policies.
"""

from repro.noc.topology import (
    GridTopology,
    make_topology,
    LOCAL,
    NORTH,
    EAST,
    SOUTH,
    WEST,
    NUM_PORTS,
    PORT_NAMES,
    OPPOSITE,
)
from repro.noc.routing import xy_output_port, next_router, xy_path
from repro.noc.packet import Packet
from repro.noc.buffer import InputBuffer
from repro.noc.router import Router
from repro.noc.network import Network
from repro.noc.stats import NetworkStats, EpochRecord
from repro.noc.simulator import Simulator, SimResult, run_simulation

__all__ = [
    "GridTopology",
    "make_topology",
    "LOCAL",
    "NORTH",
    "EAST",
    "SOUTH",
    "WEST",
    "NUM_PORTS",
    "PORT_NAMES",
    "OPPOSITE",
    "xy_output_port",
    "next_router",
    "xy_path",
    "Packet",
    "InputBuffer",
    "Router",
    "Network",
    "NetworkStats",
    "EpochRecord",
    "Simulator",
    "SimResult",
    "run_simulation",
]
