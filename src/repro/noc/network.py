"""Network assembly: routers + links + network interfaces from a config.

Builds the router array for a mesh or cmesh (see
:mod:`repro.noc.topology`), precomputes the tables the kernels index on
the hot path, and splits a :class:`~repro.traffic.trace.Trace` into
per-router injection queues (each router's NI sees only its own cores'
entries, time-sorted):

* ``links[rid]`` — outgoing ``(out_port, neighbor_rid, input_port)``
  triples, in ascending output-port order.  Links are bidirectional, so
  the same triples also name who feeds our inputs: input ``ip`` is fed
  by ``neighbor_rid``'s output ``OPPOSITE[ip]``,
* ``neighbor_port[rid][port]`` — flat output-port -> neighbor lookup
  (-1 where no link) for the secure/wake look-ahead,
* ``route_port[rid][dst_rid]`` — the XY routing decision, fully
  precomputed so both kernels route with two list indexes instead of
  coordinate arithmetic.
"""

from __future__ import annotations

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.core.modes import Mode
from repro.noc.router import Router
from repro.noc.topology import make_topology
from repro.traffic.trace import Trace


class Network:
    """The assembled NoC: routers, link tables, and NI injection queues."""

    def __init__(self, config: SimConfig, initial_mode: Mode) -> None:
        self.config = config
        self.topology = topology = make_topology(
            config.topology, config.radix, config.concentration
        )
        num_routers = topology.num_routers
        opposite = topology.opposite
        self.routers = [
            Router(rid, config.buffer_depth, initial_mode)
            for rid in range(num_routers)
        ]
        #: Per-router list of (out_port, neighbor_rid, input_port_there).
        self.links: list[list[tuple[int, int, int]]] = []
        #: Flat port->neighbor lookup (-1 where no link), for the hot path.
        self.neighbor_port: list[list[int]] = []
        for rid in range(num_routers):
            entries = [
                (port, nbr, opposite[port])
                for port, nbr in topology.neighbors(rid)
            ]
            self.links.append(entries)
            self.routers[rid].neighbor_ids = [nbr for _, nbr, _ in entries]
            by_port = [-1] * topology.num_ports
            for port, nbr, _ in entries:
                by_port[port] = nbr
            self.neighbor_port.append(by_port)
        #: Precomputed deterministic routing: route_port[rid][dst_rid].
        route = topology.route_port
        self.route_port: list[list[int]] = [
            [route(rid, dst) for dst in range(num_routers)]
            for rid in range(num_routers)
        ]
        #: core -> router lookup (plain list for speed).
        self.core_router = [
            topology.router_of_core(c) for c in range(topology.num_cores)
        ]
        #: Router coordinates (kept for features/telemetry; routing no
        #: longer reads them — it uses the precomputed table above).
        self.coord_x = [topology.coords(r)[0] for r in range(num_routers)]
        self.coord_y = [topology.coords(r)[1] for r in range(num_routers)]

    def load_trace(self, trace: Trace) -> int:
        """Distribute trace entries to per-router NI queues.

        Returns the number of entries loaded.  Raises if the trace's core
        count does not match the topology.
        """
        if trace.num_cores != self.topology.num_cores:
            raise ConfigError(
                f"trace has {trace.num_cores} cores but the "
                f"{self.config.topology} topology has {self.topology.num_cores}"
            )
        queues: list[list[tuple[float, int, int, int]]] = [
            [] for _ in self.routers
        ]
        core_router = self.core_router
        for src, dst, kind, t in zip(
            trace.src, trace.dst, trace.kind, trace.t_ns
        ):
            queues[core_router[src]].append((float(t), int(src), int(dst), int(kind)))
        for router, queue in zip(self.routers, queues):
            queue.sort(key=lambda e: e[0])
            router.inject_queue = queue
            router.inject_pos = 0
        return len(trace)
